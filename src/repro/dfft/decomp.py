"""Slab and pencil decompositions for distributed 3D FFTs.

Multi-node machines change which decomposition wins (Section 7: the
relative cost of inter-node communication grows, so communication
*structure* dominates):

``slab``
    Device ``g`` owns ``Nx/G`` x-planes.  One local 2D FFT over (y, z),
    one *global* all-to-all to bring x-lines local, one local 1D FFT
    over x.  A single collective over all G devices — on a routed
    fabric it is exactly the node-aware ``hier2`` plan's home turf.
``pencil``
    Devices form a ``Gr x Gc`` grid; device ``(r, c)`` owns the z-pencil
    ``x in r, y in c``.  Three local 1D FFT passes separated by *two*
    subgroup exchanges: within row groups (z <-> y) and within column
    groups (y <-> x).  Each exchange is ``Gc`` (resp. ``Gr``)
    independent all-to-alls running concurrently — issued through
    :func:`repro.comm.grouped_alltoall` so their shared-NIC/uplink
    contention is priced, not ignored.  With ``Gc = gpus_per_node`` the
    row exchanges stay entirely on NVLink and only the column exchange
    crosses the fabric.

Both run real NumPy data in execute mode (verified against the
reference transform) and as pure cost models in timing-only mode.
"""

from __future__ import annotations

import numpy as np

from repro import comm
from repro.dfft.layout import BlockRows
from repro.dfft.localfft import local_fft_stage
from repro.dfft.transpose import distributed_transpose
from repro.fftcore.plan import LocalFFTPlan
from repro.machine.cluster import VirtualCluster
from repro.util.bitmath import ilog2, is_pow2
from repro.util.validation import (
    ParameterError,
    check_multiple,
    check_pow2,
    host_input,
)

DECOMPOSITIONS = ("slab", "pencil")


def default_grid(G: int) -> tuple[int, int]:
    """Near-square ``(Gr, Gc)`` process grid with ``Gr * Gc == G``."""
    if not is_pow2(G):
        raise ParameterError(
            f"default_grid needs a power-of-two G, got {G}; pass grid=")
    q = ilog2(G)
    gr = 1 << (q // 2)
    return gr, G // gr


class Distributed3DFFT:
    """Plan for a distributed 3D FFT over an ``Nx x Ny x Nz`` grid.

    Parameters
    ----------
    nx, ny, nz:
        Grid dimensions (powers of two).
    cluster:
        The :class:`VirtualCluster` to run on.
    dtype:
        complex64 or complex128.
    decomposition:
        ``"slab"`` or ``"pencil"``.
    grid:
        Pencil process grid ``(Gr, Gc)``; defaults to the near-square
        split.  Ignored for slabs.
    comm_algorithm:
        Collective algorithm for the slab's global all-to-all (see
        :mod:`repro.comm`); the pencil subgroup exchanges are issued as
        merged pairwise rounds and take no algorithm knob.
    """

    ns = "dfft3"  # device buffer prefix: the default ``key`` below

    def __init__(
        self,
        nx: int,
        ny: int,
        nz: int,
        cluster: VirtualCluster,
        dtype="complex128",
        decomposition: str = "slab",
        grid: tuple[int, int] | None = None,
        comm_algorithm: str = "bulk",
    ):
        check_pow2("nx", nx)
        check_pow2("ny", ny)
        check_pow2("nz", nz)
        if decomposition not in DECOMPOSITIONS:
            raise ParameterError(
                f"unknown decomposition {decomposition!r}; "
                f"choose from {DECOMPOSITIONS}")
        dt = np.dtype(dtype)
        if dt.kind != "c":
            raise ParameterError(f"dtype must be complex, got {dt!r}")
        G = cluster.G
        self.nx, self.ny, self.nz = nx, ny, nz
        self.cl = cluster
        self.dtype = dt
        self.decomposition = decomposition
        self.comm_algorithm = comm_algorithm
        if decomposition == "slab":
            check_multiple("nx", nx, G, "G")
            check_multiple("ny*nz", ny * nz, G, "G")
            self.grid = None
        else:
            gr, gc = default_grid(G) if grid is None else grid
            if gr * gc != G:
                raise ParameterError(
                    f"grid {gr}x{gc} does not tile G={G} devices")
            check_multiple("nx", nx, gr, "Gr")
            check_multiple("ny", ny, gc, "Gc")
            check_multiple("ny", ny, gr, "Gr")
            check_multiple("nz", nz, gc, "Gc")
            self.grid = (gr, gc)
        self._plan_x = LocalFFTPlan(nx, dtype=dt)
        self._plan_y = LocalFFTPlan(ny, dtype=dt)
        self._plan_z = LocalFFTPlan(nz, dtype=dt)

    def graph_key(self) -> tuple:
        """Hashable configuration key: equal keys, equal schedules."""
        return ("fft3d", self.nx, self.ny, self.nz, self.dtype.name,
                self.decomposition, self.grid, self.comm_algorithm, self.cl.G)

    # -- staging ----------------------------------------------------------

    def stage_in(self, a: np.ndarray, key: str = ns) -> None:
        """Scatter the global cube into per-device blocks (host-side)."""
        a = host_input(a, self.dtype, self.nx * self.ny * self.nz).reshape(
            self.nx, self.ny, self.nz)
        # input layout: x over grid rows, y over columns; a slab is (G, 1)
        gr, gc = self.grid or (self.cl.G, 1)
        nxr, nyc = self.nx // gr, self.ny // gc
        for r in range(gr):
            for c in range(gc):
                self.cl.dev(r * gc + c)[key] = np.ascontiguousarray(
                    a[r * nxr:(r + 1) * nxr, c * nyc:(c + 1) * nyc, :])

    def finalize(self, key: str = ns) -> np.ndarray:
        """Reassemble the transformed cube from device blocks."""
        cl, nx, ny, nz = self.cl, self.nx, self.ny, self.nz
        if self.decomposition == "slab":
            # device g holds a row block of the (ny*nz, nx) transposed matrix
            flat = BlockRows(rows=ny * nz, cols=nx, G=cl.G).gather(
                [cl.dev(g)[key] for g in range(cl.G)])
            return np.ascontiguousarray(flat.T).reshape(nx, ny, nz)
        gr, gc = self.grid
        nyr, nzc = ny // gr, nz // gc
        out = np.empty((nx, ny, nz), dtype=self.dtype)
        for r in range(gr):
            for c in range(gc):
                blk = np.asarray(cl.dev(r * gc + c)[key])
                out[:, r * nyr:(r + 1) * nyr, c * nzc:(c + 1) * nzc] = (
                    blk.reshape(nx, nyr, nzc))
        return out

    # -- execution --------------------------------------------------------

    def run(self, a: np.ndarray | None = None,
            key: str = ns) -> np.ndarray | None:
        """Execute the 3D FFT; returns the transformed cube or None."""
        cl = self.cl
        if cl.execute:
            if a is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(a, key)
        else:
            gr, gc = self.grid or (cl.G, 1)
            for g in range(cl.G):
                cl.dev(g).alloc(
                    key, (self.nx // gr, self.ny // gc, self.nz), self.dtype)
        with cl.region("fft3d"):
            if self.decomposition == "slab":
                self._run_slab(key)
            else:
                self._run_pencil(key)
        cl.barrier()
        if cl.execute:
            return self.finalize(key)
        return None

    def _run_slab(self, key: str) -> None:
        cl, nx, ny, nz = self.cl, self.nx, self.ny, self.nz
        G = cl.G
        nxl = nx // G
        lay = BlockRows(rows=nx, cols=ny * nz, G=G)

        # two stacked 1D passes priced as one launch
        evs = local_fft_stage(
            cl, key, "fft3d.yz", "fftYZ", (nxl, ny, nz),
            [(self._plan_y, 1), (self._plan_z, 2)], self.dtype)[0]

        with cl.region("transpose"):
            evs2 = distributed_transpose(
                cl, key, key, lay, self.dtype, name="fft3d.transpose",
                after_chunks=[evs], chunks=1,
                algorithm=self.comm_algorithm)

        local_fft_stage(cl, key, "fft3d.x", "fftX", ((ny * nz) // G, nx),
                        [(self._plan_x, 1)], self.dtype, after=evs2)

    def _exchange(self, name: str, region: str, groups, shape, split: int,
                  join: int, after, key: str, stage: int):
        """One subgroup exchange under ``region``; returns per-device events.

        Within each group, every member's block (viewed as ``shape``) is
        split along axis ``split`` over the members and the pieces each
        receives are joined along ``join``.  Message reads/writes use
        sibling sub-parts of ``key`` so the concurrent messages of a
        round never alias while whole-buffer FFT passes still conflict
        with (and are ordered against) them.
        """
        cl = self.cl
        n = len(groups[0])

        def move(c: VirtualCluster) -> None:
            for members in groups:
                parts = [np.array_split(
                    np.asarray(c.dev(g)[key]).reshape(shape), n, axis=split)
                    for g in members]
                for i, g in enumerate(members):
                    c.dev(g)[key] = np.concatenate(
                        [p[i] for p in parts], axis=join)

        local_bytes = (self.nx * self.ny * self.nz / cl.G) * self.dtype.itemsize
        with cl.region(region):
            evs = comm.grouped_alltoall(
                cl, local_bytes * (1.0 - 1.0 / n), name, groups=groups,
                after=after, fn=move,
                reads=[f"{key}#pack{stage}"], writes=[f"{key}#x{stage}"])
            return [
                cl.launch(
                    g, name=f"{name}.reorder", kind="copy", flops=0.0,
                    mops=2.0 * local_bytes, dtype=self.dtype, stream="compute",
                    after=[evs[g]], reads=[key], writes=[key])
                for g in range(cl.G)
            ]

    def _run_pencil(self, key: str) -> None:
        cl, nx, ny, nz = self.cl, self.nx, self.ny, self.nz
        gr, gc = self.grid
        nxr, nyc, nyr, nzc = nx // gr, ny // gc, ny // gr, nz // gc
        rows = [[r * gc + c for c in range(gc)] for r in range(gr)]
        cols = [[r * gc + c for r in range(gr)] for c in range(gc)]

        evs = local_fft_stage(cl, key, "fft3d.z", "fftZ", (nxr, nyc, nz),
                              [(self._plan_z, 2)], self.dtype)[0]
        # within each row group: split z over members, join y
        evs = self._exchange("fft3d.rowx", "rowX", rows, (nxr, nyc, nz), 2, 1,
                             evs, key, 1)
        evs = local_fft_stage(cl, key, "fft3d.y", "fftY", (nxr, ny, nzc),
                              [(self._plan_y, 1)], self.dtype, after=evs)[0]
        # within each column group: split y over members, join x
        evs = self._exchange("fft3d.colx", "colX", cols, (nxr, ny, nzc), 1, 0,
                             evs, key, 2)
        local_fft_stage(cl, key, "fft3d.x", "fftX", (nx, nyr, nzc),
                        [(self._plan_x, 0)], self.dtype, after=evs)
