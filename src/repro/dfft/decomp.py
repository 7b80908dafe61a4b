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
from repro.dfft.transpose import distributed_transpose
from repro.fftcore.flops import fft_flops, fft_mops, fft_small_n_efficiency
from repro.fftcore.plan import LocalFFTPlan
from repro.machine.cluster import VirtualCluster
from repro.util.bitmath import ilog2, is_pow2
from repro.util.validation import ParameterError, check_multiple, check_pow2

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

    # -- staging ----------------------------------------------------------

    def _row_groups(self) -> list[list[int]]:
        gr, gc = self.grid
        return [[r * gc + c for c in range(gc)] for r in range(gr)]

    def _col_groups(self) -> list[list[int]]:
        gr, gc = self.grid
        return [[r * gc + c for r in range(gr)] for c in range(gc)]

    def stage_in(self, a: np.ndarray, key: str = "dfft3") -> None:
        """Scatter the global cube into per-device blocks (host-side)."""
        cl = self.cl
        a = np.asarray(a, dtype=self.dtype).reshape(self.nx, self.ny, self.nz)
        if self.decomposition == "slab":
            nxl = self.nx // cl.G
            for g in range(cl.G):
                cl.dev(g)[key] = np.ascontiguousarray(
                    a[g * nxl:(g + 1) * nxl])
            return
        gr, gc = self.grid
        nxr, nyc = self.nx // gr, self.ny // gc
        for r in range(gr):
            for c in range(gc):
                cl.dev(r * gc + c)[key] = np.ascontiguousarray(
                    a[r * nxr:(r + 1) * nxr, c * nyc:(c + 1) * nyc, :])

    def gather(self, key: str = "dfft3") -> np.ndarray:
        """Reassemble the transformed cube from device blocks."""
        cl, nx, ny, nz = self.cl, self.nx, self.ny, self.nz
        if self.decomposition == "slab":
            # device g holds rows [g*rl, (g+1)*rl) of the (ny*nz, nx)
            # transposed matrix
            rl = (ny * nz) // cl.G
            flat = np.vstack([
                np.asarray(cl.dev(g)[key]).reshape(rl, nx)
                for g in range(cl.G)
            ])
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
            key: str = "dfft3") -> np.ndarray | None:
        """Execute the 3D FFT; returns the transformed cube or None."""
        cl = self.cl
        if cl.execute:
            if a is None:
                raise ParameterError("execute-mode cluster requires input data")
            self.stage_in(a, key)
        with cl.region("fft3d"):
            if self.decomposition == "slab":
                self._run_slab(key)
            else:
                self._run_pencil(key)
        cl.barrier()
        if cl.execute:
            return self.gather(key)
        return None

    def _fft_pass(self, name: str, n: int, batch: float, after, fn, key: str):
        """One local FFT pass on every device; returns per-device events."""
        cl = self.cl
        flops = fft_flops(n, batch=batch)
        mops = fft_mops(n, batch=batch, itemsize=self.dtype.itemsize) \
            / fft_small_n_efficiency(n)
        evs = []
        for g in range(cl.G):
            dep = [after[g]] if after and after[g] is not None else ()
            evs.append(cl.launch(
                g, name=name, kind="fft", flops=flops, mops=mops,
                dtype=self.dtype, stream="compute", after=dep,
                fn=fn if g == 0 else None, reads=[key], writes=[key]))
        return evs

    def _run_slab(self, key: str) -> None:
        cl, nx, ny, nz = self.cl, self.nx, self.ny, self.nz
        G = cl.G
        nxl = nx // G
        lay = BlockRows(rows=nx, cols=ny * nz, G=G)
        if not cl.execute:
            for g in range(G):
                cl.dev(g).alloc(key, lay.local_shape(), self.dtype)

        def fft_yz(c: VirtualCluster) -> None:
            for g in range(G):
                blk = np.asarray(c.dev(g)[key]).reshape(nxl, ny, nz)
                blk = self._plan_y.forward(blk, axis=1)
                c.dev(g)[key] = self._plan_z.forward(blk, axis=2)

        with cl.region("fftYZ"):
            # two stacked 1D passes priced as one launch
            flops = fft_flops(ny, batch=nxl * nz) + fft_flops(nz, batch=nxl * ny)
            mops = (fft_mops(ny, batch=nxl * nz, itemsize=self.dtype.itemsize)
                    / fft_small_n_efficiency(ny)
                    + fft_mops(nz, batch=nxl * ny, itemsize=self.dtype.itemsize)
                    / fft_small_n_efficiency(nz))
            evs = []
            for g in range(G):
                evs.append(cl.launch(
                    g, name="fft3d.yz", kind="fft", flops=flops, mops=mops,
                    dtype=self.dtype, stream="compute",
                    fn=fft_yz if g == 0 else None, reads=[key], writes=[key]))

        with cl.region("transpose"):
            evs2 = distributed_transpose(
                cl, key, key, lay, self.dtype, name="fft3d.transpose",
                after_chunks=[evs], chunks=1,
                algorithm=self.comm_algorithm)

        rl = (ny * nz) // G

        def fft_x(c: VirtualCluster) -> None:
            for g in range(G):
                blk = np.asarray(c.dev(g)[key]).reshape(rl, nx)
                c.dev(g)[key] = self._plan_x.forward(blk, axis=1)

        with cl.region("fftX"):
            self._fft_pass("fft3d.x", nx, float(rl), evs2, fft_x, key)

    def _exchange(self, name: str, groups, frac_kept: float, fn, after,
                  key: str, stage: int):
        """One subgroup exchange; returns per-device events.

        Message reads/writes use sibling sub-parts of ``key`` so the
        concurrent messages of a round never alias while whole-buffer
        FFT passes still conflict with (and are ordered against) them.
        """
        cl = self.cl
        local_bytes = self._pencil_local_bytes()
        sent = local_bytes * (1.0 - frac_kept)
        evs = comm.grouped_alltoall(
            cl, sent, name, groups=groups, after=after, fn=fn,
            reads=[f"{key}#pack{stage}"], writes=[f"{key}#x{stage}"])
        out = []
        for g in range(cl.G):
            out.append(cl.launch(
                g, name=f"{name}.reorder", kind="copy", flops=0.0,
                mops=2.0 * local_bytes, dtype=self.dtype, stream="compute",
                after=[evs[g]], reads=[key], writes=[key]))
        return out

    def _pencil_local_bytes(self) -> float:
        gr, gc = self.grid
        return (self.nx * self.ny * self.nz / (gr * gc)) \
            * self.dtype.itemsize

    def _run_pencil(self, key: str) -> None:
        cl, nx, ny, nz = self.cl, self.nx, self.ny, self.nz
        gr, gc = self.grid
        nxr, nyc, nyr, nzc = nx // gr, ny // gc, ny // gr, nz // gc
        if not cl.execute:
            for g in range(cl.G):
                cl.dev(g).alloc(key, (nxr, nyc, nz), self.dtype)

        def fft_z(c: VirtualCluster) -> None:
            for g in range(c.G):
                blk = np.asarray(c.dev(g)[key]).reshape(nxr, nyc, nz)
                c.dev(g)[key] = self._plan_z.forward(blk, axis=2)

        with cl.region("fftZ"):
            evs = self._fft_pass("fft3d.z", nz, float(nxr * nyc), None,
                                 fft_z, key)

        row_groups = self._row_groups()

        def move_rows(c: VirtualCluster) -> None:
            # within each row group: split z over members, join y
            for members in row_groups:
                blks = [np.asarray(c.dev(g)[key]).reshape(nxr, nyc, nz)
                        for g in members]
                for ci, g in enumerate(members):
                    c.dev(g)[key] = np.concatenate(
                        [b[:, :, ci * nzc:(ci + 1) * nzc] for b in blks],
                        axis=1)

        with cl.region("rowX"):
            evs = self._exchange("fft3d.rowx", row_groups, 1.0 / gc,
                                 move_rows, evs, key, 1)

        def fft_y(c: VirtualCluster) -> None:
            for g in range(c.G):
                blk = np.asarray(c.dev(g)[key]).reshape(nxr, ny, nzc)
                c.dev(g)[key] = self._plan_y.forward(blk, axis=1)

        with cl.region("fftY"):
            evs = self._fft_pass("fft3d.y", ny, float(nxr * nzc), evs,
                                 fft_y, key)

        col_groups = self._col_groups()

        def move_cols(c: VirtualCluster) -> None:
            # within each column group: split y over members, join x
            for members in col_groups:
                blks = [np.asarray(c.dev(g)[key]).reshape(nxr, ny, nzc)
                        for g in members]
                for ri, g in enumerate(members):
                    c.dev(g)[key] = np.concatenate(
                        [b[:, ri * nyr:(ri + 1) * nyr, :] for b in blks],
                        axis=0)

        with cl.region("colX"):
            evs = self._exchange("fft3d.colx", col_groups, 1.0 / gr,
                                 move_cols, evs, key, 2)

        def fft_x(c: VirtualCluster) -> None:
            for g in range(c.G):
                blk = np.asarray(c.dev(g)[key]).reshape(nx, nyr, nzc)
                c.dev(g)[key] = self._plan_x.forward(blk, axis=0)

        with cl.region("fftX"):
            self._fft_pass("fft3d.x", nx, float(nyr * nzc), evs, fft_x, key)
