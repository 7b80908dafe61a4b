"""The FMM stage arithmetic, once: real GEMMs on C-flattened data.

Every stage of Section 4 is a BatchedGEMM of a *real* operator, so
complex input must double the flops (the ``C`` factor of Section 5),
not quadruple them by up-casting the operator.  All kernels therefore
work on the **planar** layout ``(..., P-1, C, nb, X)``: a real array
whose ``C`` axis holds the re/im planes (``C = 1`` for real input).
``(C, nb)`` — and ``P-1`` too under an operator every p shares — fold
into the GEMM *row* dimension by a reshape; leading axes stay broadcast
batch dimensions of ``np.matmul``, so a stack of problems is
bit-identical to one at a time.

The box axis is global: a device's slab is a contiguous run of it, so
stacking the devices of a cluster is the same reshape, and what a slab
needs of its neighbours comes in as an explicit ``halo`` (one slab is
its own cyclic neighbour).  :class:`repro.fmm.driver.PassState` is the
only caller of the stage functions.
docs/ALGORITHM.md ("Host kernels") has the reasoning and the rounding.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.fmm.interaction import COUSINS_EVEN, COUSINS_ODD
from repro.fmm.plan import FmmOperators
from repro.fmm.tree import Tree1D
from repro.util.validation import complex_dtype_for

Halo = tuple[np.ndarray, np.ndarray]


# -- layout ---------------------------------------------------------------

def _planes(a: np.ndarray) -> np.ndarray:
    """``a`` (..., p, nb, X) as a planar view ``(..., p, C, nb, X)``, no copy."""
    if not np.iscomplexobj(a):
        return a[..., None, :, :]
    return as_strided(a.real, (*a.shape[:-2], 2, *a.shape[-2:]),  # C: real part -> imaginary
                      (*a.strides[:-2], a.itemsize // 2, *a.strides[-2:]))


def _copy(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """``dst[...] = src`` for planar arrays, one a view of m-major data.  NumPy
    walks ``dst`` in memory order; cut into 64 elements of its fastest axis
    (whole boxes, or ``(p, C)`` rows), the strided ``src`` stays cached."""
    axis = -2 if dst.strides[-1] <= dst.strides[-4] else -4
    step = max(1, 64 // dst.shape[axis + 1])
    for i in range(0, dst.shape[axis], step):
        cut = (..., slice(i, i + step)) + (slice(None),) * (-axis - 1)
        dst[cut] = src[cut]
    return dst


def fold(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(..., p, nb, X)`` real or complex, any strides — typically the
    p-major view ``x.reshape(M, P).T`` of a natural vector — -> planar."""
    src = _planes(np.asarray(a))
    return _copy(np.empty(src.shape, dtype=src.dtype) if out is None else out, src)


def unfold(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Planar -> the real (C = 1) or complex (C = 2) array it stands for,
    in one pass into ``out`` (any strides) when given."""
    if out is None:
        if a.shape[-3] == 1:
            return a[..., 0, :, :]
        out = np.empty((*a.shape[:-3], *a.shape[-2:]), dtype=complex_dtype_for(a.dtype))
    _copy(_planes(out), a)
    return out


def halos(a: np.ndarray, G: int, w: int) -> Halo:
    """The ``w`` boxes cyclically left and right of each of ``G`` slabs
    of the box axis, as ``(..., C, G, w, X)`` each."""
    slabs = a.reshape(*a.shape[:-2], G, -1, a.shape[-1])
    return (np.roll(slabs[..., -w:, :], 1, axis=-3),
            np.roll(slabs[..., :w, :], -1, axis=-3))


def _extend(a: np.ndarray, halo: Halo, w: int) -> np.ndarray:
    """Each slab between the innermost ``w`` boxes of its two halos:
    ``(..., C, G, n + 2w, X)``; nothing further out is read."""
    left, right = halo
    slabs = a.reshape(*a.shape[:-2], left.shape[-3], -1, a.shape[-1])
    return np.concatenate([left[..., -w:, :], slabs, right[..., :w, :]], axis=-2)


def _gemm(a: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``a @ K`` with ``(C, nb)`` folded into the GEMM rows — and ``P-1``
    too when every p shares one 2-D ``K``; a per-p ``K[p]`` is read once."""
    lead = a.ndim - (4 if K.ndim == 2 else 3)
    rows = a.reshape(*a.shape[:lead], -1, a.shape[-1])
    return np.matmul(rows, K).reshape(*a.shape[:-1], K.shape[-1])


# -- stages ----------------------------------------------------------------

def s2m(o: FmmOperators, S: np.ndarray) -> np.ndarray:
    """Leaf multipoles ``M^L[p, b, q] = sum_m S2M[q, m] S[p, b, m]``."""
    return _gemm(S, o.s2m.T)


def m2m(o: FmmOperators, child: np.ndarray) -> np.ndarray:
    """One upward level: sibling pairs flattened to ``2Q``."""
    nb2, Q = child.shape[-2:]
    return _gemm(child.reshape(*child.shape[:-2], nb2 // 2, 2 * Q), o.m2m.T)


def l2l(o: FmmOperators, parent: np.ndarray) -> np.ndarray:
    """One downward level: parents evaluated at both children's nodes."""
    nb, Q = parent.shape[-2:]
    return _gemm(parent, o.m2m).reshape(*parent.shape[:-2], 2 * nb, Q)


def l2t(o: FmmOperators, loc: np.ndarray) -> np.ndarray:
    """Leaf local expansions evaluated at the targets."""
    return _gemm(loc, o.s2m)


def s2t(o: FmmOperators, S: np.ndarray, halo: Halo) -> np.ndarray:
    """Near field: ``T[p, b] = [S[b-1] | S[b] | S[b+1]] @ S2T[p]``."""
    ext = _extend(S, halo, Tree1D.S_HALO)
    win = sliding_window_view(ext, 3, axis=-2).swapaxes(-1, -2)
    return _gemm(win.reshape(*S.shape[:-1], 3 * S.shape[-1]), o.s2t)


def m2l_level(o: FmmOperators, Mexp: np.ndarray, ell: int, halo: Halo) -> np.ndarray:
    """Cousin interactions of a hierarchical level: per box parity, the
    three sources side by side and one GEMM over ``3Q``."""
    w, Q = Tree1D.M_HALO, Mexp.shape[-1]
    ext = _extend(Mexp, halo, w)
    n = ext.shape[-2] - 2 * w
    loc = []
    for parity, cousins in enumerate((COUSINS_EVEN, COUSINS_ODD)):
        first = [w + parity + s for s in cousins]  # source of the slab's first target
        src = np.stack([ext[..., f : f + n : 2, :] for f in first], axis=-2)
        loc.append(_gemm(src.reshape(*Mexp.shape[:-2], -1, 3 * Q), o.m2l_level[ell][:, parity]))
    return np.stack(loc, axis=-2).reshape(Mexp.shape)


def m2l_base(o: FmmOperators, MB: np.ndarray) -> np.ndarray:
    """Dense base level: all ``2^B - 3`` non-neighbours in one GEMM."""
    nb, Q = MB.shape[-2:]
    twice = np.concatenate([MB, MB], axis=-2)[..., 2:, :]  # offsets start at s = 2
    win = sliding_window_view(twice, nb - 3, axis=-2)[..., :nb, :, :].swapaxes(-1, -2)
    return _gemm(win.reshape(*MB.shape[:-1], (nb - 3) * Q), o.m2l_base)


def reduce(MB: np.ndarray) -> np.ndarray:
    """``r[p] = sum_{b,q} M^B[p, b, q]`` (S2M/M2M columns sum to one)."""
    return unfold(MB.sum(axis=(-2, -1), keepdims=True))[..., 0, 0]
