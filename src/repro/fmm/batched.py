"""Single-device batched execution of the P-1 interleaved FMMs.

One NumPy ``matmul`` per stage per level — the direct analogue of the
paper's "single call to BatchedGEMM" claims (Sections 4.4-4.5).  The
kernel-launch inventory for L - B = 10 is exactly the paper's Figure 2
count: 1 S2M + 10 M2M + 1 S2T + (10 + 1) M2L + 1 reduce + 10 L2L +
1 L2T = 35.

Tensor layout: batch-of-FMMs axes ordered ``(p, box, within-box)``.
The arithmetic lives in :mod:`repro.fmm.kernels`; this class only folds
its input into the kernels' planar layout, sequences the stages with
cyclic (single-device) halos, and unfolds the result.
"""

from __future__ import annotations

import numpy as np

from repro.fmm import kernels
from repro.fmm.plan import FmmOperators
from repro.util.validation import ParameterError


class BatchedFMM:
    """Applies all P-1 cotangent kernels ``C~_p`` via one shared tree.

    Parameters
    ----------
    operators:
        A prebuilt :class:`~repro.fmm.plan.FmmOperators` (with G == 1).

    Examples
    --------
    >>> from repro.fmm.plan import FmmOperators
    >>> ops = FmmOperators.create(M=256, P=4, ML=16, B=2, Q=16)
    >>> fmm = BatchedFMM(ops)
    >>> import numpy as np
    >>> S = np.random.default_rng(0).standard_normal((4, 256))
    >>> T, r = fmm.apply(S)
    """

    def __init__(self, operators: FmmOperators):
        if operators.tree.G != 1:
            raise ParameterError("BatchedFMM is single-device; build operators with G=1")
        self.ops = operators

    # -- stages (each one batched contraction) ---------------------------

    def _stage(self, kernel, a: np.ndarray, *args) -> np.ndarray:
        """One planar kernel on real or complex data of any strides and
        leading batch axes; the same kind of array comes back."""
        return kernels.unfold(kernel(self.ops, kernels.fold(a), *args))

    def s2m(self, S: np.ndarray) -> np.ndarray:
        """Leaf multipoles: ``M^L[pi, b, q] = sum_m S2M[q, m] S[pi+1, b, m]``."""
        return self._stage(kernels.s2m, S[..., 1:, :, :])

    def s2t(self, S: np.ndarray) -> np.ndarray:
        """Near field: the interleaved, overlapped Toeplitz convolution.

        ``T[pi, b, i] = sum_j' K[pi, i, j'] S_halo[pi, b, j']`` with the
        halo triple [b-1, b, b+1] built cyclically.
        """
        return self._stage(kernels.s2t, S[..., 1:, :, :])

    def m2m(self, child: np.ndarray) -> np.ndarray:
        """One upward level: siblings flattened then one batched GEMM."""
        return self._stage(kernels.m2m, child)

    def m2l_level(self, level: int, Mexp: np.ndarray) -> np.ndarray:
        """Cousin interactions at a hierarchical level (3 per box)."""
        return self._stage(kernels.m2l_level, Mexp, level)

    def m2l_base(self, MexpB: np.ndarray) -> np.ndarray:
        """Dense base-level interactions: every non-neighbour box."""
        return self._stage(kernels.m2l_base, MexpB)

    def reduce(self, MexpB: np.ndarray) -> np.ndarray:
        """``r[pi] = sum_{q,b} M^B[pi, q, b]`` — valid because S2M/M2M
        columns sum to one (Section 4.8)."""
        return kernels.reduce(kernels.fold(MexpB))

    def l2l(self, parent: np.ndarray) -> np.ndarray:
        """One downward level: evaluate parents at both children's nodes."""
        return self._stage(kernels.l2l, parent)

    def l2t(self, locL: np.ndarray) -> np.ndarray:
        """Evaluate leaf local expansions at the targets."""
        return self._stage(kernels.l2t, locL)

    # -- full pipeline ----------------------------------------------------

    def apply(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply all kernels: ``T[0] = S[0]``, ``T[p] = C~_p S[p]``.

        Parameters
        ----------
        S:
            (P, M) array (any real/complex dtype), or (..., P, M) with
            leading batch axes — a stack of independent problems sharing
            one operator bundle, applied as one broadcasted contraction
            per stage (bit-identical to applying each slice alone).

        Returns
        -------
        (T, r):
            T of shape (..., P, M) and the reduction vector r of shape
            (..., P-1) with ``r[..., p-1] = sum_m S[..., p, m]``.
        """
        o = self.ops
        P, M, ML, nb = o.P, o.M, o.ML, o.tree.num_leaves
        S = np.asarray(S)
        if S.shape[-2:] != (P, M):
            raise ParameterError(f"S must have shape (..., {P}, {M}), got {S.shape}")
        Sb = S.reshape(*S.shape[:-2], P, nb, ML)
        Sp = kernels.fold(Sb[..., 1:, :, :])  # planar from here to the last line

        Mexp = {o.L: kernels.s2m(o, Sp)}
        for ell in o.tree.levels_m2m():
            Mexp[ell] = kernels.m2m(o, Mexp[ell + 1])
        Tp = kernels.s2t(o, Sp)

        loc = kernels.m2l_base(o, Mexp[o.B])
        r = kernels.reduce(Mexp[o.B])
        for ell in o.tree.levels_l2l():
            loc = kernels.m2l_level(o, Mexp[ell + 1], ell + 1) + kernels.l2l(o, loc)
        Tp += kernels.l2t(o, loc)

        T = np.concatenate([Sb[..., :1, :, :], kernels.unfold(Tp)], axis=-3)
        return T.reshape(S.shape), r
