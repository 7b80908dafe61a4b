"""Single-device batched execution of the P-1 interleaved FMMs.

The host wrangler of :func:`repro.fmm.driver.drive_fmm`: fold the input
into the kernels' planar layout, drive Algorithm 1 with every stage's
data path run on the spot (one slab, so the halos are cyclic), unfold.
One NumPy ``matmul`` per stage per level — the direct analogue of the
paper's "single call to BatchedGEMM" claims (Sections 4.4-4.5).  The
kernel-launch inventory for L - B = 10 is exactly the paper's Figure 2
count: 1 S2M + 10 M2M + 1 S2T + (10 + 1) M2L + 1 reduce + 10 L2L +
1 L2T = 35.

Tensor layout: batch-of-FMMs axes ordered ``(p, box, within-box)``.
"""

from __future__ import annotations

import numpy as np

from repro.fmm import kernels
from repro.fmm.driver import PassState, drive_fmm
from repro.fmm.plan import FmmOperators
from repro.util.validation import ParameterError, check_numeric


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

    def _begin(self, Sb: np.ndarray) -> PassState:
        """A pass on the rows ``p >= 1`` of boxed input ``(..., P, nb, ML)``."""
        check_numeric("S", Sb)
        return PassState(self.ops, kernels.fold(Sb[..., 1:, :, :]))

    def s2t(self, S: np.ndarray) -> np.ndarray:
        """Near field alone: the interleaved, overlapped Toeplitz convolution.

        ``T[pi, b, i] = sum_j' K[pi, i, j'] S_halo[pi, b, j']`` with the
        halo triple [b-1, b, b+1] built cyclically; ``S`` is boxed,
        ``(..., P, nb, ML)``.
        """
        state = self._begin(np.asarray(S))
        state.run("COMM-S", self.ops.L)
        state.run("S2T", self.ops.L)
        return kernels.unfold(state.T)

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
            (..., P-1) with ``r[..., p-1] = sum_m S[..., p, m]``.  T is
            stored m-major (``T.swapaxes(-1, -2)`` is C-contiguous).
        """
        o = self.ops
        S = np.asarray(S)
        if S.shape[-2:] != (o.P, o.M):
            raise ParameterError(f"S must have shape (..., {o.P}, {o.M}), got {S.shape}")
        Sb = S.reshape(*S.shape[:-2], o.P, o.tree.num_leaves, o.ML)
        state = self._begin(Sb)
        drive_fmm(o.tree, state.run)
        T = np.empty((*S.shape[:-2], o.M, o.P),
                     dtype=np.result_type(S.dtype, o.real_dtype)).swapaxes(-1, -2)
        Tb = T.reshape(Sb.shape)
        Tb[..., 0, :, :] = Sb[..., 0, :, :]
        kernels.unfold(state.T, out=Tb[..., 1:, :, :])
        return T, state.r
