"""Periodic 1D FMM for ``cot(pi (x - y))`` with arbitrary points.

Sources ``y_j`` with weights ``w_j`` and targets ``x_i`` live on the
periodic unit interval.  The evaluation::

    u(x_i) = sum_j  w_j * cot(pi (x_i - y_j))        (x_i != y_j)

is the workhorse of trigonometric barycentric interpolation (and hence
of Dutt-Rokhlin nonequispaced FFTs).  Exact coincidences ``x_i == y_j``
contribute zero (the caller — the barycentric formula — handles node
hits separately).

This is the FMM-FFT's Algorithm 1 at P = 1: :func:`repro.fmm.driver.drive_fmm`
issues the stages over a tree of ``2^L`` leaf boxes, and M2M, M2L, M2L-B
and L2L run through :class:`~repro.fmm.driver.PassState` on the uniform
operators taken at kernel shift 0 and negated (cot is odd, and this
kernel is target minus source; docs/ALGORITHM.md §6).  Only S2M, L2T and
the near field see the point positions: each is a sparse matrix built
once from them.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy import sparse

from repro.fmm import kernels
from repro.fmm.chebyshev import lagrange_eval
from repro.fmm.driver import PassState, drive_fmm
from repro.fmm.operators import m2m_matrix
from repro.fmm.plan import m2l_operators
from repro.fmm.tree import Tree1D
from repro.util.validation import ParameterError, check_range


def cot_pi(x: np.ndarray) -> np.ndarray:
    """``cot(pi x)`` with exact zeros mapped to 0 (skipped pairs)."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.where(x != 0.0, 1.0 / np.tan(np.pi * x), 0.0)


class NonuniformPeriodicFMM:
    """Plan for repeated cot-kernel evaluations with fixed geometry.

    Parameters
    ----------
    sources, targets:
        Point coordinates in [0, 1) (any order; binned internally).
    L:
        Tree depth: 2^L leaf boxes.
    B:
        Base level (2 <= B <= L).
    Q:
        Chebyshev expansion order.

    Notes
    -----
    Points are *binned*, not assumed sorted.  Accuracy matches the
    uniform FMM: geometric in Q (Figure 9's rate), because cousin boxes
    are separated by at least one box width regardless of where points
    sit inside them.

    The plan holds the near field as an explicit sparse matrix over
    every source-target pair in the same or an adjacent leaf box: about
    3 x (sources per box) entries per target (≈48 on :func:`nufft2`'s
    trees).  Building those pairs makes the plan cost about a dozen
    applies (≈36 ms against ≈2.9 ms per apply at 16,000 points, 64 per
    box, on a 2-core host); every apply after it is three sparse
    products and the uniform stages.
    """

    def __init__(self, sources: np.ndarray, targets: np.ndarray,
                 L: int = 6, B: int = 3, Q: int = 16):
        sources = np.asarray(sources, dtype=np.float64).ravel()
        targets = np.asarray(targets, dtype=np.float64).ravel()
        for name, pts in (("sources", sources), ("targets", targets)):
            if pts.size == 0:
                raise ParameterError(f"{name} must be non-empty")
            if not ((pts >= 0) & (pts < 1)).all():  # NaN fails both
                raise ParameterError(f"{name} must be finite and lie in [0, 1)")
        check_range("Q", Q, 2, None)
        self.tree = Tree1D(M=1 << L, ML=1, B=B)  # validates 2 <= B <= L
        self.src, self.tgt, self.Q, self.nb = sources, targets, Q, 1 << L
        level, base = m2l_operators(self.tree, Q, [0.0], np.float64)
        # what PassState reads for the stages that see no positions
        self.ops = SimpleNamespace(m2m=m2m_matrix(Q), m2l_base=-base,
                                   m2l_level={ell: -K for ell, K in level.items()})
        self._s2m = self._interp(sources).T.tocsr()  # (nb Q, n_src)
        self._l2t = self._interp(targets)            # (n_tgt, nb Q)
        self._near = self._near_field()              # (n_tgt, n_src)

    # -- the position-dependent stages, as matrices -------------------------

    def _box(self, pts: np.ndarray) -> np.ndarray:
        return np.minimum((pts * self.nb).astype(np.intp), self.nb - 1)

    def _interp(self, pts: np.ndarray) -> sparse.csr_matrix:
        """Row i: the Q Lagrange weights of point i in its leaf box."""
        box, Q = self._box(pts), self.Q
        local = (pts * self.nb - box) * 2.0 - 1.0  # box -> [-1, 1]
        cols = box[:, None] * Q + np.arange(Q)
        return sparse.csr_matrix(
            (lagrange_eval(Q, local).T.ravel(), cols.ravel(),
             np.arange(0, pts.size * Q + 1, Q)), shape=(pts.size, self.nb * Q))

    def _near_field(self) -> sparse.csr_matrix:
        """The kernel over each target's sources in boxes b-1, b, b+1."""
        sbox = self._box(self.src)
        order = np.argsort(sbox, kind="stable")
        bounds = np.searchsorted(sbox[order], np.arange(self.nb + 1))
        nbr = (self._box(self.tgt)[:, None] + np.array([-1, 0, 1])) % self.nb
        start, count = bounds[nbr].ravel(), (bounds[nbr + 1] - bounds[nbr]).ravel()
        # the three runs of sorted sources per target, target-major
        skip = np.repeat(start - np.cumsum(count) + count, count)
        cols = order[skip + np.arange(count.sum())]
        per_tgt = count.reshape(-1, 3).sum(axis=1)
        diff = np.repeat(self.tgt, per_tgt) - self.src[cols]
        return sparse.csr_matrix(
            (cot_pi(diff - np.round(diff)), cols, np.concatenate([[0], np.cumsum(per_tgt)])),
            shape=(self.tgt.size, self.src.size))

    # -- application --------------------------------------------------------

    def apply(self, weights: np.ndarray) -> np.ndarray:
        """Evaluate the kernel sum for one or more weight vectors.

        Parameters
        ----------
        weights:
            Shape ``(n_src,)`` or ``(n_src, k)`` (k right-hand sides).

        Returns
        -------
        ``(n_tgt,)`` or ``(n_tgt, k)`` values.
        """
        weights = np.asarray(weights)
        if weights.ndim not in (1, 2) or len(weights) != self.src.size:
            raise ParameterError(
                f"weights must have {self.src.size} rows, got shape {weights.shape}")
        w = weights.reshape(self.src.size, -1)
        w = w.astype(np.result_type(w.dtype, np.float64), copy=False)
        k, nb, Q = w.shape[1], self.nb, self.Q
        # the k right-hand sides on the planar layout's batch axis: (k, 1, C, nb, Q)
        state = PassState(self.ops)

        def issue(stage: str, ell: int, *_tokens) -> None:
            if stage == "S2M":
                state.M[ell] = kernels.fold((self._s2m @ w).T.reshape(k, 1, nb, Q))
            elif stage == "S2T":
                state.T = self._near @ w
            elif stage == "L2T":
                loc = kernels.unfold(state.L[ell]).reshape(k, nb * Q)
                state.T += self._l2t @ loc.T
            elif stage not in ("COMM-S", "REDUCE"):
                state.run(stage, ell)

        drive_fmm(self.tree, issue)
        return state.T.reshape(self.tgt.size, *weights.shape[1:])

    def apply_dense(self, weights: np.ndarray) -> np.ndarray:
        """O(N M) direct evaluation (test oracle; small sizes only)."""
        if self.src.size * self.tgt.size > 16_000_000:
            raise ParameterError("apply_dense refused: problem too large")
        diff = self.tgt[:, None] - self.src[None, :]
        return cot_pi(diff - np.round(diff)) @ np.asarray(weights)
