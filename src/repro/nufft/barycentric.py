"""Trigonometric barycentric interpolation on equispaced nodes.

For an even number ``n`` of equispaced nodes ``t_j = j / n`` on the
periodic unit interval, the degree-balanced trigonometric interpolant of
values ``f_j`` is (Henrici)::

    p(x) = [ sum_j (-1)^j f_j cot(pi (x - t_j)) ]
           / [ sum_j (-1)^j     cot(pi (x - t_j)) ]

with ``p(t_j) = f_j`` taken as the limit at node hits.  Both sums are
cotangent-kernel evaluations — exactly what
:class:`~repro.nufft.nonuniform_fmm.NonuniformPeriodicFMM` accelerates —
which is the Dutt-Rokhlin route to nonequispaced FFTs.

The interpolant is *exact* for trigonometric polynomials
``sum_{|k| < n/2} c_k e^(2 pi i k x)`` (no Nyquist term); the transforms
layer guarantees that by oversampling.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nufft.nonuniform_fmm import NonuniformPeriodicFMM, cot_pi
from repro.util.validation import ParameterError

#: node-coincidence tolerance (fraction of the node spacing)
HIT_TOL = 1e-12


def tree_depth(n: int, B: int) -> int:
    """Leaf level of the FMM over ``n`` nodes: about 16 nodes per box."""
    return max(B, int(math.log2(max(n, 2))) - 4)


def _prep(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n < 2 or n % 2:
        raise ParameterError(f"barycentric nodes must be even and >= 2, got {n}")
    x = np.asarray(x, dtype=np.float64).ravel() % 1.0
    j_near = np.round(x * n).astype(np.intp) % n
    hits = np.abs(x * n - np.round(x * n)) < HIT_TOL
    return x, j_near, hits


def _ratio(f, num, den, j_near, hits) -> np.ndarray:
    """``num / den`` off the nodes; a node hit takes its node's value."""
    out = np.empty(hits.shape, dtype=np.result_type(f.dtype, np.float64))
    out[~hits] = num[~hits] / den[~hits]
    out[hits] = f[j_near[hits]]
    return out


def trig_barycentric_dense(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Direct O(n m) barycentric evaluation (oracle / small problems)."""
    f = np.asarray(f)
    n = f.shape[0]
    x, j_near, hits = _prep(n, x)
    t = np.arange(n) / n
    sign = (-1.0) ** np.arange(n)
    diff = x[:, None] - t[None, :]
    C = cot_pi(diff - np.round(diff)) * sign[None, :]
    return _ratio(f, C @ f, C.sum(axis=1), j_near, hits)


def trig_barycentric_fmm(f: np.ndarray, x: np.ndarray, L: int | None = None,
                         B: int = 3, Q: int = 16) -> np.ndarray:
    """FMM-accelerated barycentric evaluation, O((n + m) Q ...).

    Numerator and denominator ride the same FMM as two right-hand
    sides.  Node coincidences are detected and patched exactly.
    """
    f = np.asarray(f)
    n = f.shape[0]
    x, j_near, hits = _prep(n, x)
    if L is None:
        L = tree_depth(n, B)
    t = np.arange(n) / n
    sign = (-1.0) ** np.arange(n)
    fmm = NonuniformPeriodicFMM(t, x, L=L, B=min(B, L), Q=Q)
    rhs = np.stack([sign * f, sign.astype(np.result_type(f.dtype, np.float64))],
                   axis=1)
    sums = fmm.apply(rhs)
    return _ratio(f, sums[:, 0], sums[:, 1], j_near, hits)
