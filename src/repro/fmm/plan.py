"""Precomputed operator bundle for a batch of P-1 FMMs.

:class:`FmmOperators` builds every Section 4 operator once for a given
``(M, P, M_L, B, Q)`` and precision, each stored once in the layout the
GEMM of :mod:`repro.fmm.kernels` right-multiplies by (inputs on the
second-to-last axis, the sources a target gathers laid side by side), so
no apply transposes or copies an operator.  Operators are real; the
C-factor accounting for complex inputs happens at launch-costing time,
exactly as the paper's Section 5 flop counts prescribe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmm import operators as ops
from repro.fmm.tree import Tree1D
from repro.util.validation import ParameterError, check_positive, real_dtype_for


@dataclass(frozen=True)
class FmmGeometry:
    """Shape-only description of a batch of P-1 FMMs.

    Sufficient for cost accounting and communication sizing; carries no
    operator arrays, so it is cheap at any scale (timing-only sweeps at
    N = 2^27+ use it without allocating gigabytes of operators).
    """

    tree: Tree1D
    P: int
    Q: int
    N: int

    @classmethod
    def create(cls, M: int, P: int, ML: int, B: int, Q: int, G: int = 1) -> "FmmGeometry":
        check_positive("Q", Q)
        if P < 2:
            raise ParameterError(f"P must be >= 2 (P-1 FMMs), got {P}")
        return cls(tree=Tree1D(M=M, ML=ML, B=B, G=G), P=P, Q=Q, N=M * P)

    @property
    def M(self) -> int:
        return self.tree.M

    @property
    def ML(self) -> int:
        return self.tree.ML

    @property
    def L(self) -> int:
        return self.tree.L

    @property
    def B(self) -> int:
        return self.tree.B


@dataclass(frozen=True)
class FmmOperators(FmmGeometry):
    """All dense operators for P-1 interleaved periodic FMMs of size M:
    the geometry (``tree``, ``P``, ``Q``, ``N``) plus the arrays.

    Build with :meth:`create`; fields are ready-to-matmul arrays.  The
    per-p operators are the :mod:`repro.fmm.operators` tensors with the
    trailing ``(out, in)`` pair swapped and the source offsets merged
    into the inner dimension: ``s2t[p, j', i]``, ``m2l_level[ell][p,
    parity, si*Q + j, i]``, ``m2l_base[p, si*Q + j, i]``.
    """

    real_dtype: np.dtype
    s2m: np.ndarray          # (Q, ML)
    m2m: np.ndarray          # (Q, 2Q)
    m2l_level: dict          # level -> (P-1, 2, 3Q, Q)
    m2l_base: np.ndarray     # (P-1, (2^B-3) Q, Q)
    s2t: np.ndarray          # (P-1, 3ML, ML)
    rho: np.ndarray          # (P-1,) complex

    @classmethod
    def create(
        cls,
        M: int,
        P: int,
        ML: int,
        B: int,
        Q: int,
        dtype="complex128",
        G: int = 1,
    ) -> "FmmOperators":
        """Build operators for the FMM-FFT's kernels ``C~_p``, p=1..P-1.

        ``N = M * P`` fixes the kernel shift ``pi p / N``.  Operators are
        computed in float64 and narrowed to the working precision.
        """
        geo = FmmGeometry.create(M, P, ML, B, Q, G)  # validates the shape
        tree, N = geo.tree, geo.N
        rdt = real_dtype_for(dtype)
        cdt = np.complex64 if rdt == np.float32 else np.complex128

        def gemm_layout(K: np.ndarray, *shape: int) -> np.ndarray:
            return K.swapaxes(-1, -2).astype(rdt, order="C").reshape(P - 1, *shape)

        m2l_level = {
            ell: gemm_layout(ops.m2l_level_tensor(ell, P, Q, N), 2, 3 * Q, Q)
            for ell in tree.levels_m2l()
        }
        return cls(
            tree=tree,
            P=P,
            Q=Q,
            N=N,
            real_dtype=np.dtype(rdt),
            s2m=ops.s2m_matrix(Q, ML).astype(rdt),
            m2m=ops.m2m_matrix(Q).astype(rdt),
            m2l_level=m2l_level,
            m2l_base=gemm_layout(ops.m2l_base_tensor(B, P, Q, N), -1, Q),
            s2t=gemm_layout(ops.s2t_matrix(P, ML, N), 3 * ML, ML),
            rho=ops.rho_factors(P, M).astype(cdt),
        )

    @property
    def geometry(self) -> FmmGeometry:
        """The shape-only view of this operator bundle."""
        return FmmGeometry(tree=self.tree, P=self.P, Q=self.Q, N=self.N)

    def operator_bytes(self) -> int:
        """Total storage of the precomputed operators (Section 5.3 notes
        the S2T/M2L operators are generated on the fly on GPU; storing
        them is the CPU-side trade-off, exposed for the ablation)."""
        total = (
            self.s2m.nbytes
            + self.m2m.nbytes
            + self.m2l_base.nbytes
            + self.s2t.nbytes
            + self.rho.nbytes
        )
        total += sum(a.nbytes for a in self.m2l_level.values())
        return total
