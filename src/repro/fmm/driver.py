"""Algorithm 1 written once: the stage order and each stage's data path.

:func:`drive_fmm` is the only place that names the order S2M → … → L2T.
It knows nothing about where a stage runs: it hands every stage to an
``issue(stage, level, *tokens) -> token`` callback with the tokens of
the stages it depends on, the way boxtree's ``drive_fmm`` drives an
expansion wrangler.  The host executor's ``issue`` runs the stage's data
path on the spot and its tokens are ``None``; the cluster executor's
prices the stage, launches it on every device after the events its
tokens hold, and returns the completion events.

:class:`PassState` is the data path both share: the planar tensors of
one pass over ``G`` contiguous slabs of the global box axis, one
:mod:`repro.fmm.kernels` call per stage.  A slab sees its neighbours
only through the halo a COMM stage recorded — ``G = 1`` is the cyclic
single-device case, not a separate path.
"""

from __future__ import annotations

import numpy as np

from repro.fmm import kernels
from repro.fmm.plan import FmmOperators
from repro.fmm.tree import Tree1D
from repro.util.validation import ParameterError


def drive_fmm(tree: Tree1D, issue):
    """Issue Algorithm 1 lines 1-14 in order; returns L2T's token.

    Stages and their levels: ``S2M``, ``COMM-S``, ``S2T`` at the leaf
    level L; ``M2M`` at the level it produces; ``COMM-M`` and ``M2L`` at
    each cousin-list level; ``COMM-MB``, ``M2L-B``, ``REDUCE`` at the
    base level B; ``L2L`` at the level it reads (writing level + 1);
    ``L2T`` at L.
    """
    L, B = tree.L, tree.B
    m = {L: issue("S2M", L)}
    near = issue("S2T", L, issue("COMM-S", L))
    for ell in tree.levels_m2m():
        m[ell] = issue("M2M", ell, m[ell + 1])
    loc = {ell: issue("M2L", ell, issue("COMM-M", ell, m[ell]))
           for ell in tree.levels_m2l()}
    base = issue("COMM-MB", B, m[B])
    down = issue("M2L-B", B, base)
    issue("REDUCE", B, base)
    for ell in tree.levels_l2l():
        # the destination level's own M2L must also be done
        down = issue("L2L", ell, down, loc[ell + 1])
    return issue("L2T", L, down, near)


class PassState:
    """The planar tensors of one FMM pass (see :mod:`repro.fmm.kernels`
    for the layout) and the one data path of every stage.

    ``S`` is the folded input rows ``p >= 1``; ``M``/``L`` hold the
    multipole/local expansions per level, ``halo`` what each COMM stage
    moved (``"S"``, ``"M<level>"``), ``MB`` the gathered base
    multipoles, ``T`` the output rows and ``r`` the reduction vector.
    """

    def __init__(self, ops: FmmOperators, S: np.ndarray | None = None, G: int = 1):
        self.ops, self.S, self.G = ops, S, G
        self.T = self.MB = self.r = None
        self.M: dict[int, np.ndarray] = {}
        self.L: dict[int, np.ndarray] = {}
        self.halo: dict[str, kernels.Halo] = {}

    def run(self, stage: str, ell: int, *_tokens) -> None:
        """One stage at one level (the host executor's ``issue``).
        The driver's order guarantees producers ran first."""
        o = self.ops
        if stage == "S2M":
            self.M[ell] = kernels.s2m(o, self.S)
        elif stage == "COMM-S":
            self.halo["S"] = kernels.halos(self.S, self.G, Tree1D.S_HALO)
        elif stage == "S2T":
            self.T = kernels.s2t(o, self.S, self.halo["S"])
        elif stage == "M2M":
            self.M[ell] = kernels.m2m(o, self.M[ell + 1])
        elif stage == "COMM-M":
            self.halo[f"M{ell}"] = kernels.halos(self.M[ell], self.G, Tree1D.M_HALO)
        elif stage == "M2L":
            self.L[ell] = kernels.m2l_level(o, self.M[ell], ell, self.halo[f"M{ell}"])
        elif stage == "COMM-MB":
            self.MB = self.M[ell]  # the box axis is already global
        elif stage == "M2L-B":
            self.L[ell] = kernels.m2l_base(o, self.MB)
        elif stage == "REDUCE":
            self.r = kernels.reduce(self.MB)
        elif stage == "L2L":
            self.L[ell + 1] += kernels.l2l(o, self.L[ell])
        elif stage == "L2T":
            self.T += kernels.l2t(o, self.L[ell])
        else:
            raise ParameterError(f"unknown FMM stage {stage!r}")
