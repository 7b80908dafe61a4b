"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.plan import FmmFftPlan
from repro.fmm.plan import FmmOperators
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node

# The tier-1 gate is deterministic: every run draws the same examples and
# none is replayed from a local, git-ignored database, so a green run is
# the same run on every checkout.  The randomized search is a separate,
# non-gating CI step (``--hypothesis-profile=search``); what it finds is
# committed as an ``@example`` on the test.  tools/lint.py holds test
# modules to this (``deterministic-time`` under ``tests/``).
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("search", database=None, deadline=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_plan():
    """A small but non-trivial FMM-FFT plan (N = 4096)."""
    return FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16)


@pytest.fixture
def small_ops():
    """Operators for a small FMM batch."""
    return FmmOperators.create(M=256, P=8, ML=16, B=2, Q=16)


def make_cluster(G: int = 2, execute: bool = True) -> VirtualCluster:
    return VirtualCluster(p100_nvlink_node(G), execute=execute)


@pytest.fixture
def cluster2():
    return make_cluster(2)


@pytest.fixture
def cluster4():
    return make_cluster(4)
