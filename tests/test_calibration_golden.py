"""Golden calibration guard, one test per frozen Figure 3 cell.

The simulator's constants the paper does not print were fitted once
against Figure 3 and frozen.  The bands live in
:data:`repro.figures.FIG3_BANDS` (the ``fig3_bands_*`` rows of the
report); these tests pin each cell on its own so an accidental re-tune,
or an engine change that shifts schedules, names the cell it moved.
"""

import pytest

from repro.figures import FIG3_BANDS, TESTBEDS, _fastest

CELLS = sorted((system, q) for system, cells in FIG3_BANDS.items() for q in cells)


@pytest.mark.parametrize("system,q", CELLS)
def test_calibrated_speedup_band(system, q):
    lo, hi = FIG3_BANDS[system][q]
    s = _fastest(system, "complex128", q).speedup
    assert lo <= s <= hi, (
        f"{system} N=2^{q}: speedup {s:.3f} left the calibrated "
        f"band [{lo}, {hi}] — did a simulator constant change?"
    )


def test_ordering_invariants():
    """The qualitative Figure 3 facts that must never regress."""
    s2, s8, sk = (_fastest(s, "complex128", 26).speedup for s in ("2xP100", "8xP100", "2xK40c"))
    assert set(TESTBEDS) == {"2xP100", "8xP100", "2xK40c"}
    assert s8 > s2 > sk          # gains grow with interconnect weakness
    assert s8 > 1.6              # the headline ~2x at 8 GPUs
    assert sk > 0.95             # K40 never loses badly at large N
