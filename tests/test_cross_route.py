"""The paper's first theorem as a cross-route check: an ergodic system
has pure point spectrum exactly when its generic points are mean almost
periodic.  classify reaches the second half from orbit distances,
spectrum reaches the first from the Parseval defect; on one point the
two must never contradict."""

import numpy as np
import pytest

from apspectra.almost import (EVIDENCE_AGAINST, EVIDENCE_FOR, UNDECIDED,
                              ScanBudget, classify_point)
from apspectra.folner import EstimatorConfig, FolnerSchedule
from apspectra.points import (FIBONACCI_RULES, THUE_MORSE_RULES,
                              BernoulliPoint, BlockPoint, Observable,
                              PeriodicPoint, SturmianPoint, SubstitutionPoint)
from apspectra.spectral import NOT_PURE_POINT, PURE_POINT, spectral_report

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# point, indicated letter, and the mean verdict that theory and budget
# settle: None for the block point, whose letter frequencies oscillate
ROWS = {
    "periodic:AAB": (PeriodicPoint("AAB"), "A", EVIDENCE_FOR),
    "sturmian": (SturmianPoint(GOLDEN), "0", EVIDENCE_FOR),
    "fibonacci": (SubstitutionPoint(FIBONACCI_RULES, ("0", "0")), "0",
                  EVIDENCE_FOR),
    "thue-morse": (SubstitutionPoint(THUE_MORSE_RULES, ("0", "0")), "0",
                   EVIDENCE_AGAINST),
    "bernoulli:0.5:42": (BernoulliPoint(0.5, 42), "1", EVIDENCE_AGAINST),
    "block": (BlockPoint(), "1", None),
}


@pytest.mark.parametrize("name", ROWS)
def test_mean_verdict_never_contradicts_purity(name):
    x, letter, expected = ROWS[name]
    budget = ScanBudget(FolnerSchedule.intervals(base=500, n_max=8),
                        estimator=EstimatorConfig(convergence_tol=0.05),
                        bohr_horizon=128)
    mean = classify_point(x, [0.05, 0.1, 0.2], budget,
                          (-200, 200)).verdicts["mean"]
    purity = spectral_report(
        Observable.indicator(letter, x.alphabet), x,
        FolnerSchedule.intervals(base=2000, n_max=10), [8192, 16384, 32768],
        max_frequencies=16).purity
    assert mean in (EVIDENCE_FOR, EVIDENCE_AGAINST, UNDECIDED)
    if expected is not None:
        assert mean == expected
    if mean == EVIDENCE_FOR:
        assert purity != NOT_PURE_POINT
    if mean == EVIDENCE_AGAINST:
        assert purity != PURE_POINT
