"""tools/gapsweep.py's statistics on hand-made gaps (no training)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gapsweep.py"
spec = importlib.util.spec_from_file_location("gapsweep", TOOL)
gapsweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gapsweep)


@pytest.mark.parametrize(
    "gaps, p",
    [
        ([0.1] * 5, 1 / 32),
        ([0.1, 0.1, 0.1, 0.1, -0.1], 6 / 32),
        ([0.1, 0.0, 0.0, -0.1], 3 / 4),  # zeros dropped: 1 positive of 2
        ([-0.1, -0.2], 1.0),
        ([0.0, 0.0], 1.0),  # no nonzero gap: no evidence either way
    ],
)
def test_sign_test_is_one_sided_and_drops_zero_gaps(gaps, p):
    assert gapsweep.sign_test_p(gaps) == pytest.approx(p)


def test_summary_counts_criterion_7_threshold_inclusively():
    rows = gapsweep.summary_rows([[0.05, 0.025, 0.1, -0.0125], [0.0, 0.0, 0.0, 0.0]])
    assert rows[0] == ["gap ≥ 0.05", "2/4", "0/4"]
    assert rows[1] == ["positive / negative / zero", "3 / 1 / 0", "0 / 0 / 4"]
    assert rows[2] == ["median gap", "+0.0375", "+0.0000"]
    assert rows[3] == ["sign test p (one-sided)", "0.31", "1"]


def test_markdown_table_has_a_header_rule():
    assert gapsweep.markdown([["a", "b"], ["1", "2"]]) == "| a | b |\n|---|---|\n| 1 | 2 |"
