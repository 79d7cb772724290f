"""The verdicts of tools/bench_pairs.py's ``summarize`` on hand-made run lists.

``summarize`` decides what a change may claim from alternating benchmark runs: wins
per pair, whether the change is worse than a metric's bound, and whether a gain can
be claimed.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

LOWER = {"name": "op_ms_p50", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rows_per_s", "better": "higher", "bound": 0.25}

# parent runs whose interquartile range is 5.5 (quartiles 101.75 and 107.25)
PARENT = [100.0 + i for i in range(10)]


@pytest.fixture()
def summarize(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ untouched
    import bench_pairs

    return bench_pairs.summarize


def better_by(metric, gap, parent=PARENT, wins=None):
    """The parent's runs moved ``gap`` in the metric's better direction.  With ``wins``,
    only that many of its best runs move and the rest tie, which keeps the two medians
    ``gap`` apart."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    moved = sorted(range(len(parent)), key=lambda i: sign * parent[i])[:wins]
    return [p - sign * gap if i in moved else p for i, p in enumerate(parent)]


@pytest.mark.parametrize("metric", [LOWER, HIGHER], ids=["lower", "higher"])
class TestWins:
    def test_ties_count_for_neither_side(self, summarize, metric):
        row = summarize(metric, PARENT, list(PARENT))
        assert row["wins"] == 0 and row["claim"] is False and not row["worse_than_bound"]
        assert row["paired_diff"] == 0.0

    def test_only_pairs_the_change_wins_count(self, summarize, metric):
        change = better_by(metric, 1.0)[:4] + PARENT[4:7] + better_by(metric, -1.0)[7:]
        assert summarize(metric, PARENT, change)["wins"] == 4


@pytest.mark.parametrize("metric", [LOWER, HIGHER], ids=["lower", "higher"])
class TestClaim:
    def test_ten_wins_and_a_gap_wider_than_the_iqr_claim(self, summarize, metric):
        row = summarize(metric, PARENT, better_by(metric, 6.0))
        assert row["parent_iqr"] == 5.5
        assert row["wins"] == 10 and row["claim"] is True

    def test_nine_wins_of_ten_claim(self, summarize, metric):
        row = summarize(metric, PARENT, better_by(metric, 6.0, wins=9))
        assert row["wins"] == 9 and abs(row["change"] - row["parent"]) == 6.0
        assert row["claim"] is True

    def test_eight_wins_of_ten_do_not_claim(self, summarize, metric):
        row = summarize(metric, PARENT, better_by(metric, 6.0, wins=8))
        assert row["wins"] == 8 and abs(row["change"] - row["parent"]) == 6.0
        assert row["claim"] is False

    def test_a_gap_within_the_iqr_does_not_claim(self, summarize, metric):
        row = summarize(metric, PARENT, better_by(metric, 5.0))
        assert row["wins"] == 10 and row["claim"] is False

    def test_fewer_than_ten_pairs_cannot_claim(self, summarize, metric):
        parent = PARENT[:9]
        row = summarize(metric, parent, better_by(metric, 50.0, parent))
        assert row["wins"] == 9 and row["claim"] is None


@pytest.mark.parametrize("metric,change,worse", [
    (LOWER, 126.0, True), (LOWER, 124.0, False), (LOWER, 50.0, False),
    (HIGHER, 74.0, True), (HIGHER, 76.0, False), (HIGHER, 150.0, False),
], ids=["lower-beyond", "lower-within", "lower-better",
        "higher-beyond", "higher-within", "higher-better"])
def test_worse_than_bound_is_a_fraction_of_the_parent_median(summarize, metric, change,
                                                             worse):
    """The bound is 25% of the parent's median of 100, counted in the worse direction."""
    row = summarize(metric, [100.0] * 10, [change] * 10)
    assert row["worse_than_bound"] is worse
    assert row["paired_diff"] == change - 100.0
