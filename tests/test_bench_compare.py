"""The verdict rules of scripts/bench_compare.py, on made-up run values."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "scripts" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


@pytest.mark.parametrize("change, better, verdict, won", [
    ([v * 1.3 for v in PARENT], "higher", "gain", 10),
    ([v / 1.3 for v in PARENT], "lower", "gain", 10),
    ([v * 0.7 for v in PARENT], "higher", "regression", 0),
    ([v + (1 if i % 2 else -1) for i, v in enumerate(PARENT)], "higher",
     "no regression", 5),
    ([130, 131, 129, 130, 132, 128, 130, 131, 129, 98], "higher", "gain", 9),
    ([130, 131, 129, 130, 132, 128, 130, 131, 97, 98], "higher", "no regression", 8),
])
def test_verdicts(change, better, verdict, won):
    out = bench_compare.compare(PARENT, change, better, 0.25)
    assert out["verdict"] == verdict
    assert out["pairs_won"] == won
    assert out["parent"]["median"] == 100


def test_wide_parent_spread_is_unresolved_unless_separated():
    parent = [50, 150, 60, 140, 100, 100, 55, 145, 100, 100]
    assert bench_compare.compare(parent, [v * 0.95 for v in parent], "higher",
                                 0.25)["verdict"] == "unresolved"
    assert bench_compare.compare(parent, [200 + i for i in range(10)], "higher",
                                 0.25)["verdict"] == "gain"
