"""Replays recorded runs and requires byte-identical output.

``perfbench/reference.json`` holds, per run key ``builder/protocol/nN/sS``,
the CSV row, the SHA-256 of the serialized trace and the event count of
that run. Every recorded run with n <= 13 is replayed here, plus one
n = 49 run per worst-case protocol, so a change to the event loop, the
trace format or a handler that alters any trace byte fails tier-1.
The file is only read.
"""

import json
from pathlib import Path

import pytest

from squadsim import adversary, run_scenario

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
RUNS = json.loads(REFERENCE.read_text())["runs"]
LARGE_KEYS = ("worst_case/squad/n49/s0", "worst_case/alltoall/n49/s0")


def parse_key(key: str) -> tuple[str, str, int, int]:
    builder, protocol, n, seed = key.split("/")
    return builder, protocol, int(n.removeprefix("n")), int(seed.removeprefix("s"))


@pytest.mark.parametrize("key", sorted(k for k in RUNS if parse_key(k)[2] <= 13
                                        or k in LARGE_KEYS))
def test_replay_matches_recorded_run(key):
    builder, protocol, n, seed = parse_key(key)
    result = run_scenario(getattr(adversary, builder)(n, seed, protocol))
    trace = result.trace
    assert result.report.csv_row() == RUNS[key]["csv"]
    assert len(trace.events) == RUNS[key]["events"]
    assert trace.sha256() == RUNS[key]["sha256"]
