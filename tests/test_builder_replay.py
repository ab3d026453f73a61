"""Replays the scenario builders that ``perfbench/reference.json`` does not
cover and requires byte-identical output.

``tests/builder_reference.json`` holds, per run key
``builder/protocol/nN/sS``, the CSV row, the event count and the SHA-256
of the serialized trace. The builders are ``happy``, ``equivocate``,
``scenario_s`` and ``custom-file`` (an empty file: jittered delays), each
at n = 4 and 7, plus three ``custom-file`` mixes of Byzantine processes,
clock drift and start times, one per delay policy the file can name.
Each builder is called through the uniform positional signature
``(n, seed, protocol, delta, gst, epsilon)`` with its default values.
Rerun only when a change is meant to alter traces or CSV rows:

    PYTHONPATH=src python3 tests/test_builder_replay.py
"""

import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from squadsim import adversary, run_scenario

REFERENCE = Path(__file__).resolve().parent / "builder_reference.json"
PROTOCOLS = ("raresync-quad", "squad", "alltoall", "doubling")
SEEDS = (0, 1)
MIXES = {
    "custom-jitter": {"policy": "jitter", "byzantine": "2",
                      "strategy": "spam_enter_epoch", "drift": "1:1/2,3:2",
                      "start": "1:40"},
    "custom-random": {"policy": "random", "byzantine": "3",
                      "strategy": "equivocate", "drift": "1/2",
                      "proposals": "9", "start": "30,2:35"},
    "custom-max": {"policy": "max", "byzantine": "4", "strategy": "cert_attack",
                   "drift": "2:3", "start": "45"},
}


def run_keys() -> list[str]:
    keys = [f"{builder}/{protocol}/n{n}/s{seed}"
            for builder in ("happy", "equivocate", "scenario_s", "custom-file")
            for protocol in PROTOCOLS for n in (4, 7) for seed in SEEDS]
    keys += [f"{mix}/{protocol}/n4/s{seed}"
             for mix in MIXES for protocol in PROTOCOLS for seed in SEEDS]
    return keys


def build(key: str):
    builder, protocol, n, seed = key.split("/")
    n, seed = int(n.removeprefix("n")), int(seed.removeprefix("s"))
    if builder == "custom-file" or builder in MIXES:
        make = functools.partial(adversary.custom_file, MIXES.get(builder, {}))
        gst = Fraction(50)
    else:
        make = adversary.BUILDERS[builder]
        gst = None if builder == "scenario_s" else Fraction(50)
    return make(n, seed, protocol, Fraction(1), gst, None)


def outcome(key: str) -> dict:
    result = run_scenario(build(key))
    trace = result.trace
    return {"csv": result.report.csv_row(), "events": len(trace.events),
            "sha256": trace.sha256()}


@pytest.mark.parametrize("key", run_keys())
def test_builder_run_matches_recorded_run(key):
    assert outcome(key) == json.loads(REFERENCE.read_text())[key]


if __name__ == "__main__":
    runs = {key: outcome(key) for key in run_keys()}
    REFERENCE.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {REFERENCE}")
