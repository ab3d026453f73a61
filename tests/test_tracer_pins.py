"""The benchmark tracer's class pins still match the delay policies.

``perfbench/tracing.py`` names each delay-policy class in ``TARGETS`` and
wraps ``deliver_at`` on the class that defines it. A pinned class that is
deleted breaks ``perfbench/run.py --trace 1``; one that becomes an alias
of another pinned class is wrapped twice and counts each call twice. One
small run per delay-policy class checks that ``adversary.delay`` records
exactly one span per send call (the engine asks the policy once per call,
and logs each call as one ``SendCall``), and that ``uninstall`` puts every
original back. Every span name must also wrap at least one callable its
owner defines, so no span silently reads 0 after a refactor; the listed
gaps are the exceptions. The tracer's source is read, never imported from
its directory, so nothing is written there.
"""

import types
from pathlib import Path

import pytest

from squadsim import adversary, engine, run_scenario
from squadsim.trace import SendCall

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def originals(tracing) -> list:
    found = [(owner, attr, vars(owner).get(attr) if isinstance(owner, type)
              else getattr(owner, attr))
             for owner, attrs, _ in tracing.TARGETS for attr in attrs]
    found += [(table, check, fn) for table in tracing.CHECK_TABLES
              for check, fn in table.items()]
    return found


# one builder per delay-policy class; random seed 1 has an equivocating
# Byzantine process, so its ``byz`` emissions are counted too
RUNS = [
    (engine.MaxDelayPolicy, lambda: adversary.worst_case(4, 0, "alltoall")),
    (adversary.ScheduledReleasePolicy, lambda: adversary.worst_case(4, 0, "squad")),
    (adversary.JitterDelayPolicy, lambda: adversary.happy(4, 0)),
    (adversary.HoldUntilGstPolicy, lambda: adversary.scenario_s(4, 0)),
    (adversary.RandomizedPolicy, lambda: adversary.randomized(4, 1)),
]


@pytest.mark.parametrize("policy, build", RUNS, ids=[p.__name__ for p, _ in RUNS])
def test_one_delay_span_per_send_and_clean_uninstall(policy, build):
    tracing = load_tracing()
    cfg = build()
    assert type(cfg.policy) is policy
    before = originals(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_run("pin")
        trace = run_scenario(cfg).trace
    finally:
        tracer.uninstall()
    delays = sum(1 for span in tracer.spans if span[0] == "adversary.delay")
    calls = sum(1 for entry in trace.log if type(entry) is SendCall)
    assert delays == calls > 0
    for owner, key, original in before:
        if isinstance(owner, dict):
            assert owner[key] is original, key
        elif isinstance(owner, type):
            assert vars(owner).get(key) is original, (owner, key)
        else:
            assert getattr(owner, key) is original, (owner, key)


# spans that wrap nothing: the run loop tests the undecided count inline,
# and ``Simulation.all_correct_decided`` is gone
SPAN_GAPS = {"engine.stop_check"}


def test_every_span_wraps_a_callable_its_owner_defines():
    tracing = load_tracing()
    names = {name for _, _, name in tracing.TARGETS}
    # a class's own attributes, as ``install`` wraps them, or a module's names
    wrapping = {name for owner, attrs, name in tracing.TARGETS
                if any(callable(vars(owner).get(attr)) for attr in attrs)}
    assert names - wrapping == SPAN_GAPS
