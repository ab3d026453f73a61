"""In-memory spans around the public calls into each squadsim layer.

Used only by the traced benchmark process. ``Tracer.install`` replaces
public functions and methods of the squadsim modules with wrappers that
record a span per call; ``uninstall`` puts the originals back. Nothing
under ``src/`` knows about it.

A span is ``[name, start_ns, end_ns, parent_index]``; all spans of one
run share the run id given to ``begin_run``. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from squadsim import (adversary, baselines, consensus, crypto, engine, metrics,
                      raresync, runner, timebase, trace, viewcore)

_HOOKS = ("on_start", "on_deliver", "on_timer")
_SYNC = ("start", "on_view_timer", "on_dissemination_timer", "on_timer",
         "on_message")

# (owner, attribute names, span name). Methods are wrapped on the class
# that defines them, so subclasses that inherit one are covered once.
TARGETS = [
    (runner, ("build_simulation",), "runner.build_simulation"),
    (runner, ("build_report",), "metrics.report"),
    (adversary, ("worst_case", "randomized"), "adversary.scenario_build"),
    (engine.Simulation, ("run",), "engine.run"),
    (engine.Simulation, ("all_correct_decided",), "engine.stop_check"),
    (engine.ProcessContext, ("send", "broadcast"), "engine.send"),
    (engine.MaxDelayPolicy, ("deliver_at",), "adversary.delay"),
    (adversary.JitterDelayPolicy, ("deliver_at",), "adversary.delay"),
    (adversary.ScheduledReleasePolicy, ("deliver_at",), "adversary.delay"),
    (adversary.HoldUntilGstPolicy, ("deliver_at",), "adversary.delay"),
    (adversary.RandomizedPolicy, ("deliver_at",), "adversary.delay"),
    (adversary.SilentNode, _HOOKS, "adversary.node"),
    (adversary.SpamEnterEpochNode, _HOOKS, "adversary.node"),
    (adversary.CertAttackNode, _HOOKS, "adversary.node"),
    (consensus.ProtocolNode, _HOOKS, "consensus.node"),
    (consensus.CertPhase, ("start", "on_message"), "consensus.cert"),
    (raresync.RareSync, _SYNC, "raresync"),
    (baselines.AllToAllSync, _SYNC, "baselines"),
    (baselines.DoublingSync, _SYNC, "baselines"),
    (viewcore.ViewCore, ("init", "start_executing", "on_message"), "viewcore"),
    (crypto.CryptoSystem, ("share_sign",), "crypto.sign"),
    (crypto.CryptoSystem, ("share_verify", "combined_verify"), "crypto.verify"),
    (crypto.CryptoSystem, ("combine",), "crypto.combine"),
    (crypto.CryptoSystem, ("signers_for_digest",), "crypto.ledger"),
    (timebase.ClockModel, ("global_expiry",), "timebase.expiry"),
    (trace.Trace, ("serialize",), "trace.serialize"),
]

# Every checker is reached through these tables (``checks_for`` merges them).
CHECK_TABLES = (metrics.RARESYNC_CHECKS, metrics.CORE_CHECKS,
                metrics.GENERIC_CHECKS, metrics.CERT_CHECKS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attrs, name in TARGETS:
            for attr in attrs:
                if isinstance(owner, type) and attr not in vars(owner):
                    continue
                original = getattr(owner, attr)
                self._restore.append((setattr, owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
        for table in CHECK_TABLES:
            for check, fn in list(table.items()):
                self._restore.append((dict.__setitem__, table, check, fn))
                table[check] = self.wrap(f"metrics.check.{check}", fn)

    def uninstall(self) -> None:
        for put, owner, attr, original in reversed(self._restore):
            put(owner, attr, original)
        self._restore.clear()

    # -- runs ----------------------------------------------------------------

    def begin_run(self, run_id: str) -> None:
        if self._stack:
            raise RuntimeError("a span is still open")
        self.spans.clear()
        self.run_id = run_id

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    def dump(self, out) -> None:
        """Write the current run's spans as tab-separated lines:
        run id, span index, parent index, name, start ns, end ns."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            out.write(f"{self.run_id}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span, in ns."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


class Totals:
    """Per span name: number of calls, inclusive ns and self ns."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)

    def add(self, spans: list[list]) -> None:
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += own
