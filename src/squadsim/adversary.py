"""Adversary machinery: scenario construction, network delay policies,
Byzantine process behaviors, and the node each process runs.

Scenarios are built constructively. The worst-case builder staggers when
correct processes begin the protocol across a window wider than 2*delta
(so no view of the first epoch can hold them all together for the
required overlap) and corrupts, silently, the leader of the epoch's last
view plus the leaders of the earliest views of the next epoch; round
robin then forces the run to grind through the maximum number of views
after GST before a correct leader meets a fully aligned epoch. The
non-adaptiveness scenario places three all-correct groups in different
views of one epoch at GST using clock drift alone. Every builder takes
``(n, seed, protocol, delta, gst=None, epsilon=None)``; ``gst=None`` means
the scenario's own default, and ``randomized`` rejects any other value
since it draws GST per seed. Horizons, GSTs and clock activations are
built from ``ScenarioConfig.view_duration``, the one place the view
duration is computed.

Delay policies choose each copy's delivery time from its send event; after
GST every choice is validated against the delta bound. All jittered
delays come from ``JitterDelayPolicy``; ``HoldUntilGstPolicy`` and
``RandomizedPolicy`` are presets of it. ``ScheduledReleasePolicy`` and the
engine's ``MaxDelayPolicy`` give exact delta delays.

``build_node`` builds every process's node: the protocol node for a correct
pid, and the node ``STRATEGIES[cfg.strategy]`` builds for a Byzantine one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .crypto import CryptoSystem, ThresholdSignature
from .engine import MaxDelayPolicy, Simulation
from .raresync import EnterEpochMsg, epoch_message, leader
from .timebase import ClockModel
from .trace import TraceEvent
from .viewcore import (PREPARE, CoreMessage, ViewCore)
from .consensus import (ANY_VALUE_TAG, PROTOCOLS, AllowAnyMsg, Certificate,
                        CertificateMsg, CertPhase, DiscloseMsg, ProtocolNode,
                        value_message)


# --------------------------------------------------------------------------
# Delay policies
# --------------------------------------------------------------------------

class JitterDelayPolicy:
    """Seeded jittered delays: one ``randrange`` step per send event.

    After GST the delay is ``delta * step / RES`` with step in 1..RES.
    Before GST the step lies in 1..``pre_gst_steps``; a payload of one of
    ``held_types`` is withheld until ``gst + delay``, anything else arrives
    at ``ev.time + delay`` but no later than ``gst + delta``. Like
    ``ScheduledReleasePolicy`` it reads the engine's ``sim.post_gst`` and
    keeps no per-run state.

    The delivery time is built as one ``Fraction`` from plain ints, the
    numerators and denominators of the base time and of ``delta``, and the
    pre-GST cap is an integer cross-product. No float and no ``Fraction``
    comparison takes part, so each result equals the rational formula
    above exactly.
    """

    RES = 64

    def __init__(self, held_types: tuple = (), pre_gst_steps: int = RES):
        self.held_types = held_types
        self.pre_gst_steps = pre_gst_steps

    def deliver_at(self, ev: TraceEvent, sim: Simulation) -> Fraction:
        post_gst = sim.post_gst
        step = sim.rng.randrange(1, (self.RES if post_gst else self.pre_gst_steps) + 1)
        held = not post_gst and isinstance(ev.payload, self.held_types)
        base = sim.gst if held else ev.time
        delta = sim.delta
        # base + delta * step / RES over a common denominator
        bd, dd = base.denominator, delta.denominator * self.RES
        num, den = base.numerator * dd + delta.numerator * step * bd, bd * dd
        if not (post_gst or held):
            gst = sim.gst
            gd, cd = gst.denominator, delta.denominator
            if num * gd * cd > (gst.numerator * cd + delta.numerator * gd) * den:
                return gst + delta
        return Fraction(num, den)


class HoldUntilGstPolicy(JitterDelayPolicy):
    """Jitter, with view-core messages sent before GST held until just after
    it: a scattered placement cannot finish a view pre-GST, so the decision
    can only come from synchronization after stabilization."""

    def __init__(self):
        super().__init__(held_types=ViewCore.MESSAGES)


class RandomizedPolicy(JitterDelayPolicy):
    """Jitter, with pre-GST delays of up to 4*delta (still capped at GST + delta)."""

    def __init__(self):
        super().__init__(pre_gst_steps=4 * JitterDelayPolicy.RES)


class ScheduledReleasePolicy:
    """Deliver selected pre-GST traffic at per-receiver release instants.

    Used by the certified worst case: certification messages sent before
    GST are withheld until the receiver's scheduled release time, which
    staggers when processes finish certification. Everything else gets
    the exact delta delay: the engine's ``sim.latest_delivery``, computed
    once per send instant, so every copy of a broadcast shares one
    delivery-time object. The GST test is the engine's ``sim.post_gst``
    too. The policy keeps no per-run state, so a config that holds it
    does not keep any run alive.
    """

    def __init__(self, releases: dict[int, Fraction], held_types: tuple):
        self.releases = releases
        self.held_types = held_types

    def deliver_at(self, ev: TraceEvent, sim: Simulation) -> Fraction:
        if (not sim.post_gst and isinstance(ev.payload, self.held_types)
                and ev.receiver in self.releases):
            return max(self.releases[ev.receiver], ev.time)
        return sim.latest_delivery


# --------------------------------------------------------------------------
# Nodes
# --------------------------------------------------------------------------

class SilentNode:
    def on_start(self, ctx) -> None: ...
    def on_deliver(self, ctx, sender: int, payload) -> None: ...
    def on_timer(self, ctx, kind: str) -> None: ...


class EquivocatingCore(ViewCore):
    """Leader behavior that proposes two different values to two halves.

    Everything else follows the protocol, which maximizes the chance of
    assembling conflicting quorums if vote handling were ever wrong.
    """

    def _on_view_change(self, ctx, sender, msg, state) -> None:
        if self.pid != leader(msg.view, self.n):
            return
        state.view_changes.setdefault(sender, (msg.qc, msg.cert))
        if len(state.view_changes) < self.quorum or PREPARE in state.broadcast_done:
            return
        state.broadcast_done.add(PREPARE)
        value_a, value_b = self.proposal, -msg.view
        half = self.n // 2
        for receiver in range(1, self.n + 1):
            value = value_a if receiver <= half else value_b
            ctx.send(receiver, CoreMessage(PREPARE, msg.view, value=value,
                                           qc=None, cert=self.my_cert))
        # stays silent for the rest of the view: no QC is ever combined


class SpamEnterEpochNode:
    """Floods forged ENTER-EPOCH messages; correct processes drop them all."""

    def __init__(self, f: int, delta: Fraction):
        self.f = f
        self.delta = Fraction(delta)
        self.tick = 0

    def on_start(self, ctx) -> None:
        ctx.measure("baseline_timer", self.delta)

    def on_deliver(self, ctx, sender: int, payload) -> None: ...

    def on_timer(self, ctx, kind: str) -> None:
        self.tick += 1
        epoch = 1000 + self.tick
        forged = ThresholdSignature(epoch_message(epoch - 1),
                                    frozenset(range(1, 2 * self.f + 2)), "quorum")
        ctx.broadcast(EnterEpochMsg(epoch, forged))
        if self.tick < 40:
            ctx.measure("baseline_timer", self.delta)


class CertAttackNode:
    """Tries every illegal certification move available to the adversary."""

    EVIL = -99   # the value it tries to get certified

    def __init__(self, pid: int, f: int):
        self.pid = pid
        self.f = f

    def on_start(self, ctx) -> None:
        psig = ctx.crypto.share_sign(self.pid, value_message(self.EVIL), "cert")
        ctx.broadcast(DiscloseMsg(self.EVIL, psig))
        any_psig = ctx.crypto.share_sign(self.pid, ANY_VALUE_TAG, "cert")
        ctx.broadcast(AllowAnyMsg(any_psig))
        forged = ThresholdSignature(value_message(self.EVIL),
                                    frozenset(range(1, self.f + 2)), "cert")
        ctx.broadcast(CertificateMsg(self.EVIL, Certificate(self.EVIL, forged)))

    def on_deliver(self, ctx, sender: int, payload) -> None: ...
    def on_timer(self, ctx, kind: str) -> None: ...


def protocol_node(cfg: ScenarioConfig, pid: int, crypto: CryptoSystem,
                  core_factory=None) -> ProtocolNode:
    """The protocol node of ``cfg.protocol`` at ``pid``."""
    synchronizer, certified = PROTOCOLS[cfg.protocol]
    return ProtocolNode(
        pid, cfg.n, cfg.f, crypto, cfg.proposals[pid],
        synchronizer=synchronizer, delta=cfg.delta,
        view_duration=cfg.view_duration,
        certified=certified, core_factory=core_factory)


# strategy name -> the Byzantine node it runs, built from (cfg, pid, crypto)
STRATEGIES = {
    "silent": lambda cfg, pid, crypto: SilentNode(),
    "equivocate": lambda cfg, pid, crypto: protocol_node(cfg, pid, crypto, EquivocatingCore),
    "spam_enter_epoch": lambda cfg, pid, crypto: SpamEnterEpochNode(cfg.f, cfg.delta),
    "cert_attack": lambda cfg, pid, crypto: CertAttackNode(pid, cfg.f),
}


def build_node(cfg: ScenarioConfig, pid: int, crypto: CryptoSystem):
    """The node at ``pid``: its strategy's if Byzantine, else the protocol node."""
    build = STRATEGIES[cfg.strategy] if pid in cfg.byzantine else protocol_node
    return build(cfg, pid, crypto)


# --------------------------------------------------------------------------
# Scenario configuration
# --------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    name: str
    protocol: str                 # a key of consensus.PROTOCOLS
    n: int
    f: int
    delta: Fraction
    gst: Fraction
    epsilon: Fraction
    seed: int
    byzantine: frozenset[int]
    strategy: str                 # a key of STRATEGIES
    proposals: dict[int, int]
    start_times: dict[int, Fraction]
    clocks: dict[int, ClockModel]
    policy: object
    horizon_slack: int = 40       # deltas of run time past three epochs after GST

    @property
    def overlap(self) -> Fraction:
        return 8 * self.delta

    @property
    def view_duration(self) -> Fraction:
        """The one view-duration formula: every synchronizer timer and
        every latency bound is a multiple of it."""
        return self.overlap + 2 * self.delta + self.epsilon

    @property
    def epoch_duration(self) -> Fraction:
        return (self.f + 1) * self.view_duration

    @property
    def horizon(self) -> Fraction:
        return self.gst + 3 * self.epoch_duration + self.horizon_slack * self.delta

    def validate(self) -> None:
        """The one check of every scenario value; each builder ends with it."""
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n != 3 * self.f + 1:
            raise ValueError(f"n={self.n} is not 3f+1")
        if len(self.byzantine) > self.f:
            raise ValueError("byzantine set exceeds f")
        pids = set(range(1, self.n + 1))
        if not self.byzantine <= pids:
            raise ValueError(f"byzantine ids {sorted(self.byzantine - pids)} "
                             f"outside 1..{self.n}")
        for what, keyed in (("clock", self.clocks), ("start", self.start_times)):
            if set(keyed) != pids:
                raise ValueError(f"{what} ids {sorted(keyed)} are not 1..{self.n}")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.gst < 0:
            raise ValueError("GST must be nonnegative")
        if self.epsilon < 0:
            # the view_overlap argument needs views of at least overlap + 2*delta
            raise ValueError("epsilon must be nonnegative")
        if any(t > self.gst for t in self.start_times.values()):
            raise ValueError("all processes must start by GST")
        if any(t < 0 for t in self.start_times.values()):
            raise ValueError("start times must be nonnegative")
        for clock in self.clocks.values():
            clock.validate(self.gst)


def _f_of(n: int) -> int:
    f, rem = divmod(n - 1, 3)
    if rem != 0 or f < 1:
        raise ValueError(f"n={n} is not 3f+1 with f >= 1")
    return f


def _sizes(n: int, delta, epsilon) -> tuple[int, Fraction, Fraction]:
    """f, and delta and epsilon (default delta/100) as exact values."""
    delta = Fraction(delta)
    return _f_of(n), delta, delta / 100 if epsilon is None else Fraction(epsilon)


def happy(n: int, seed: int, protocol: str = "raresync-quad",
          delta=Fraction(1), gst=None, epsilon=None) -> ScenarioConfig:
    """All correct, synchronized start at GST (default 50), jittered legal delays."""
    f, delta, epsilon = _sizes(n, delta, epsilon)
    gst = Fraction(50 if gst is None else gst)
    cfg = ScenarioConfig(
        name="happy", protocol=protocol, n=n, f=f, delta=delta, gst=gst,
        epsilon=epsilon, seed=seed, byzantine=frozenset(), strategy="silent",
        proposals={p: 100 + p for p in range(1, n + 1)},
        start_times={p: gst for p in range(1, n + 1)},
        clocks={p: ClockModel.constant(p) for p in range(1, n + 1)},
        policy=JitterDelayPolicy())
    cfg.validate()
    return cfg


def _stagger_offsets(correct: list[int], delta: Fraction, seed: int) -> dict[int, Fraction]:
    """Offsets before GST spanning (2*delta, 3*delta]: wide enough that no
    view of the straddled epoch can hold every correct process for the
    overlap, narrow enough to stay within the entry-alignment bounds."""
    rng = random.Random(seed * 7919 + 13)
    lo, hi = delta / 2, 3 * delta
    span = hi - lo
    offsets = {}
    for rank, pid in enumerate(sorted(correct)):
        base = lo + span * Fraction(rank, max(1, len(correct) - 1))
        jitter = delta * Fraction(rng.randrange(0, 16), 16 * 20)
        offsets[pid] = min(hi, base + jitter) if rank < len(correct) - 1 else hi
    return offsets


def worst_case(n: int, seed: int, protocol: str = "squad",
               delta=Fraction(1), gst=None, epsilon=None) -> ScenarioConfig:
    """Maximum-latency construction for the epoch-based synchronizer.

    Correct processes reach the first epoch staggered across ~2.5*delta,
    so its views never overlap long enough; the silent Byzantine set
    covers the one view in which everyone provably dwells (the epoch's
    last) and the earliest views of the following epoch. GST defaults to
    the larger of 50 and 5*delta; an explicit GST below 5*delta is a
    ``ValueError``.
    """
    f, delta, epsilon = _sizes(n, delta, epsilon)
    gst = max(Fraction(50), 5 * delta) if gst is None else Fraction(gst)
    # a bad delta is left to validate, which names it
    if delta > 0 and gst < 5 * delta:
        raise ValueError(f"worst_case needs gst >= 5*delta = {5 * delta}, got {gst}")
    # an unknown protocol gets the default placement; validate refuses it
    synchronizer, certified = PROTOCOLS.get(protocol, (None, False))
    if synchronizer == "alltoall":
        # quorum-gated view exits realign everyone each view; the first f
        # views after the initial one are the ones to corrupt
        byz = frozenset(leader(v, n) for v in range(1, f + 1))
    else:
        last_of_first_epoch = f + 1
        byz = frozenset([leader(last_of_first_epoch, n)]
                        + [leader(v, n) for v in range(f + 2, 2 * f + 1)])
    correct = [p for p in range(1, n + 1) if p not in byz]
    offsets = _stagger_offsets(correct, delta, seed)

    starts: dict[int, Fraction] = {}
    releases: dict[int, Fraction] = {}
    if certified:
        # everyone starts early; certification traffic is withheld per
        # receiver so consensus begins at gst - offset
        for p in range(1, n + 1):
            starts[p] = gst - 4 * delta
        for p, off in offsets.items():
            releases[p] = gst - off
        policy = ScheduledReleasePolicy(releases, CertPhase.MESSAGES)
    else:
        for p in range(1, n + 1):
            starts[p] = gst - offsets.get(p, delta / 2)
        policy = MaxDelayPolicy()

    cfg = ScenarioConfig(
        name="worst_case", protocol=protocol, n=n, f=f, delta=delta, gst=gst,
        epsilon=epsilon, seed=seed, byzantine=byz, strategy="silent",
        proposals={p: 7 for p in range(1, n + 1)},
        start_times=starts,
        clocks={p: ClockModel.constant(p) for p in range(1, n + 1)},
        policy=policy)
    cfg.validate()
    return cfg


def scenario_s(n: int, seed: int, protocol: str = "raresync-quad",
               delta=Fraction(1), gst=None, epsilon=None) -> ScenarioConfig:
    """Three all-correct groups sit in different views of one epoch at GST.

    Group A (f processes) is in the epoch's first view, group B (f) in the
    second, group C (f+1) in the third (for f = 1, whose epochs have only
    two views, C shares the second). Placement is done purely with clock
    drift: everyone starts at time 0 with a near-zero rate and speeds up
    to rate 1 at a staggered activation instant. Synchronization inside
    that epoch is impossible; it lands in the next one, after the full
    epoch-boundary exchange. GST defaults to 3 views plus delta, its
    minimum; an explicit GST below that is a ``ValueError``.
    """
    f, delta, epsilon = _sizes(n, delta, epsilon)
    pids = list(range(1, n + 1))
    cfg = ScenarioConfig(
        name="scenario_s", protocol=protocol, n=n, f=f, delta=delta,
        gst=Fraction(0), epsilon=epsilon, seed=seed, byzantine=frozenset(),
        strategy="silent", proposals={p: 200 + p for p in pids},
        start_times={p: Fraction(0) for p in pids}, clocks={},
        policy=HoldUntilGstPolicy())
    view_d = cfg.view_duration
    earliest = 3 * view_d + delta
    cfg.gst = earliest if gst is None else Fraction(gst)
    if delta > 0 and cfg.gst < earliest:
        raise ValueError(f"scenario_s needs gst >= three views plus delta = "
                         f"{earliest}, got {cfg.gst}")

    # Group A lags in the first view, B in the second, C (f+1 processes) in
    # the third (for f = 1, whose epochs have two views, C shares the
    # second). Groups that finish the epoch dwell in its last view, f+1,
    # until the boundary quorum forms; the leader of that view is assigned
    # to A so the dwellers cannot assemble a full four-phase run before the
    # epoch boundary pulls everyone forward.
    dwell_view = f + 1
    dwell_leader = leader(dwell_view, n)
    ordered = [dwell_leader] + [p for p in pids if p != dwell_leader]
    group_view = {}
    for i, p in enumerate(ordered):
        if i < f:
            group_view[p] = 1
        elif i < 2 * f:
            group_view[p] = 2
        else:
            group_view[p] = min(3, f + 1)
    slow = Fraction(1, 1024)
    for p in pids:
        k = group_view[p]
        activation = cfg.gst - (k - 1) * view_d - view_d / 2
        cfg.clocks[p] = ClockModel.piecewise(p, [(Fraction(0), slow),
                                                 (activation, Fraction(1))], cfg.gst)
    cfg.validate()
    return cfg


def equivocate(n: int, seed: int, protocol: str = "raresync-quad",
               delta=Fraction(1), gst=None, epsilon=None) -> ScenarioConfig:
    """Synchronized start with the first view's leader equivocating."""
    cfg = happy(n, seed, protocol, delta, gst, epsilon)
    cfg.name = "equivocate"
    cfg.byzantine = frozenset([leader(1, n)])
    cfg.strategy = "equivocate"
    cfg.validate()
    return cfg


def randomized(n: int, seed: int, protocol: str = "raresync-quad",
               delta=Fraction(1), gst=None, epsilon=None) -> ScenarioConfig:
    """Seeded random starts, drift, delays and Byzantine strategy.

    GST is drawn per seed, so an explicit ``gst`` is an error.
    """
    if gst is not None:
        raise ValueError("an explicit gst does not apply to scenario random: "
                         "this scenario draws its GST per seed")
    f, delta, epsilon = _sizes(n, delta, epsilon)
    rng = random.Random(seed * 104729 + n)
    gst = delta * (5 + rng.randrange(0, 20 * (f + 1)))
    starts = {p: gst * Fraction(rng.randrange(0, 64), 64) for p in range(1, n + 1)}
    rates = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    clocks = {p: ClockModel.drift_until(p, rng.choice(rates), gst)
              for p in range(1, n + 1)}
    n_byz = rng.randrange(0, f + 1)
    byz = frozenset(rng.sample(range(1, n + 1), n_byz))
    strategy = rng.choice(["silent", "equivocate", "spam_enter_epoch"])
    if rng.randrange(2) == 0:
        proposals = {p: 7 for p in range(1, n + 1)}
    else:
        proposals = {p: rng.randrange(0, 5) for p in range(1, n + 1)}
    cfg = ScenarioConfig(
        name="random", protocol=protocol, n=n, f=f, delta=delta, gst=gst,
        epsilon=epsilon, seed=seed, byzantine=byz, strategy=strategy,
        proposals=proposals, start_times=starts, clocks=clocks,
        policy=RandomizedPolicy(), horizon_slack=60)
    cfg.validate()
    return cfg


def _per_pid(spec: str, n: int) -> dict[int, Fraction]:
    """'value' (every pid 1..n) and 'pid:value' parts; later parts win."""
    out = {}
    for part in spec.split(","):
        if ":" in part:
            pid, value = part.split(":")
            out[int(pid)] = Fraction(value)
        else:
            out.update(dict.fromkeys(range(1, n + 1), Fraction(part)))
    return out


SCENARIO_KEYS = ("byzantine", "strategy", "proposals", "drift", "policy", "start")

# custom_file's policy names -> the delay policy each builds
POLICIES = {"max": MaxDelayPolicy, "jitter": JitterDelayPolicy,
            "random": RandomizedPolicy}


def custom_file(fields: dict[str, str], n: int, seed: int, protocol: str,
                delta=Fraction(1), gst=None, epsilon=None) -> ScenarioConfig:
    """Scenario described by the key=value pairs of a flat file.

    Recognized keys: byzantine (comma-separated ids), strategy, proposals
    (an integer for unanimity or 'distinct'), drift (single pre-GST rate or
    'pid:rate' pairs), policy (a key of ``POLICIES``), start (single time
    or 'pid:time' pairs, all at most GST). Everything else is ``happy``'s.
    """
    cfg = happy(n, seed, protocol, delta, gst, epsilon)
    cfg.name = "custom-file"
    if fields.get("byzantine"):
        cfg.byzantine = frozenset(int(s) for s in fields["byzantine"].split(","))
    cfg.strategy = fields.get("strategy", "silent")
    proposals = fields.get("proposals", "distinct")
    if proposals != "distinct":
        cfg.proposals = {p: int(proposals) for p in range(1, n + 1)}
    if "drift" in fields:
        cfg.clocks = {**cfg.clocks, **{
            p: ClockModel.drift_until(p, rate, cfg.gst)
            for p, rate in _per_pid(fields["drift"], n).items()}}
    if "start" in fields:
        cfg.start_times = {**cfg.start_times, **_per_pid(fields["start"], n)}
    policy = fields.get("policy", "jitter")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    cfg.policy = POLICIES[policy]()
    cfg.validate()
    return cfg


BUILDERS = {"happy": happy, "worst_case": worst_case, "scenario_s": scenario_s,
            "equivocate": equivocate, "random": randomized}
