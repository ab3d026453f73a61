from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from squadsim.baselines import AllToAllSync, DoublingSync, WishMsg
from squadsim.crypto import CryptoSystem
from tests.conftest import FakeContext

DELTA = Fraction(1)
OVERLAP = Fraction(8)
EPS = Fraction(1, 100)
VIEW = OVERLAP + 2 * DELTA + EPS


def make_a2a(crypto):
    log = []
    sync = AllToAllSync(crypto.f, VIEW, advance=lambda ctx, v: log.append(v))
    return sync, log


def test_timeout_broadcasts_wish(crypto4):
    ctx = FakeContext(crypto4)
    sync, _ = make_a2a(crypto4)
    sync.start(ctx)
    ctx.clear()
    sync.on_timer(ctx, "baseline_timer")
    wishes = ctx.sent_payloads(WishMsg)
    assert len(wishes) == 4 and all(w.view == 2 for w in wishes)


def test_quorum_advances_no_quorum_waits(crypto4):
    ctx = FakeContext(crypto4)
    sync, log = make_a2a(crypto4)
    sync.start(ctx)
    sync.on_message(ctx, 1, WishMsg(2))
    sync.on_message(ctx, 2, WishMsg(2))
    assert log == [1]                      # 2 < 2f+1 = 3
    sync.on_message(ctx, 3, WishMsg(2))
    assert log == [1, 2]


def test_high_wishes_count_for_lower_views_and_cascade(crypto4):
    ctx = FakeContext(crypto4)
    sync, log = make_a2a(crypto4)
    sync.start(ctx)
    for sender in (1, 2, 3):
        sync.on_message(ctx, sender, WishMsg(4))
    assert log == [1, 2, 3, 4]             # catches up without extra sends


def test_duplicate_wishers_counted_once(crypto4):
    ctx = FakeContext(crypto4)
    sync, log = make_a2a(crypto4)
    sync.start(ctx)
    for _ in range(5):
        sync.on_message(ctx, 1, WishMsg(2))
    assert log == [1]


class RecountingSync:
    """Reference all-to-all catch-up: recounts every stored wish for each
    candidate view, as a direct reading of the quorum rule."""

    def __init__(self, f):
        self.f = f
        self.view = 1
        self.wishes = {}
        self.log = []

    def on_message(self, sender, view):
        if view > self.wishes.get(sender, 0):
            self.wishes[sender] = view
        while sum(1 for w in self.wishes.values() if w >= self.view + 1) >= 2 * self.f + 1:
            self.view += 1
            self.log.append(self.view)


# stale (0, 1), duplicate and far-ahead wishes, from a handful of senders
_wishes = st.lists(st.tuples(st.integers(1, 7), st.integers(0, 12)), max_size=60)


@given(_wishes)
@settings(max_examples=300, deadline=None)
def test_running_support_matches_a_full_recount(wishes):
    crypto = CryptoSystem(7, 2)
    ctx = FakeContext(crypto)
    sync, log = make_a2a(crypto)
    sync.start(ctx)
    reference = RecountingSync(crypto.f)
    for sender, view in wishes:
        sync.on_message(ctx, sender, WishMsg(view))
        reference.on_message(sender, view)
        assert log == [1] + reference.log
        assert sync.view == reference.view


def test_doubling_durations():
    log = []
    sync = DoublingSync(advance=lambda ctx, v: log.append(v))
    ctx = FakeContext(CryptoSystem(4, 1))
    sync.start(ctx)
    for _ in range(4):
        sync.on_timer(ctx, "baseline_timer")
    measured = [d for op, kind, d in ctx.timers if op == "measure"]
    assert measured == [Fraction(1), Fraction(2), Fraction(4), Fraction(8),
                        Fraction(16)]
    assert log == [1, 2, 3, 4, 5]


def test_doubling_sends_nothing():
    from squadsim import worst_case, run_scenario
    cfg = worst_case(4, 0, "doubling")
    res = run_scenario(cfg)
    assert res.report.decided
    assert res.report.words_sync_window == 0
    wish_sends = [ev for ev in res.trace.events if isinstance(ev.payload, WishMsg)]
    assert wish_sends == []


def test_doubling_laggard_latency_is_geometric():
    """A process stuck far behind synchronizes no sooner than the closed
    form: if the most advanced process sits in view v, co-residence cannot
    begin before the laggard has burned beta * (2^(v-1) - 1) of local time."""
    beta = DoublingSync.BETA
    log = []
    sync = DoublingSync(advance=lambda ctx, v: log.append(v))
    ctx = FakeContext(CryptoSystem(4, 1))
    sync.start(ctx)
    total = Fraction(0)
    target = 21
    while sync.view < target:
        total += sync.current_duration
        sync.on_timer(ctx, "baseline_timer")
    # time to climb from view 1 to view 21 is the geometric sum
    assert total == beta * (2 ** (target - 1) - 1)
    assert total >= beta * 2 ** 19


def test_alltoall_transition_costs_n_words_per_correct():
    from squadsim import worst_case, run_scenario
    cfg = worst_case(4, 0, "alltoall")
    res = run_scenario(cfg)
    assert res.report.decided
    wish_words = sum(ev.words for ev in res.trace.events
                     if ev.kind == "send" and isinstance(ev.payload, WishMsg)
                     and ev.time >= cfg.gst)
    correct = 2 * cfg.f + 1
    # f rounds of wishes after GST, n words per correct process per round
    assert wish_words == cfg.f * correct * cfg.n


def test_word_ordering_across_synchronizers():
    """Synchronizer-window words: doubling sends nothing, the epoch-based
    synchronizer pays one boundary exchange, the per-view baseline pays one
    exchange per view. At n=4 and n=7 the per-view baseline happens to tie
    or undercut the boundary exchange (f and 2 rounds of n*(2f+1) words
    respectively); from n=13 the ordering is strict. Doubling may fail to
    decide within a horizon generous for the others: its recovery time is
    exponential in the index of the first usable view, which is exactly
    the unbounded-latency pathology this baseline exists to show."""
    from squadsim import worst_case, run_scenario
    for n in (4, 13, 25):
        words = {}
        for proto in ("doubling", "squad", "alltoall"):
            res = run_scenario(worst_case(n, 0, proto))
            if proto != "doubling":
                assert res.report.decided
            words[proto] = res.report.words_sync_window
        assert words["doubling"] == 0
        assert words["doubling"] < words["squad"]
        if n >= 13:
            assert words["squad"] < words["alltoall"], (n, words)


def test_doubling_unbounded_latency_shows_up_at_desk_scale():
    # at n=13 the silent leaders cover doubling's first long-enough views;
    # the next chance is exponentially far out, beyond a post-GST horizon
    # more than twice what the epoch-based synchronizer needed
    from squadsim import worst_case, run_scenario
    doubling = run_scenario(worst_case(13, 0, "doubling"))
    epoch_based = run_scenario(worst_case(13, 0, "squad"))
    assert epoch_based.report.decided
    assert not doubling.report.decided
    assert (doubling.config.horizon - doubling.config.gst
            > 2 * (epoch_based.report.t_d - epoch_based.config.gst))
