import gc
import weakref

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from squadsim.consensus import value_message
from squadsim.crypto import (CryptoError, CryptoSystem, MixedDigests,
                             PartialSignature, ThresholdSignature,
                             ThresholdTooSmall, digest_of)
from squadsim.raresync import epoch_message
from squadsim.viewcore import vote_message


@pytest.fixture
def crypto():
    return CryptoSystem(n=4, f=1)


def test_share_sign_verifies_for_signer(crypto):
    psig = crypto.share_sign(1, ("epoch", 3), "quorum")
    assert crypto.share_verify(1, ("epoch", 3), psig)


def test_share_verify_rejects_wrong_signer(crypto):
    psig = crypto.share_sign(1, ("epoch", 3), "quorum")
    assert not crypto.share_verify(2, ("epoch", 3), psig)


def test_share_verify_rejects_wrong_digest(crypto):
    psig = crypto.share_sign(1, ("epoch", 3), "quorum")
    assert not crypto.share_verify(1, ("epoch", 4), psig)


def test_combine_quorum_scheme(crypto):
    # n=4, f=1: quorum threshold is 2f+1 = 3
    partials = [crypto.share_sign(p, ("epoch", 1), "quorum") for p in (1, 2, 3)]
    tsig = crypto.combine(partials)
    assert tsig.signers == frozenset({1, 2, 3})
    assert crypto.combined_verify(("epoch", 1), tsig)


def test_combine_rejects_duplicates_below_threshold(crypto):
    partials = [crypto.share_sign(1, ("epoch", 1), "quorum"),
                crypto.share_sign(1, ("epoch", 1), "quorum"),
                crypto.share_sign(2, ("epoch", 1), "quorum")]
    with pytest.raises(ThresholdTooSmall):
        crypto.combine(partials)


def test_combine_rejects_mixed_digests(crypto):
    partials = [crypto.share_sign(1, ("epoch", 1), "quorum"),
                crypto.share_sign(2, ("epoch", 2), "quorum"),
                crypto.share_sign(3, ("epoch", 1), "quorum")]
    with pytest.raises(MixedDigests):
        crypto.combine(partials)


def test_cert_scheme_threshold_is_f_plus_1(crypto):
    partials = [crypto.share_sign(p, ("value", 9), "cert") for p in (1, 4)]
    tsig = crypto.combine(partials)
    assert crypto.combined_verify(("value", 9), tsig)


def test_combined_verify_rejects_other_message(crypto):
    partials = [crypto.share_sign(p, ("epoch", 1), "quorum") for p in (1, 2, 3)]
    tsig = crypto.combine(partials)
    assert not crypto.combined_verify(("epoch", 2), tsig)


def test_combined_verify_rejects_tampered_signers(crypto):
    partials = [crypto.share_sign(p, ("epoch", 1), "quorum") for p in (1, 2, 3)]
    tsig = crypto.combine(partials)
    tampered = ThresholdSignature(tsig.digest, frozenset({1, 2}), tsig.scheme)
    assert not crypto.combined_verify(("epoch", 1), tampered)


def test_forged_signature_naming_nonsigners_fails(crypto):
    # an adversary can build the object, but verification consults the ledger
    forged = ThresholdSignature(digest_of(("epoch", 5)),
                                frozenset({1, 2, 3}), "quorum")
    assert not crypto.combined_verify(("epoch", 5), forged)


def test_signer_set_with_one_nonsigner_fails(crypto):
    # enough real signers for the threshold, plus one who never signed
    partials = [crypto.share_sign(p, ("epoch", 3), "quorum") for p in (1, 2, 3)]
    tsig = crypto.combine(partials)
    padded = ThresholdSignature(tsig.digest, tsig.signers | {4}, tsig.scheme)
    assert not crypto.combined_verify(("epoch", 3), padded)


def test_adversary_may_combine_collected_partials(crypto):
    # partials legitimately received can be combined by anyone
    partials = [crypto.share_sign(p, ("epoch", 2), "quorum") for p in (1, 2, 4)]
    tsig = crypto.combine(partials)
    assert crypto.combined_verify(("epoch", 2), tsig)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=30))
@settings(max_examples=60)
def test_any_quorum_subset_combines_and_verifies(f, epoch):
    n = 3 * f + 1
    crypto = CryptoSystem(n, f)
    k = 2 * f + 1
    partials = [crypto.share_sign(p, ("epoch", epoch), "quorum")
                for p in range(1, n + 1)]
    subset = partials[:k]
    tsig = crypto.combine(subset)
    assert len(tsig.signers) == k
    assert crypto.combined_verify(("epoch", epoch), tsig)


def test_digest_is_canonical_serialization():
    assert digest_of(("epoch", 3)) == "(epoch,3)"
    assert digest_of(("vote", "prepare", 7, 12)) == "(vote,prepare,7,12)"
    assert digest_of("any value") == "any value"
    assert digest_of((("a", 1), 2)) == "((a,1),2)"


_plain_values = st.one_of(st.integers(-10**6, 10**6), st.none(), st.text(max_size=8))


@settings(max_examples=200, deadline=None)
@given(_plain_values, st.sampled_from(["prepare", "precommit", "commit"]),
       st.integers(-5, 10**6))
@example(None, "prepare", 3)
@example(-99, "commit", -4)
@example("any value", "precommit", 0)
def test_message_builders_return_the_digest_of_their_tuple(value, phase, number):
    assert vote_message(phase, value, number) == digest_of(("vote", phase, value, number))
    assert value_message(value) == digest_of(("value", value))
    assert epoch_message(number) == digest_of(("epoch", number))
    # a builder's string is its own digest: signing it renders nothing new
    assert digest_of(value_message(value)) == value_message(value)



# -- the verdict memo: a signature object that verified once ----------------


def test_verified_signatures_keep_their_kind(crypto):
    partials = [crypto.share_sign(p, ("epoch", 1), "quorum") for p in (1, 2, 3)]
    tsig = crypto.combine(partials)
    assert crypto.share_verify(1, ("epoch", 1), partials[0])
    assert crypto.combined_verify(("epoch", 1), tsig)
    assert not crypto.combined_verify(("epoch", 1), partials[0])
    assert not crypto.share_verify(1, ("epoch", 1), tsig)
    # and the objects still verify as what they are
    assert crypto.share_verify(1, ("epoch", 1), partials[0])
    assert crypto.combined_verify(("epoch", 1), tsig)


def test_verified_signatures_fail_for_another_message_or_signer(crypto):
    partials = [crypto.share_sign(p, ("epoch", 1), "quorum") for p in (1, 2, 3)]
    crypto.share_sign(2, ("epoch", 2), "quorum")
    tsig = crypto.combine(partials)
    psig = partials[0]
    assert crypto.share_verify(1, ("epoch", 1), psig)
    assert crypto.combined_verify(("epoch", 1), tsig)
    assert not crypto.share_verify(1, ("epoch", 2), psig)
    assert not crypto.share_verify(2, ("epoch", 1), psig)
    assert not crypto.combined_verify(("epoch", 2), tsig)
    assert not crypto.combined_verify(("epoch", 1, 0), tsig)


def test_rejected_signatures_stay_rejected_when_checked_again(crypto):
    forged_share = PartialSignature(4, digest_of(("epoch", 1)), "quorum")
    forged = ThresholdSignature(digest_of(("epoch", 1)), frozenset({1, 2, 4}), "quorum")
    crypto.share_sign(1, ("epoch", 1), "quorum")
    crypto.share_sign(2, ("epoch", 1), "quorum")
    for _ in range(2):
        assert not crypto.share_verify(4, ("epoch", 1), forged_share)
        assert not crypto.combined_verify(("epoch", 1), forged)


def test_threshold_signature_rejected_before_its_last_signer_verifies_after(crypto):
    early = [crypto.share_sign(p, ("epoch", 7), "quorum") for p in (1, 2)]
    tsig = ThresholdSignature(early[0].digest, frozenset({1, 2, 3}), "quorum")
    psig = PartialSignature(3, early[0].digest, "quorum")
    assert not crypto.combined_verify(("epoch", 7), tsig)
    assert not crypto.share_verify(3, ("epoch", 7), psig)
    crypto.share_sign(3, ("epoch", 7), "quorum")
    assert crypto.combined_verify(("epoch", 7), tsig)
    assert crypto.share_verify(3, ("epoch", 7), psig)


class _CountingLedger(dict):
    """A ledger that counts its lookups."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)


def test_an_equal_but_distinct_signature_is_verified_on_its_own(crypto):
    partials = [crypto.share_sign(p, ("epoch", 1), "quorum") for p in (1, 2, 3)]
    tsig = crypto.combine(partials)
    crypto._ledger = ledger = _CountingLedger(crypto._ledger)
    assert crypto.combined_verify(("epoch", 1), tsig)
    assert crypto.share_verify(1, ("epoch", 1), partials[0])
    assert ledger.lookups == 2
    # the same objects again: no ledger lookup
    assert crypto.combined_verify(("epoch", 1), tsig)
    assert crypto.share_verify(1, ("epoch", 1), partials[0])
    assert ledger.lookups == 2
    # equal objects are other objects: each is checked against the ledger
    twin = ThresholdSignature(tsig.digest, tsig.signers, tsig.scheme)
    share_twin = PartialSignature(1, partials[0].digest, "quorum")
    assert twin == tsig and twin is not tsig and share_twin == partials[0]
    assert crypto.combined_verify(("epoch", 1), twin)
    assert crypto.share_verify(1, ("epoch", 1), share_twin)
    assert ledger.lookups == 4


def test_a_verified_signature_stays_alive_so_its_id_is_not_reused(crypto):
    partials = [crypto.share_sign(p, ("epoch", 1), "quorum") for p in (1, 2, 3)]
    tsig = crypto.combine(partials)
    assert crypto.combined_verify(("epoch", 1), tsig)
    ref = weakref.ref(tsig)
    del tsig, partials
    gc.collect()
    assert ref() is not None


_MEMO_MESSAGES = [("epoch", 1), ("epoch", 2), "any value"]
_MEMO_OPS = ["sign", "combine", "forge", "share_verify", "combined_verify"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_memo_answers_as_a_fresh_replay_of_the_ledger(data):
    crypto = CryptoSystem(4, 1)
    signed = []   # the share_sign calls so far, in order
    pool = []     # every signature object made so far: signed, combined or forged
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(_MEMO_OPS))
        message = data.draw(st.sampled_from(_MEMO_MESSAGES))
        scheme = data.draw(st.sampled_from(["quorum", "cert"]))
        pid = data.draw(st.integers(1, 4))
        if op == "sign":
            signed.append((pid, message, scheme))
            pool.append(crypto.share_sign(pid, message, scheme))
        elif op == "combine":
            partials = [p for p in pool if isinstance(p, PartialSignature)]
            if partials:
                chosen = data.draw(st.lists(st.sampled_from(partials),
                                            min_size=1, max_size=4))
                try:
                    pool.append(crypto.combine(chosen))
                except CryptoError:
                    pass
        elif op == "forge":
            signers = data.draw(st.frozensets(st.integers(1, 4), min_size=1))
            pool.append(data.draw(st.sampled_from([
                ThresholdSignature(digest_of(message), signers, scheme),
                PartialSignature(pid, digest_of(message), scheme)])))
        elif pool:
            sig = data.draw(st.sampled_from(pool))
            fresh = CryptoSystem(4, 1)
            for call in signed:
                fresh.share_sign(*call)
            if op == "share_verify":
                assert crypto.share_verify(pid, message, sig) == \
                    fresh.share_verify(pid, message, sig)
            else:
                assert crypto.combined_verify(message, sig) == \
                    fresh.combined_verify(message, sig)
