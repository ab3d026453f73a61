import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from squadsim.consensus import value_message
from squadsim.crypto import (CryptoSystem, MixedDigests, ThresholdSignature,
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

