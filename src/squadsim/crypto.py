"""Simulated (k, n)-threshold signatures.

A partial signature names its signer and the digest it covers; a threshold
signature names the digest and the set of signers. Verification consults a
signing ledger owned by the simulation: a signature object naming process
P verifies only if P actually invoked share_sign on that digest. That is
the whole unforgeability argument here - an adversary may freely combine
partial signatures it has legitimately received, but any object it
fabricates for signers that never signed simply fails verification.

Digests are canonical strings rather than hashes; collision behavior is
irrelevant to what is being tested and plain strings make traces
debuggable. The protocol's message builders (``vote_message``,
``value_message``, ``epoch_message``) return their digest string
directly, so signing or verifying one renders nothing; ``digest_of`` maps
a string to itself and renders a tuple ``(a,b,...)`` recursively.

The ledger only grows, so a signature object that verified once keeps
verifying against its own digest. ``CryptoSystem`` remembers each such
object, one table for ``share_verify`` and one for ``combined_verify``,
keyed on ``id`` and holding the object itself (so the id cannot be
reused while the entry lives). A later call with the same object only
compares the digest of its message, and for a partial signature the
signer; every other object, and every object that failed, is checked
against the ledger in full. A failure is never remembered: a later
``share_sign`` can make it verify.
"""

from __future__ import annotations

from dataclasses import dataclass


class CryptoError(Exception):
    pass


class ThresholdTooSmall(CryptoError):
    pass


class MixedDigests(CryptoError):
    pass


def digest_of(message) -> str:
    """Canonical string form of a message tuple."""
    if isinstance(message, tuple):
        return "(" + ",".join(digest_of(m) for m in message) + ")"
    return str(message)


@dataclass(frozen=True)
class SchemeConfig:
    scheme_id: str
    k: int
    n: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError(f"bad threshold {self.k}/{self.n}")


@dataclass(frozen=True)
class PartialSignature:
    signer: int
    digest: str
    scheme: str

    def summary(self) -> str:
        return f"psig({self.digest},P{self.signer})"


@dataclass(frozen=True)
class ThresholdSignature:
    digest: str
    signers: frozenset[int]
    scheme: str

    def summary(self) -> str:
        ids = ",".join(str(i) for i in sorted(self.signers))
        return f"sig({self.digest},{{{ids}}})"


# the default of a verdict-table lookup: it is no signature object
_MISS = object()
_NO_SIGNERS: frozenset[int] = frozenset()


class CryptoSystem:
    """Signing oracle for one simulation instance.

    Holds the scheme parameters and the ledger of every share_sign call,
    against which all verification is performed, and the signature
    objects that verified (see the module docstring).
    """

    def __init__(self, n: int, f: int):
        self.n = n
        self.f = f
        self.schemes = {
            "quorum": SchemeConfig("quorum", 2 * f + 1, n),
            "cert": SchemeConfig("cert", f + 1, n),
        }
        # (scheme, digest) -> set of signer ids that really signed it
        self._ledger: dict[tuple[str, str], set[int]] = {}
        # id(sig) -> sig, for every signature object that verified
        self._shares_ok: dict[int, PartialSignature] = {}
        self._combined_ok: dict[int, ThresholdSignature] = {}

    def share_sign(self, process: int, message, scheme: str) -> PartialSignature:
        if not (1 <= process <= self.n):
            raise CryptoError(f"unknown process {process}")
        cfg = self.schemes[scheme]
        d = digest_of(message)
        key = (cfg.scheme_id, d)
        signers = self._ledger.get(key)
        if signers is None:
            signers = self._ledger[key] = set()
        signers.add(process)
        return PartialSignature(process, d, cfg.scheme_id)

    def share_verify(self, process: int, message, psig: PartialSignature) -> bool:
        if self._shares_ok.get(id(psig), _MISS) is psig:
            return psig.signer == process and psig.digest == digest_of(message)
        if not isinstance(psig, PartialSignature):
            return False
        d = digest_of(message)
        ok = (psig.signer == process and psig.digest == d
              and psig.scheme in self.schemes
              and process in self._ledger.get((psig.scheme, d), ()))
        if ok:
            self._shares_ok[id(psig)] = psig
        return ok

    def combine(self, partials) -> ThresholdSignature:
        partials = list(partials)
        if not partials:
            raise ThresholdTooSmall("no partial signatures")
        digest = partials[0].digest
        scheme = partials[0].scheme
        if any(p.digest != digest or p.scheme != scheme for p in partials):
            raise MixedDigests("partials cover different digests")
        signers = frozenset(p.signer for p in partials)
        k = self.schemes[scheme].k
        if len(signers) < k:
            raise ThresholdTooSmall(f"{len(signers)} distinct signers < k={k}")
        return ThresholdSignature(digest, signers, scheme)

    def combined_verify(self, message, tsig: ThresholdSignature) -> bool:
        if self._combined_ok.get(id(tsig), _MISS) is tsig:
            return tsig.digest == digest_of(message)
        if not isinstance(tsig, ThresholdSignature):
            return False
        ok = (tsig.scheme in self.schemes
              and tsig.digest == digest_of(message)
              and len(tsig.signers) >= self.schemes[tsig.scheme].k
              and tsig.signers <= self._ledger.get((tsig.scheme, tsig.digest),
                                                   _NO_SIGNERS))
        if ok:
            self._combined_ok[id(tsig)] = tsig
        return ok

    def signers_for_digest(self, scheme: str, digest: str) -> frozenset[int]:
        return frozenset(self._ledger.get((scheme, digest), _NO_SIGNERS))
