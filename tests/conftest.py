from fractions import Fraction

import pytest

from squadsim.crypto import CryptoSystem


class FakeContext:
    """Records effects emitted by a protocol component under unit test."""

    def __init__(self, crypto: CryptoSystem, pid: int = 1, now=Fraction(0)):
        self.crypto = crypto
        self.pid = pid
        self.now = Fraction(now)
        self.n = crypto.n
        self.f = crypto.f
        self.sends: list = []          # (receiver, payload)
        self.timers: list = []         # ("measure"/"cancel", kind, duration?)
        self.advances: list = []
        self.epochs: list = []
        self.decisions: list = []

    def send(self, receiver, payload):
        self.sends.append((receiver, payload))

    def broadcast(self, payload):
        for receiver in range(1, self.n + 1):
            self.sends.append((receiver, payload))

    def measure(self, kind, duration):
        self.timers.append(("measure", kind, Fraction(duration)))

    def cancel(self, kind):
        self.timers.append(("cancel", kind))

    def log_advance(self, view):
        self.advances.append(view)

    def log_enter_epoch(self, epoch):
        self.epochs.append(epoch)

    def decide(self, value):
        self.decisions.append(value)

    # helpers
    def sent_payloads(self, cls=None):
        if cls is None:
            return [p for _, p in self.sends]
        return [p for _, p in self.sends if isinstance(p, cls)]

    def clear(self):
        self.sends.clear()
        self.timers.clear()
        self.advances.clear()
        self.epochs.clear()
        self.decisions.clear()


@pytest.fixture
def crypto4():
    return CryptoSystem(4, 1)


@pytest.fixture
def crypto7():
    return CryptoSystem(7, 2)


@pytest.fixture
def ctx4(crypto4):
    return FakeContext(crypto4)
