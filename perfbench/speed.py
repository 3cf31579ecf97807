"""Host-speed probe: a fixed reference workload, timed on a wall-clock timer.

The benchmark host runs at two speeds about 2x apart and switches between
them as often as every few tenths of a second (see README.md, Steadiness).
Raw wall times then measure the host as much as porpay. A ``Probe`` runs
``reference()`` (about 2 ms) from a ``SIGALRM`` handler every ``period``
seconds while a run measures, and keeps the start and end of each probe.
``scaled(start, end)`` turns a measured interval into host-independent
time: the interval minus the probe time inside it, times the mean speed of
the probes inside and on either side of it, where a probe's speed is
``REF_NS`` over its duration.

``reference()`` does the kinds of work porpay does (truncated SHA-256 over
small inputs, AES-GCM on 16-byte units, Python-level loops over bytes and
dicts) in fixed amounts, and imports nothing from porpay, so a change to
porpay never changes it.
"""

from __future__ import annotations

import gc
import hashlib
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# The reference's duration at the host's fast speed, on the Intel Xeon
# (2 vCPU) the benchmark was tuned on; it only sets the scale of the output.
REF_NS = 1_600_000

_KEY = bytes(range(16))


def reference() -> int:
    """A fixed mix of hashing, AEAD and interpreter work; returns a checksum."""
    level = [
        hashlib.sha256(i.to_bytes(4, "big")).digest()[:16] for i in range(512)
    ]
    while len(level) > 1:
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()[:16]
            for i in range(0, len(level), 2)
        ]
    root = level[0]
    acc = 0
    for i in range(48):
        nonce = i.to_bytes(12, "big")
        sealed = AESGCM(_KEY).encrypt(nonce, root, None)
        acc ^= AESGCM(_KEY).decrypt(nonce, sealed, None)[0]
    table = {}
    for i in range(1500):
        table[i.to_bytes(4, "big")] = (i * 2654435761) & 0xFFFFFFFF
    for k, v in table.items():
        acc = (acc + v + k[3]) & 0xFFFFFFFF
    return acc


class Probe:
    """Timer-driven reference probes and the interval scaling they give."""

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.speeds: list[float] = []
        self._saved = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of porpay's heap is not the host's speed
        start = perf_counter_ns()
        reference()
        end = perf_counter_ns()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.speeds.append(REF_NS / (end - start))

    def __enter__(self) -> "Probe":
        self._tick(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick(None, None)

    def scaled(self, start: int, end: int) -> float:
        """Host-independent nanoseconds of work in ``[start, end]``."""
        first = bisect_left(self.ends, start)  # first probe ending after start
        stop = bisect_right(self.starts, end)  # probes starting before end
        busy = sum(
            min(end, e) - max(start, s)
            for s, e in zip(self.starts[first:stop], self.ends[first:stop])
        )
        near = self.speeds[max(0, first - 1) : stop + 1]
        return (end - start - busy) * sum(near) / len(near)
