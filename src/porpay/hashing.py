"""Truncated SHA-256, the collision-resistant hash used throughout.

The output length is 16 bytes (128 bits), the session security
parameter. A module-level call counter backs the dispute-cost ratio checks
in the test suite; it is plain instrumentation, not thread-safe, and has no
effect on results.

Every hash is counted. Most callers go through ``digest``, which counts one
call each. A hot loop whose hash count is known up front (a tree level, or
a Merkle path verification, which always hashes its whole path) may hash
inline with ``node_sha256(data).digest()[:HASH_LEN]`` and ``tally`` the
calls in bulk, so the counts stay exactly those of one ``digest`` per hash.

There are two SHA-256 constructors, with the same digests. ``node_sha256``
is CPython's builtin implementation: on a Merkle node's short input (two
16-byte digests, or two blocks) it is cheaper than ``hashlib.sha256``,
which sets up an OpenSSL context per call. ``digest`` keeps
``hashlib.sha256``, because its callers include large inputs (a ledger
post of a whole proof vector), where OpenSSL's hardware-accelerated
SHA-256 is several times faster than the builtin.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Callable, Iterator

try:  # CPython 3.12+
    from _sha2 import sha256 as node_sha256
except ImportError:
    try:  # CPython 3.10, 3.11
        from _sha256 import sha256 as node_sha256
    except ImportError:
        node_sha256 = hashlib.sha256

HASH_LEN = 16

_calls = 0


def digest(data: bytes) -> bytes:
    """Hash ``data`` and truncate the result to HASH_LEN bytes."""
    global _calls
    _calls += 1
    return hashlib.sha256(data).digest()[:HASH_LEN]


def tally(n: int) -> None:
    """Count ``n`` hashes made inline, outside ``digest``."""
    global _calls
    _calls += n


@contextmanager
def count_hash_calls() -> Iterator[Callable[[], int]]:
    """Yield a callable reporting how many hashes were counted since entry."""
    start = _calls
    yield lambda: _calls - start
