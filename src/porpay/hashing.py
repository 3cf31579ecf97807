"""Truncated SHA-256, the collision-resistant hash used throughout.

The output length is 16 bytes (128 bits), the session security
parameter. A module-level call counter backs the dispute-cost ratio checks
in the test suite; it is plain instrumentation, not thread-safe, and has no
effect on results.

Every hash is counted. ``digest`` counts one call each. A caller whose
hash count is known up front may hash inline with
``node_sha256(data).digest()[:HASH_LEN]`` and ``tally`` the calls itself, so
the counts stay exactly those of one ``digest`` per hash.

There are two SHA-256 constructors, with the same digests. ``node_sha256``
is CPython's builtin implementation: on a short input it is cheaper than
``hashlib.sha256``, which sets up an OpenSSL context per call. Its callers
all hash short inputs:

- ``merkle.gen_tree``, one tally per tree, n - 1 for n padded leaves (two
  blocks or two digests per node, hashed a chunk at a time into the flat
  lowest levels), made by the calling process: a large tree's forked
  worker tallies nothing, so the count is the same whether it ran or not;
- ``merkle.verify``, one tally per proof vector: every path it checks is
  hashed in full, up to and including the first that fails;
- ``crypto.prf``, one tally per call (a 16-byte key and an 8-byte
  counter), and ``por.derive_indices``, one tally per challenge for the
  phi PRF inputs it hashes inline.

``digest`` keeps ``hashlib.sha256``, because its callers include large
inputs, where OpenSSL's hardware-accelerated SHA-256 is several times
faster than the builtin: ``crypto.commit`` (a statement and its
randomness) and ``Ledger.export_trace``, which hashes each logged payload,
a whole proof vector included; the ledger's calls during a run hash
nothing.
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
