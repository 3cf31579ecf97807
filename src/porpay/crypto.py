"""Primitive contracts shared by every module: keyed PRF, hash commitments,
and fixed-size authenticated cipher units.

A cipher unit carries one value of at most its geometry's capacity: the
plaintext is a 2-byte big-endian length prefix, the value, and zero fill up
to the capacity. A challenge key travels as one unit, and so does each proof
entry, whose value is the path's values back to back; which geometries a
session uses is fixed by its agreed ``protocol.QpStatement``. Every unit
of one geometry has the same wire length, and a sampled unit has it too,
which is the property the padding scheme relies on.

Unit wire format: nonce || ciphertext || tag.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .hashing import HASH_LEN, digest, node_sha256, tally

PSI_BITS = 128  # PRF key size
IOTA_BITS = HASH_LEN * 8  # PRF output size
LAMBDA_BITS = 128  # commitment randomness size
# The PRF input is the key, then this counter: eta = 64 bits, big-endian.
PRF_COUNTER = struct.Struct(">Q")

SYM_KEY_LEN = 16
NONCE_LEN = 12
TAG_LEN = 16
_LEN_PREFIX = 2
MAX_VALUE_LEN = (1 << 8 * _LEN_PREFIX) - 1  # the largest length a prefix states


class BadRandomnessLength(ValueError):
    """Commitment randomness must be exactly LAMBDA_BITS/8 bytes."""


class DecryptFailure(Exception):
    """Unit failed authentication or carried an undecodable payload.

    During dispute resolution this is the signal that distinguishes a
    garbage ciphertext (dummy or tampered unit) from a well-formed but
    invalid proof.
    """


def prf(key: bytes, counter: int) -> bytes:
    """Keyed hash of the key followed by the ``PRF_COUNTER``-packed counter;
    deterministic, and IOTA_BITS long because the hash is.

    The 24-byte input is hashed with the builtin SHA-256 and counted as one
    hash. ``por.derive_indices`` hashes a cycle's phi inputs inline the same
    way; the dispute re-check calls this for the one index it needs.
    """
    tally(1)
    return node_sha256(key + PRF_COUNTER.pack(counter)).digest()[:HASH_LEN]


@dataclass(frozen=True)
class Opening:
    """Commitment opening: the statement bytes and the randomness used."""

    statement: bytes
    randomness: bytes


def commit(statement: bytes, randomness: bytes) -> bytes:
    """Commit to ``statement`` as H(statement || randomness)."""
    if len(randomness) != LAMBDA_BITS // 8:
        raise BadRandomnessLength(
            f"randomness must be {LAMBDA_BITS // 8} bytes, got {len(randomness)}"
        )
    return digest(statement + randomness)


def commit_verify(commitment: bytes, opening: Opening) -> bool:
    """True iff ``opening`` opens ``commitment``; anything but an
    ``Opening``, one whose fields are not both ``bytes``, or one whose
    randomness has another length opens nothing."""
    if not isinstance(opening, Opening):
        return False
    statement, r = opening.statement, opening.randomness
    if not (isinstance(statement, bytes) and isinstance(r, bytes)):
        return False
    return len(r) == LAMBDA_BITS // 8 and commit(statement, r) == commitment


def gen_commit_randomness(rng: random.Random) -> bytes:
    return rng.randbytes(LAMBDA_BITS // 8)


def gen_sym_key(rng: random.Random) -> bytes:
    return rng.randbytes(SYM_KEY_LEN)


@dataclass(frozen=True)
class UnitFormat:
    """Geometry of a kind of cipher unit.

    ``value_capacity`` is the largest value the unit payload can carry, at
    most MAX_VALUE_LEN; every unit of one geometry has the same wire length.
    """

    value_capacity: int
    payload_len: int = field(init=False, repr=False, compare=False)
    unit_len: int = field(init=False, repr=False, compare=False)
    layout: struct.Struct = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # read once per unit on the seal/open path, so fixed at construction
        object.__setattr__(self, "payload_len", _LEN_PREFIX + self.value_capacity)
        object.__setattr__(self, "unit_len", NONCE_LEN + self.payload_len + TAG_LEN)
        # the plaintext: big-endian length prefix, then the zero-filled value
        object.__setattr__(self, "layout", struct.Struct(f">H{self.value_capacity}s"))


@functools.lru_cache(maxsize=8)
def _aead(key: bytes) -> AESGCM:
    """One cipher per key: a session seals and opens thousands of units under
    a handful of keys, and building the cipher costs more than using it."""
    return AESGCM(key)


def enc_unit(key: bytes, value: bytes, fmt: UnitFormat, rng: random.Random) -> bytes:
    """Encrypt ``value``, length-prefixed and zero-filled to the capacity,
    into one fixed-length unit under a fresh nonce."""
    n = len(value)
    if n > fmt.value_capacity:
        raise ValueError(
            f"value of {n} bytes exceeds unit capacity {fmt.value_capacity}"
        )
    payload = fmt.layout.pack(n, value)
    nonce = rng.randbytes(NONCE_LEN)
    return nonce + _aead(key).encrypt(nonce, payload, None)


def dec_unit(key: bytes, unit: bytes, fmt: UnitFormat) -> bytes:
    """Authenticate and decrypt one unit, returning the value it carries.

    Raises DecryptFailure on a wrong key, any tampering, a wrong unit
    length, or a length prefix that exceeds the capacity.
    """
    if len(unit) != fmt.unit_len:
        raise DecryptFailure(f"unit length {len(unit)} != {fmt.unit_len}")
    try:
        payload = _aead(key).decrypt(unit[:NONCE_LEN], unit[NONCE_LEN:], None)
    except InvalidTag as exc:
        raise DecryptFailure("unit failed authentication") from exc
    n, value = fmt.layout.unpack(payload)
    if n > fmt.value_capacity:
        raise DecryptFailure("payload length prefix exceeds unit capacity")
    return value[:n]


def sample_unit(fmt: UnitFormat, rng: random.Random) -> bytes:
    """Uniformly random bytes of exactly the unit wire length."""
    return rng.randbytes(fmt.unit_len)
