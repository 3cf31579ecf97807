"""Merkle-audit proof of retrievability over an index-tagged encoded file.

The client encodes its file, splits it into fixed payloads, suffixes each
payload with its 1-based index, and publishes the Merkle root. A challenge
is just a PRF key; both sides expand it to the same list of block indices,
the prover answers with (block, path) pairs, and the verifier reports either
acceptance or the position of the first failing pair. That failing position
is what makes third-party dispute checking cheap: re-checking one pair
settles the dispute.
"""

from __future__ import annotations

import mmap
import random
import sys
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Sequence, Union

from . import merkle
from .crypto import IOTA_BITS, PRF_COUNTER_LEN, PSI_BITS, prf

INDEX_LEN = 4
DEFAULT_PHI = 460
DEFAULT_BLOCK_PAYLOAD_LEN = 16


class EmptyFile(ValueError):
    """Setup was given an empty file."""


class ParamMismatch(ValueError):
    """Encoded file does not match the public parameters."""


class Codec(Protocol):
    """Pluggable erasure-style pre-encoding applied before block splitting."""

    name: str

    def encode(self, data: bytes) -> bytes: ...


class IdentityCodec:
    name = "identity"

    def encode(self, data: bytes) -> bytes:
        return data


class XorParityCodec:
    """Appends one XOR-parity chunk after every group of four data chunks.

    Demonstrates the encoding hook; a short final chunk is zero-filled.
    """

    name = "xor-parity"

    def __init__(self, chunk_len: int = DEFAULT_BLOCK_PAYLOAD_LEN, group: int = 4):
        if chunk_len < 1 or group < 1:
            raise ValueError("chunk_len and group must be positive")
        self.chunk_len = chunk_len
        self.group = group

    def _chunks(self, data: bytes) -> list[bytes]:
        out = []
        for i in range(0, len(data), self.chunk_len):
            chunk = data[i : i + self.chunk_len]
            out.append(chunk.ljust(self.chunk_len, b"\x00"))
        return out

    def encode(self, data: bytes) -> bytes:
        pieces: list[bytes] = []
        chunks = self._chunks(data)
        for start in range(0, len(chunks), self.group):
            block = chunks[start : start + self.group]
            parity = bytes(self.chunk_len)
            for chunk in block:
                parity = bytes(a ^ b for a, b in zip(parity, chunk))
            pieces.extend(block)
            pieces.append(parity)
        return b"".join(pieces)


CODECS = {"identity": IdentityCodec, "xor-parity": XorParityCodec}


@dataclass(frozen=True)
class PrfSpec:
    """Bit lengths describing the challenge PRF (key, input, output).

    Only the defaults, the constants the PRF is built from, are supported:
    a server treats a statement carrying any other triple as ill-formed.
    """

    psi: int = PSI_BITS
    eta: int = PRF_COUNTER_LEN * 8
    iota: int = IOTA_BITS


@dataclass(frozen=True)
class PublicParams:
    sigma: bytes
    phi: int
    m: int
    zeta: PrfSpec = field(default_factory=PrfSpec)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("block count must be at least 1")
        if not 1 <= self.phi <= self.m:
            raise ValueError(f"challenge count {self.phi} not in [1, {self.m}]")

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.hex(),
            "phi": self.phi,
            "m": self.m,
            "zeta": {"psi": self.zeta.psi, "eta": self.zeta.eta, "iota": self.zeta.iota},
        }


@dataclass(frozen=True)
class EncodedFile:
    """Blocks of (payload || 4-byte big-endian index), indices 1..m, back to
    back in one buffer: block i is ``blocks[(i-1)*L : i*L]``, L = ``block_len``.
    One buffer, because a 20-byte block as its own object costs 72 bytes.
    """

    blocks: bytes
    block_payload_len: int

    @property
    def m(self) -> int:
        return len(self.blocks) // self.block_len

    @property
    def block_len(self) -> int:
        return self.block_payload_len + INDEX_LEN


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    failing_index: int | None = None  # 1-based position in the proof vector

    def __post_init__(self) -> None:
        if self.accepted == (self.failing_index is not None):
            raise ValueError("failing_index must be present exactly when rejected")


class ProofEntry(NamedTuple):
    block: bytes
    path: merkle.MerklePath


ProofVector = tuple[ProofEntry, ...]
Query = Union[bytes, Sequence[int]]


def setup(
    file: bytes,
    block_payload_len: int = DEFAULT_BLOCK_PAYLOAD_LEN,
    phi: int = DEFAULT_PHI,
    codec: Codec | None = None,
) -> tuple[EncodedFile, PublicParams]:
    """Encode ``file`` into indexed blocks and publish the Merkle root.

    The final payload is zero-padded to the payload length. ``phi`` must not
    exceed the resulting block count.
    """
    if not file:
        raise EmptyFile("cannot set up a proof of retrievability over an empty file")
    if block_payload_len < 1:
        raise ValueError("block_payload_len must be positive")
    coded = codec.encode(file) if codec is not None else file
    encoded = EncodedFile(_index_tagged(coded, block_payload_len), block_payload_len)
    _, root = merkle.gen_tree(encoded.blocks, encoded.block_len)
    return encoded, PublicParams(sigma=root, phi=phi, m=encoded.m)


def _index_tagged(coded: bytes, payload_len: int) -> bytes:
    """``coded`` cut into zero-filled payloads, each followed by its 1-based
    big-endian index, in one buffer.

    Each payload byte column and index byte column is one strided slice
    assignment into an anonymous mapping, copied once to ``bytes`` and
    unmapped: freeing a heap buffer would leave its pages on the heap.
    """
    m = -(-len(coded) // payload_len)
    block_len = payload_len + INDEX_LEN
    index = array("I", range(1, m + 1))  # INDEX_LEN-byte unsigned ints
    if sys.byteorder == "little":
        index.byteswap()
    index_bytes = index.tobytes()
    with mmap.mmap(-1, m * block_len) as out:  # zero-filled
        for k in range(payload_len):
            column = coded[k::payload_len]  # m - 1 bytes past a short last payload
            out[k : k + len(column) * block_len : block_len] = column
        for k in range(INDEX_LEN):
            out[payload_len + k :: block_len] = index_bytes[k::INDEX_LEN]
        return out[:]


def gen_query(rng: random.Random) -> bytes:
    """Fresh uniformly random PRF key; one per billing cycle."""
    return rng.randbytes(PSI_BITS // 8)


def derive_indices(key: bytes, phi: int, m: int) -> list[int]:
    """Expand a challenge key into phi block indices, each in [1, m].

    The full PRF output is read as a big-endian integer before the modulus,
    keeping the bias below m / 2**iota. Repeats are kept: every occurrence
    gets its own proof entry.
    """
    if phi < 1 or m < 1:
        raise ValueError("phi and m must be positive")
    return [
        (int.from_bytes(prf(key, i), "big") % m) + 1 for i in range(1, phi + 1)
    ]


def prove(
    encoded: EncodedFile,
    key: bytes,
    pp: PublicParams,
    tree: merkle.MerkleTree | None = None,
) -> ProofVector:
    """Answer the challenge key with one (block, path) pair per index.

    A prover that keeps the tree from setup can pass it in to skip
    rebuilding it every cycle.
    """
    if encoded.m != pp.m:
        raise ParamMismatch(f"encoded file has {encoded.m} blocks, pp says {pp.m}")
    if tree is None:
        tree, _ = merkle.gen_tree(encoded.blocks, encoded.block_len)
    elif tree.m != pp.m:
        raise ParamMismatch("supplied tree does not match pp")
    blocks, block_len = encoded.blocks, encoded.block_len
    return tuple(
        [
            ProofEntry(blocks[(q - 1) * block_len : q * block_len], merkle.prove(tree, q))
            for q in derive_indices(key, pp.phi, pp.m)
        ]
    )


def verify(pi: ProofVector, query: Query, pp: PublicParams) -> Verdict:
    """Check a proof vector, reporting the first failing position on reject.

    ``query`` is either the challenge key (the vector must then hold phi
    entries) or an explicit index list; a single-entry vector with a single
    explicit index is the proof-of-misbehaviour path.
    """
    if isinstance(query, (bytes, bytearray)):
        expected = derive_indices(bytes(query), pp.phi, pp.m)
    else:
        expected = [int(q) for q in query]
        if not expected:
            raise ValueError("explicit query must contain at least one index")
    if len(pi) != len(expected):
        return Verdict(False, min(len(pi) + 1, len(expected)))

    # pass 1: every block must carry the index it was challenged for
    for i, ((block, _), q) in enumerate(zip(pi, expected), start=1):
        if len(block) <= INDEX_LEN:
            return Verdict(False, i)
        if int.from_bytes(block[-INDEX_LEN:], "big") != q:
            return Verdict(False, i)

    # pass 2: every path must open the root for that same block
    sigma = pp.sigma
    for i, (block, path) in enumerate(pi, start=1):
        if path.leaf_block != block:
            return Verdict(False, i)
        if not merkle.verify(path, sigma):
            return Verdict(False, i)
    return Verdict(True, None)

