"""Merkle-audit proof of retrievability over an index-tagged encoded file.

The client encodes its file, splits it into fixed payloads, suffixes each
payload with its 1-based index, and publishes the Merkle root. A challenge
is just a PRF key; both sides expand it to the same list of block indices,
the prover answers with one Merkle path per index (a path carries its
block), and the verifier reports either acceptance or the position of the
first failing path. That failing position is what makes third-party dispute
checking cheap: re-checking one path settles the dispute. A vector is
proved, and its paths verified, in one ``merkle.prove`` and one
``merkle.verify`` call.
"""

from __future__ import annotations

import mmap
import random
import sys
from array import array
from dataclasses import dataclass
from math import gcd
from typing import Sequence, Union

from . import merkle
# ``prf`` is not called here; perfbench/spans.py traces it as ``por.prf``
from .crypto import IOTA_BITS, PRF_COUNTER, PSI_BITS, prf  # noqa: F401
from .hashing import HASH_LEN, node_sha256, tally

INDEX_LEN = 4
DEFAULT_PHI = 460
DEFAULT_BLOCK_PAYLOAD_LEN = 16
_WORD_FORMATS = {1: "B", 2: "H", 4: "I"}  # memoryview formats by byte width


class EmptyFile(ValueError):
    """Setup was given an empty file."""


class ParamMismatch(ValueError):
    """Encoded file does not match the public parameters."""


def xor_parity(data: bytes, n: int) -> bytes:
    """Erasure-style pre-encoding applied before block splitting: ``data``
    cut into n-byte chunks, the short last one zero-filled, with one XOR
    parity chunk after every group of four. ValueError for n < 1."""
    if n < 1:
        raise ValueError("chunk length n must be positive")
    data = data.ljust(-(-len(data) // n) * n, b"\x00")
    pieces: list[bytes] = []
    for start in range(0, len(data), 4 * n):
        group = data[start : start + 4 * n]
        parity = 0
        for i in range(0, len(group), n):
            parity ^= int.from_bytes(group[i : i + n], "big")
        pieces += (group, parity.to_bytes(n, "big"))
    return b"".join(pieces)


# The challenge PRF's bit lengths (key, input, output): the sizes ``prf`` is
# built with, and the only triple a session supports.
PRF_TRIPLE = (PSI_BITS, PRF_COUNTER.size * 8, IOTA_BITS)


@dataclass(frozen=True)
class PublicParams:
    sigma: bytes
    phi: int
    m: int

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
            "zeta": dict(zip(("psi", "eta", "iota"), PRF_TRIPLE)),
        }


@dataclass(frozen=True)
class Verdict:
    failing_index: int | None = None  # 1-based position in the proof vector

    @property
    def accepted(self) -> bool:
        return self.failing_index is None


ProofVector = tuple[merkle.MerklePath, ...]  # one path per challenged block
Query = Union[bytes, Sequence[int]]


def setup(
    file: bytes,
    block_payload_len: int = DEFAULT_BLOCK_PAYLOAD_LEN,
    phi: int = DEFAULT_PHI,
    parity: bool = False,
) -> tuple[bytes, PublicParams]:
    """Encode ``file`` into indexed blocks and publish the Merkle root.

    Returns the blocks, each its payload then its 4-byte big-endian index
    (1..m), back to back in one buffer, and the public parameters. One
    buffer, because a 20-byte block as its own object costs 72 bytes. The
    final payload is zero-padded to the payload length. With ``parity`` the
    file is first pre-encoded by ``xor_parity`` in payload-length chunks.
    ``phi`` must not exceed the resulting block count.
    """
    if not file:
        raise EmptyFile("cannot set up a proof of retrievability over an empty file")
    if block_payload_len < 1:
        raise ValueError("block_payload_len must be positive")
    coded = xor_parity(file, block_payload_len) if parity else file
    blocks = _index_tagged(coded, block_payload_len)
    block_len = block_payload_len + INDEX_LEN
    _, root = merkle.gen_tree(blocks, block_len)
    return blocks, PublicParams(sigma=root, phi=phi, m=len(blocks) // block_len)


def _index_tagged(coded: bytes, payload_len: int) -> bytes:
    """``coded`` cut into zero-filled payloads, each followed by its 1-based
    big-endian index, in one buffer.

    Each payload word column and index word column is one strided copy
    between views, into an anonymous mapping copied once to ``bytes`` and
    unmapped: freeing a heap buffer would leave its pages on the heap. A
    word is gcd(payload_len, INDEX_LEN) bytes, so a column copy moves 4
    bytes per block at a 16-byte payload. Only whole payloads are copied by
    columns, from a view of ``coded``; a short last one is copied whole.
    """
    m = -(-len(coded) // payload_len)
    whole = len(coded) // payload_len
    block_len = payload_len + INDEX_LEN
    width = gcd(payload_len, INDEX_LEN)
    word = _WORD_FORMATS[width]
    step, payload_words = block_len // width, payload_len // width
    index = array("I", range(1, m + 1))  # INDEX_LEN-byte unsigned ints
    if sys.byteorder == "little":
        index.byteswap()
    with mmap.mmap(-1, m * block_len) as out:  # zero-filled
        with memoryview(out) as raw, raw.cast(word) as words, \
                memoryview(coded) as src, src[: whole * payload_len].cast(word) as payloads, \
                memoryview(index).cast("B").cast(word) as indices:
            for k in range(payload_words):
                words[k : whole * step : step] = payloads[k::payload_words]
            for k in range(payload_words, step):
                words[k::step] = indices[k - payload_words :: step - payload_words]
        short = coded[whole * payload_len :]
        out[whole * block_len : whole * block_len + len(short)] = short
        return out[:]


def gen_query(rng: random.Random) -> bytes:
    """Fresh uniformly random PRF key; one per billing cycle."""
    return rng.randbytes(PSI_BITS // 8)


def derive_indices(key: bytes, phi: int, m: int) -> list[int]:
    """Expand a challenge key into phi block indices, each in [1, m]: index
    i is ``crypto.prf(key, i)`` as a big-endian integer, mod m, plus 1.

    The full PRF output is read before the modulus, keeping the bias below
    m / 2**iota. Repeats are kept: every occurrence gets its own proof
    entry. The phi PRF inputs are hashed inline, as ``prf`` hashes one, and
    tallied at once.
    """
    if phi < 1 or m < 1:
        raise ValueError("phi and m must be positive")
    tally(phi)
    pack = PRF_COUNTER.pack
    return [
        int.from_bytes(node_sha256(key + pack(i)).digest()[:HASH_LEN], "big") % m + 1
        for i in range(1, phi + 1)
    ]


def prove(tree: merkle.MerkleTree, key: bytes, pp: PublicParams) -> ProofVector:
    """Answer the challenge key with the Merkle path of each challenged block
    of ``tree``, the tree over the encoded file's blocks, in one
    ``merkle.prove`` call."""
    if tree.m != pp.m:
        raise ParamMismatch(f"tree has {tree.m} blocks, pp says {pp.m}")
    return merkle.prove(tree, derive_indices(key, pp.phi, pp.m))


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
        return Verdict(min(len(pi) + 1, len(expected)))

    # pass 1: every block must carry the index it was challenged for
    for i, (path, q) in enumerate(zip(pi, expected), start=1):
        block = path.leaf_block
        if len(block) <= INDEX_LEN:
            return Verdict(i)
        if int.from_bytes(block[-INDEX_LEN:], "big") != q:
            return Verdict(i)

    # pass 2: every path must open the root from its block
    return Verdict(merkle.verify(pi, pp.sigma))
