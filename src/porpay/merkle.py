"""Binary Merkle tree over equal-length file blocks.

The blocks arrive as one buffer of m * block_len bytes. Leaves are the raw
blocks themselves: level 1 holds the hashes of adjacent block pairs, every
higher level hashes pairs of the level below, and the single remaining
digest is the root. A block count that is not a power of two is padded
with all-zero blocks; proof indices always refer to the original blocks.

A membership proof carries the block, its sibling block, and one digest per
upper level. Verification re-derives left/right placement from the bits of
the leaf position, so paths carry no direction flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .hashing import HASH_LEN, node_sha256, tally


class EmptyInput(ValueError):
    """Tree construction was given no blocks."""


class UnequalBlockLength(ValueError):
    """All blocks in one tree must have the same byte length."""


class IndexOutOfRange(IndexError):
    """Proof requested for a leaf index outside [1, m]."""


def padded_leaf_count(m: int) -> int:
    """Smallest power of two >= m, floored at 2 so every leaf has a sibling."""
    return max(2, 1 << (m - 1).bit_length())


@dataclass(frozen=True)
class MerkleTree:
    """Tree over the m blocks in ``blocks``; ``levels[0]`` pairs blocks,
    ``levels[-1]`` is the root.

    ``blocks`` is the caller's buffer itself, never a copy. Each level is
    the list of digests its comprehension built, never copied: copying the
    2^19-entry lowest level of an m = 2^20 tree into a tuple made the
    set-up's peak memory vary between runs by about 13 MB.
    """

    blocks: bytes
    block_len: int
    levels: tuple[list[bytes], ...]

    @property
    def m(self) -> int:
        return len(self.blocks) // self.block_len


class MerklePath(NamedTuple):
    """Membership proof for one leaf; ``sibling_digests`` run from level 1 upward."""

    leaf_block: bytes
    sibling_block: bytes
    sibling_digests: tuple[bytes, ...]
    leaf_index: int  # 1-based position in the original block list


def gen_tree(blocks: bytes, block_len: int) -> tuple[MerkleTree, bytes]:
    """Build the tree over the ``block_len``-byte blocks of ``blocks`` and
    return it with its root digest.

    The lowest level hashes each 2 * block_len slice of the buffer; only a
    block count that is not a power of two copies it, to append the zero
    blocks. Each level is hashed inline and tallied once: a level of k
    nodes costs exactly k hashes.
    """
    if not blocks:
        raise EmptyInput("cannot build a tree over zero blocks")
    if block_len < 1 or len(blocks) % block_len:
        raise UnequalBlockLength(
            f"{len(blocks)} bytes is not a whole number of {block_len}-byte blocks"
        )

    m = len(blocks) // block_len
    n = padded_leaf_count(m)
    leaves = blocks if n == m else blocks + bytes((n - m) * block_len)
    pair_len = 2 * block_len
    level = [
        node_sha256(leaves[i : i + pair_len]).digest()[:HASH_LEN]
        for i in range(0, n * block_len, pair_len)
    ]
    tally(len(level))
    levels = [level]
    while len(level) > 1:
        pairs = iter(level)
        level = [node_sha256(a + b).digest()[:HASH_LEN] for a, b in zip(pairs, pairs)]
        tally(len(level))
        levels.append(level)
    return MerkleTree(blocks, block_len, tuple(levels)), level[0]


def prove(tree: MerkleTree, index: int) -> MerklePath:
    """Produce the membership proof for the 1-based ``index``-th block."""
    if not 1 <= index <= tree.m:
        raise IndexOutOfRange(f"index {index} not in [1, {tree.m}]")

    blocks, block_len = tree.blocks, tree.block_len
    pos = index - 1
    start = pos * block_len
    # the sibling of an odd m's last block is a padding block, past the buffer
    sibling_start = (pos ^ 1) * block_len
    sibling = blocks[sibling_start : sibling_start + block_len] or bytes(block_len)
    # one sibling digest per level below the root, from level 1 upward
    digests = []
    for level in tree.levels[:-1]:
        pos >>= 1
        digests.append(level[pos ^ 1])
    return MerklePath(blocks[start : start + block_len], sibling, tuple(digests), index)


def verify(path: MerklePath, root: bytes) -> bool:
    """Recompute the root from the path; 1-for-match, 0 otherwise. Never raises.

    Hashes inline and tallies the whole path at once: a path with a valid
    leaf index always hashes all 1 + len(sibling_digests) nodes.
    """
    leaf_block, sibling_block, sibling_digests, leaf_index = path
    if leaf_index < 1:
        return False
    pos = leaf_index - 1
    if pos & 1 == 0:
        node = node_sha256(leaf_block + sibling_block).digest()[:HASH_LEN]
    else:
        node = node_sha256(sibling_block + leaf_block).digest()[:HASH_LEN]
    for sibling in sibling_digests:
        pos >>= 1
        pair = node + sibling if pos & 1 == 0 else sibling + node
        node = node_sha256(pair).digest()[:HASH_LEN]
    tally(1 + len(sibling_digests))
    return node == root
