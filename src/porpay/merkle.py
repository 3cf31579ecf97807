"""Binary Merkle tree over equal-length file blocks.

The blocks arrive as one buffer of m * block_len bytes. Leaves are the raw
blocks themselves: level 1 holds the hashes of adjacent block pairs, every
higher level hashes pairs of the level below, and the single remaining
digest is the root. A block count that is not a power of two is padded
with all-zero blocks; proof indices always refer to the original blocks.

The lowest ``FLAT_LEVELS`` levels hold 7/8 of the nodes, so each is stored
flat, its HASH_LEN-byte digests back to back; a digest as its own object
costs about 72 bytes with its list slot, 4.5 times its length. The few
levels above stay digest lists, which ``prove`` indexes at no extra cost.
A flat level is a shared anonymous mapping, not a heap ``bytes``: its
pages leave the process when the tree is freed, where freed heap buffers
of this size stay resident between a process's sessions. With heap
``bytes`` the peak RSS of 40 s of m = 2^20 onboarding sessions read about
121 MB in 13 of 15 runs and 110 MB in the others; with mappings it read
110 MB in all 27 (2 vCPUs, Python 3.11).

A tree of at least ``_SPLIT_LEAVES`` padded leaves is hashed by two
processes when the process may run on more than one CPU and has one
thread: CPython's builtin SHA-256 holds the GIL on inputs this short, so
threads would not help. The padded leaf range is cut in half at a chunk
boundary, and one forked worker hashes the right half's flat levels into
the shared mappings while the parent hashes the left half; the parent then
joins the lowest list level and hashes the levels above. Both halves run
the same chunk loop the serial build runs, so the tree is the same.

A membership proof carries the block, its sibling block, and one digest per
upper level. Verification re-derives left/right placement from the bits of
the leaf position, so paths carry no direction flags. Both work on a whole
challenge vector: ``prove`` gathers each level's sibling digests for every
index at once, and ``verify`` hashes each path on its own, in full, and
reports the position of the first that fails. Paths share no hashes, so a
single re-checked path costs its share of a full verification.
"""

from __future__ import annotations

import mmap
import os
import threading
from array import array
from dataclasses import dataclass
from struct import iter_unpack
from typing import Iterable, NamedTuple, Sequence

from .hashing import HASH_LEN, node_sha256, tally


class EmptyInput(ValueError):
    """Tree construction was given no blocks."""


class UnequalBlockLength(ValueError):
    """All blocks in one tree must have the same byte length."""


class IndexOutOfRange(IndexError):
    """Proof requested for a leaf index outside [1, m]."""


# levels stored flat, from level 1 up: 7/8 of a full tree's nodes
FLAT_LEVELS = 3
_CHUNK = 2048  # level-1 nodes hashed per pass of the chunk loop
# padded leaves from which a tree is hashed in two processes: at 2^13 a
# split took 8.2 ms where the serial loop took 4.0
_SPLIT_LEAVES = 1 << 14
# a mapping is shared, so a forked worker's writes land in it, and, where
# the platform can, populated when made: faulting a flat level's pages in
# one at a time made the m = 2^16 set-up about 3% slower
_MAP_FLAGS = mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0)
_DIGEST_WORDS = 32 // 8  # a full SHA-256 digest in 8-byte words
_KEPT_WORDS = HASH_LEN // 8  # the words of it a truncated digest keeps


def _mapping(size: int) -> mmap.mmap:
    """A zero-filled anonymous mapping of ``size`` bytes."""
    return mmap.mmap(-1, size, flags=_MAP_FLAGS)


def padded_leaf_count(m: int) -> int:
    """Smallest power of two >= m, floored at 2 so every leaf has a sibling."""
    return max(2, 1 << (m - 1).bit_length())


@dataclass(frozen=True)
class MerkleTree:
    """Tree over the m blocks in ``blocks``, holding every level below the
    root from level 1 (the hashes of block pairs) upward.

    ``blocks`` is the caller's buffer itself, never a copy. The lowest
    ``FLAT_LEVELS`` levels (in a smaller tree, all below the root) are
    ``flat_levels``, each one mapping with node i at byte i * HASH_LEN,
    written by ``gen_tree`` and only read after; slicing one gives
    ``bytes``. The levels above them are ``upper_levels``, each a list of
    digests.
    """

    blocks: bytes
    block_len: int
    flat_levels: tuple[mmap.mmap, ...]
    upper_levels: tuple[list[bytes], ...]

    @property
    def m(self) -> int:
        return len(self.blocks) // self.block_len


class MerklePath(NamedTuple):
    """Membership proof for one leaf; ``sibling_digests`` run from level 1 upward."""

    leaf_block: bytes
    sibling_block: bytes
    sibling_digests: tuple[bytes, ...]
    leaf_index: int  # 1-based position in the original block list


def _flat_digests(data: bytes, lo: int, hi: int, width: int) -> bytes:
    """The digest of each ``width``-byte slice of ``data[lo:hi]``, back to
    back. ``struct.iter_unpack`` reads the node inputs off a view of the
    range, so no slice is made per node; the full digests are joined, and
    the first HASH_LEN bytes of each are picked out by strided copies of
    8-byte words, so no object is made per truncated digest."""
    with memoryview(data) as view:
        full = array("Q", b"".join([
            node_sha256(node).digest() for node, in iter_unpack(f"{width}s", view[lo:hi])
        ]))
    kept = array("Q", bytes(len(full) // _DIGEST_WORDS * HASH_LEN))
    for word in range(_KEPT_WORDS):
        kept[word::_KEPT_WORDS] = full[word::_DIGEST_WORDS]
    return kept.tobytes()


def _hash_nodes(leaves: bytes, block_len: int, flat: list[mmap.mmap],
                first: int, last: int) -> bytes:
    """Hash the level-1 nodes ``first`` to ``last - 1`` and the flat levels
    above them, ``_CHUNK`` level-1 nodes at a time, and return the nodes of
    the lowest list level above them, back to back.

    Each chunk's digests are written at their own offset in each flat
    level's mapping and hashed in pairs for the level above, so no list of
    a whole flat level is ever built. ``first`` is a multiple of ``_CHUNK``.
    """
    pair_len = 2 * block_len
    parts = []
    for lo in range(first, last, _CHUNK):
        nodes = _flat_digests(leaves, lo * pair_len, min(lo + _CHUNK, last) * pair_len, pair_len)
        at = lo * HASH_LEN
        for flat_level in flat:
            flat_level[at : at + len(nodes)] = nodes
            nodes = _flat_digests(nodes, 0, len(nodes), 2 * HASH_LEN)
            at >>= 1
        parts.append(nodes)
    return b"".join(parts)


def _can_split(n: int) -> bool:
    """Whether ``gen_tree`` hashes the two halves of ``n`` padded leaves in
    two processes: the tree is large enough, the platform can fork, the
    process may run on more than one CPU, and it has one thread (forking a
    threaded process can deadlock the child)."""
    if n < _SPLIT_LEAVES or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _hash_halves(leaves: bytes, block_len: int, flat: list[mmap.mmap], count: int) -> bytes:
    """``_hash_nodes`` over all ``count`` level-1 nodes, the right half in a
    forked worker that runs nothing else, writes its part of the lowest list
    level into one more shared mapping and always leaves by ``os._exit``.
    The worker is reaped even if the left half raises; if the fork fails or
    the worker does not exit with 0, the right half is hashed here."""
    mid = count // 2
    with _mapping(((count - mid) >> len(flat)) * HASH_LEN) as right:
        try:
            worker = os.fork()
        except OSError:
            worker = None
        if worker == 0:
            status = 1
            try:
                right.write(_hash_nodes(leaves, block_len, flat, mid, count))
                status = 0
            finally:
                os._exit(status)
        try:
            left = _hash_nodes(leaves, block_len, flat, 0, mid)
        finally:
            try:
                done = worker is not None and os.waitpid(worker, 0)[1] == 0
            except ChildProcessError:  # reaped already, as with SIGCHLD ignored
                done = False
        return left + (right[:] if done else _hash_nodes(leaves, block_len, flat, mid, count))


def gen_tree(blocks: bytes, block_len: int) -> tuple[MerkleTree, bytes]:
    """Build the tree over the ``block_len``-byte blocks of ``blocks`` and
    return it with its root digest.

    The lowest level hashes each 2 * block_len slice of the buffer; only a
    block count that is not a power of two copies it, to append the zero
    blocks. ``_hash_nodes`` hashes the flat levels, into their shared
    mappings, and the list level above them, a chunk at a time. Where
    ``_can_split`` allows, a forked worker runs it over the right half of
    the leaves while this process runs it over the left (``_hash_halves``).
    The list levels above are hashed here. Every node costs one hash,
    tallied once for the tree by this process: n - 1 for n padded leaves.
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
    height = n.bit_length() - 1  # levels above the leaves, the root's included
    flat = [_mapping((n >> depth) * HASH_LEN) for depth in range(1, min(FLAT_LEVELS + 1, height))]
    if _can_split(n):
        nodes = _hash_halves(leaves, block_len, flat, n // 2)
    else:
        nodes = _hash_nodes(leaves, block_len, flat, 0, n // 2)
    tally(n - 1)
    # the lowest list level: the one above the flat ones
    level = [nodes[i : i + HASH_LEN] for i in range(0, len(nodes), HASH_LEN)]
    upper_levels = []
    while len(level) > 1:
        upper_levels.append(level)
        pairs = iter(level)
        level = [node_sha256(a + b).digest()[:HASH_LEN] for a, b in zip(pairs, pairs)]
    return MerkleTree(blocks, block_len, tuple(flat), tuple(upper_levels)), level[0]


def prove(tree: MerkleTree, indices: Sequence[int]) -> tuple[MerklePath, ...]:
    """The membership proof of each 1-based index in ``indices``, in order.

    Every index is checked before any path is built. Each level's sibling
    digests are gathered for all indices in one comprehension: sliced out
    of a flat level, indexed in an upper one.
    """
    m = tree.m
    for q in (min(indices, default=1), max(indices, default=1)):
        if not 1 <= q <= m:
            raise IndexOutOfRange(f"index {q} not in [1, {m}]")

    blocks, block_len = tree.blocks, tree.block_len
    positions = [q - 1 for q in indices]
    leaves = [blocks[p * block_len : (p + 1) * block_len] for p in positions]
    # the sibling of an odd m's last block is a padding block, past the buffer
    pad = bytes(block_len)
    siblings = [blocks[(at := (p ^ 1) * block_len) : at + block_len] or pad for p in positions]
    # one sibling digest per level below the root, from level 1 upward
    levels = []
    for depth, level in enumerate(tree.flat_levels, 1):
        levels.append([
            level[(at := ((p >> depth) ^ 1) * HASH_LEN) : at + HASH_LEN] for p in positions
        ])
    for depth, level in enumerate(tree.upper_levels, len(tree.flat_levels) + 1):
        levels.append([level[(p >> depth) ^ 1] for p in positions])
    digests = zip(*levels) if levels else [()] * len(positions)
    return tuple(map(MerklePath, leaves, siblings, digests, indices))


def verify(paths: Iterable[MerklePath], root: bytes) -> int | None:
    """The 1-based position of the first path that does not recompute
    ``root``, or None when every one does. Never raises on decoded bytes.

    Each path is hashed on its own, in full (1 + len(sibling_digests)
    nodes), in order, so re-checking any one path costs its share of the
    whole. The first failure stops the loop, and the hashes made up to it
    are tallied once. A path whose leaf index is below 1 fails unhashed.
    """
    hashes = 0
    for g, (leaf_block, sibling_block, sibling_digests, leaf_index) in enumerate(paths, 1):
        if leaf_index < 1:
            break
        pos = leaf_index - 1
        pair = sibling_block + leaf_block if pos & 1 else leaf_block + sibling_block
        node = node_sha256(pair).digest()[:HASH_LEN]
        for sibling in sibling_digests:
            pos >>= 1
            pair = sibling + node if pos & 1 else node + sibling
            node = node_sha256(pair).digest()[:HASH_LEN]
        hashes += 1 + len(sibling_digests)
        if node != root:
            break
    else:
        g = None
    tally(hashes)
    return g
