"""Tree construction, proofs, verification, and tamper detection."""

import hashlib
import os
import random
import signal
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porpay import merkle
from porpay.hashing import count_hash_calls


def h16(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()[:16]


def naive_root(blocks: list[bytes]) -> bytes:
    """Independent recursive oracle: zero-pad to a power of two, hash pairs."""
    width = len(blocks[0])
    n = 2
    while n < len(blocks):
        n *= 2
    nodes = list(blocks) + [bytes(width)] * (n - len(blocks))
    while len(nodes) > 1:
        nodes = [h16(nodes[i] + nodes[i + 1]) for i in range(0, len(nodes), 2)]
    return nodes[0]


def blocks_of(n: int, width: int = 8) -> list[bytes]:
    return [bytes([i + 1]) * width for i in range(n)]


def tree_of(blocks: list[bytes]) -> tuple[merkle.MerkleTree, bytes]:
    """Build the tree over a block list, laid out back to back as
    ``gen_tree`` takes it, with the first block's length."""
    return merkle.gen_tree(b"".join(blocks), len(blocks[0]))


def reference_levels(buffer: bytes, width: int) -> list[list[bytes]]:
    """Every level of the tree over ``buffer``'s ``width``-byte blocks, from
    level 1 (the hashes of block pairs) to the root, each a plain list of
    ``hashlib`` digests."""
    n = merkle.padded_leaf_count(len(buffer) // width)
    leaves = buffer + bytes(n * width - len(buffer))
    level = [h16(leaves[i : i + 2 * width]) for i in range(0, n * width, 2 * width)]
    levels = [level]
    while len(level) > 1:
        level = [h16(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def tree_levels(tree: merkle.MerkleTree) -> list[list[bytes]]:
    """Every level of ``tree`` below the root, from level 1, as digest lists."""
    flat = [[level[i : i + 16] for i in range(0, len(level), 16)] for level in tree.flat_levels]
    return flat + list(tree.upper_levels)


def reference_path(buffer: bytes, width: int, levels: list[list[bytes]],
                   index: int) -> merkle.MerklePath:
    pos = index - 1
    block = buffer[pos * width : index * width]
    sibling = buffer[(pos ^ 1) * width : ((pos ^ 1) + 1) * width] or bytes(width)
    digests = tuple(level[(pos >> depth) ^ 1] for depth, level in enumerate(levels[:-1], 1))
    return merkle.MerklePath(block, sibling, digests, index)


class TestGenTree:
    def test_four_block_root_is_two_level_hash(self):
        b1, b2, b3, b4 = (bytes([v]) * 16 for v in (1, 2, 3, 4))
        _, root = tree_of([b1, b2, b3, b4])
        assert root == h16(h16(b1 + b2) + h16(b3 + b4))

    def test_three_blocks_pad_with_zero_block(self):
        b1, b2, b3 = (bytes([v]) * 16 for v in (1, 2, 3))
        _, root = tree_of([b1, b2, b3])
        assert root == h16(h16(b1 + b2) + h16(b3 + bytes(16)))

    def test_fixed_vector(self):
        # frozen from a standalone two-level hash script
        blocks = [bytes([v]) * 16 for v in (1, 2, 3, 4)]
        _, root = tree_of(blocks)
        assert root.hex() == "a2c8182f5ad25b50deebc7eab3a28456"

    def test_deterministic(self):
        blocks = blocks_of(6)
        assert tree_of(blocks)[1] == tree_of(blocks)[1]

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_matches_naive_oracle(self, m):
        blocks = blocks_of(m)
        assert tree_of(blocks)[1] == naive_root(blocks)

    def test_single_block_pads_to_pair(self):
        blocks = [b"\x07" * 8]
        _, root = tree_of(blocks)
        assert root == h16(blocks[0] + bytes(8))

    def test_empty_input(self):
        with pytest.raises(merkle.EmptyInput):
            merkle.gen_tree(b"", 8)

    def test_unequal_block_length(self):
        with pytest.raises(merkle.UnequalBlockLength):
            tree_of([b"aa", b"bbb"])

    @pytest.mark.parametrize("size, block_len", [(7, 8), (16, 0)])
    def test_partial_block_rejected(self, size, block_len):
        with pytest.raises(merkle.UnequalBlockLength):
            merkle.gen_tree(bytes(size), block_len)

    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_tree_holds_the_buffer_itself(self, m):
        buffer = b"".join(blocks_of(m))
        tree, _ = merkle.gen_tree(buffer, 8)
        assert tree.blocks is buffer
        assert (tree.block_len, tree.m) == (8, m)

    def test_unequal_length_in_last_block_only(self):
        blocks = blocks_of(5)
        blocks[-1] += b"\x00"
        with pytest.raises(merkle.UnequalBlockLength):
            tree_of(blocks)


class TestLayout:
    """The flat lowest levels and the list levels above them hold the same
    digests, and give the same proofs, as a tree of plain per-level lists,
    for shapes of every height around ``FLAT_LEVELS``, past the hashing
    chunk, and on either side of ``_SPLIT_LEAVES``."""

    WIDTH = 20  # a 16-byte payload and its 4-byte index

    @pytest.mark.parametrize(
        "m", [1, 2, 3, 5, 8, 9, 17, 715, 2**13, 2**14, 2**14 + 5, 2**16, 70_000]
    )
    def test_matches_list_reference(self, m):
        buffer = random.Random(m).randbytes(m * self.WIDTH)
        with count_hash_calls() as taken:
            tree, root = merkle.gen_tree(buffer, self.WIDTH)
            assert taken() == merkle.padded_leaf_count(m) - 1
        levels = reference_levels(buffer, self.WIDTH)
        assert root == levels[-1][0]
        assert tree_levels(tree) == levels[:-1]
        # the flat levels are the lowest FLAT_LEVELS, or all below the root
        assert len(tree.flat_levels) == min(merkle.FLAT_LEVELS, len(levels) - 1)
        if m <= 1024:
            indices = range(1, m + 1)
        else:
            # every power-of-two boundary and its neighbours, plus a stride
            edges = {(1 << k) + d for k in range(17) for d in (-1, 0, 1)}
            indices = sorted({i for i in edges if 1 <= i <= m} | set(range(1, m + 1, 61)))
        paths = merkle.prove(tree, indices)
        assert paths == tuple(reference_path(buffer, self.WIDTH, levels, i) for i in indices)
        assert merkle.verify(paths, root) is None

    @pytest.mark.parametrize("m", [1, 5, 715])
    def test_bytearray_buffer_gives_same_root(self, m):
        # the client hashes a bytearray for its ill_formed_metadata root
        buffer = random.Random(m).randbytes(m * self.WIDTH)
        assert (merkle.gen_tree(bytearray(buffer), self.WIDTH)[1]
                == merkle.gen_tree(buffer, self.WIDTH)[1])

    def test_build_memory_bounded(self, monkeypatch):
        # a digest as its own object costs about 72 bytes with its list slot,
        # a flat digest 16: at m = 2^16 the tree of per-level digest lists
        # peaked at 3.76 MB, the flat lowest levels keep it near 1.5 MB.
        # tracemalloc does not see mappings, so the length of every one the
        # build makes is added: the flat levels, and the worker's part of
        # the lowest list level when the build splits
        m = 2**16
        buffer = random.Random(1).randbytes(m * self.WIDTH)
        mapped = []
        mapping = merkle._mapping
        monkeypatch.setattr(merkle, "_mapping", lambda size: mapped.append(size) or mapping(size))
        tracemalloc.start()
        try:
            tree, _ = merkle.gen_tree(buffer, self.WIDTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        flat = sum(len(level) for level in tree.flat_levels)
        assert flat == (m // 2 + m // 4 + m // 8) * 16
        assert sum(mapped) in (flat, flat + m // 32 * 16)
        assert peak + sum(mapped) < 2_000_000


class TestSplit:
    """From ``_SPLIT_LEAVES`` padded leaves on, a forked worker hashes the
    right half of the flat levels. The tree, its root and the hash count
    are those of the serial build whatever the worker does, and no worker
    outlives ``gen_tree``."""

    WIDTH = 20
    M = 2**16

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids ``os.fork`` returns in this process, on a host seen as
        two CPUs, so the split does not depend on the test host's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pids = []
        fork = os.fork

        def recording():
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", recording)
        return pids

    @pytest.fixture
    def parent_calls(self, monkeypatch):
        """The leaf ranges this process (not a worker) passes to
        ``_hash_nodes``."""
        calls = []
        hash_nodes = merkle._hash_nodes

        def recording(leaves, block_len, flat, first, last):
            calls.append((first, last))
            return hash_nodes(leaves, block_len, flat, first, last)

        monkeypatch.setattr(merkle, "_hash_nodes", recording)
        return calls

    def serial(self, buffer, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(merkle, "_SPLIT_LEAVES", float("inf"))
            return merkle.gen_tree(buffer, self.WIDTH)

    def assert_same_tree(self, built, serial):
        (tree, root), (serial_tree, serial_root) = built, serial
        assert root == serial_root
        assert tree_levels(tree) == tree_levels(serial_tree)

    def assert_no_worker_left(self):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "m, splits", [(2**13, False), (2**14, True), (2**14 + 5, True), (2**16, True), (70_000, True)]
    )
    def test_split_tree_equals_serial(self, m, splits, forks, monkeypatch):
        # 2^14 padded leaves is the least that splits: below it a split
        # cost more than it saved
        buffer = random.Random(m).randbytes(m * self.WIDTH)
        with count_hash_calls() as taken:
            built = merkle.gen_tree(buffer, self.WIDTH)
            assert taken() == merkle.padded_leaf_count(m) - 1
        assert len(forks) == splits
        self.assert_no_worker_left()
        self.assert_same_tree(built, self.serial(buffer, monkeypatch))
        assert len(forks) == splits

    def test_parent_hashes_left_half_only(self, forks, parent_calls):
        merkle.gen_tree(bytes(self.M * self.WIDTH), self.WIDTH)
        assert parent_calls == [(0, self.M // 4)]

    def test_fork_failure_hashes_right_half_here(self, forks, parent_calls, monkeypatch):
        buffer = random.Random(2).randbytes(self.M * self.WIDTH)

        def failing():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", failing)
        built = merkle.gen_tree(buffer, self.WIDTH)
        assert parent_calls == [(0, self.M // 4), (self.M // 4, self.M // 2)]
        self.assert_same_tree(built, self.serial(buffer, monkeypatch))

    @pytest.mark.parametrize("how", ["raises", "killed"])
    def test_failed_worker_hashes_right_half_here(self, how, forks, parent_calls, monkeypatch):
        buffer = random.Random(3).randbytes(self.M * self.WIDTH)
        parent = os.getpid()
        flat_digests = merkle._flat_digests

        def failing_in_worker(*args):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("worker fails")
            return flat_digests(*args)

        monkeypatch.setattr(merkle, "_flat_digests", failing_in_worker)
        built = merkle.gen_tree(buffer, self.WIDTH)
        assert len(forks) == 1
        assert parent_calls == [(0, self.M // 4), (self.M // 4, self.M // 2)]
        self.assert_no_worker_left()
        monkeypatch.setattr(merkle, "_flat_digests", flat_digests)
        self.assert_same_tree(built, self.serial(buffer, monkeypatch))

    def test_worker_reaped_when_parent_half_raises(self, forks, monkeypatch):
        parent = os.getpid()
        flat_digests = merkle._flat_digests

        def failing_in_parent(*args):
            if os.getpid() == parent:
                raise RuntimeError("parent fails")
            return flat_digests(*args)

        monkeypatch.setattr(merkle, "_flat_digests", failing_in_parent)
        with pytest.raises(RuntimeError, match="parent fails"):
            merkle.gen_tree(bytes(self.M * self.WIDTH), self.WIDTH)
        assert len(forks) == 1
        self.assert_no_worker_left()

    def test_worker_reaped_already(self, forks, monkeypatch):
        # with SIGCHLD ignored the kernel reaps the worker itself, so its
        # exit status is lost and the parent hashes the right half
        buffer = random.Random(4).randbytes(self.M * self.WIDTH)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            built = merkle.gen_tree(buffer, self.WIDTH)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 1
        self.assert_same_tree(built, self.serial(buffer, monkeypatch))

    def test_second_thread_stays_serial(self, forks, parent_calls):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            merkle.gen_tree(bytes(self.M * self.WIDTH), self.WIDTH)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert parent_calls == [(0, self.M // 2)]

    def test_one_cpu_stays_serial(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        merkle.gen_tree(bytes(self.M * self.WIDTH), self.WIDTH)
        assert forks == []

    def test_reads_its_own_affinity(self, forks, monkeypatch):
        # pid 0 is the calling process; any other process's CPUs say nothing
        own = {0, os.getpid()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if pid in own else {0})
        merkle.gen_tree(bytes(self.M * self.WIDTH), self.WIDTH)
        assert len(forks) == 1

    @pytest.mark.parametrize("cpus, splits", [(None, False), (1, False), (2, True)])
    def test_cpu_count_read_without_affinity(self, cpus, splits, forks, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        merkle.gen_tree(bytes(self.M * self.WIDTH), self.WIDTH)
        assert len(forks) == splits

    def test_no_fork_stays_serial(self, forks, parent_calls, monkeypatch):
        monkeypatch.delattr(os, "fork")
        merkle.gen_tree(bytes(self.M * self.WIDTH), self.WIDTH)
        assert parent_calls == [(0, self.M // 2)]


class TestProve:
    def test_m4_index1_structure(self):
        blocks = blocks_of(4)
        tree, _ = tree_of(blocks)
        path, = merkle.prove(tree, [1])
        assert path.leaf_block == blocks[0]
        assert path.sibling_block == blocks[1]
        assert path.sibling_digests == (h16(blocks[2] + blocks[3]),)

    def test_m4_index4_structure(self):
        blocks = blocks_of(4)
        tree, _ = tree_of(blocks)
        path, = merkle.prove(tree, [4])
        assert path.leaf_block == blocks[3]
        assert path.sibling_block == blocks[2]
        assert path.sibling_digests == (h16(blocks[0] + blocks[1]),)

    def test_m8_index5_has_three_sibling_elements(self):
        # brute-force enumeration of the m=8 tree
        blocks = blocks_of(8)
        tree, _ = tree_of(blocks)
        path, = merkle.prove(tree, [5])
        level1 = [h16(blocks[i] + blocks[i + 1]) for i in range(0, 8, 2)]
        level2 = [h16(level1[0] + level1[1]), h16(level1[2] + level1[3])]
        assert path.sibling_block == blocks[5]
        assert path.sibling_digests == (level1[3], level2[0])
        assert 1 + len(path.sibling_digests) == 3

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_last_leaf_of_odd_m_has_zero_sibling(self, m):
        blocks = blocks_of(m)
        tree, root = tree_of(blocks)
        path, = merkle.prove(tree, [m])
        assert path.leaf_block == blocks[-1]
        assert path.sibling_block == bytes(8)
        assert merkle.verify((path,), root) is None

    @pytest.mark.parametrize("index", [0, 5, -1])
    def test_index_out_of_range(self, index):
        tree, _ = tree_of(blocks_of(4))
        with pytest.raises(merkle.IndexOutOfRange):
            merkle.prove(tree, [index])


class TestVerify:
    def test_rejects_wrong_root(self):
        tree, root = tree_of(blocks_of(4))
        paths = merkle.prove(tree, [2])
        assert merkle.verify(paths, root) is None
        assert merkle.verify(paths, bytes(len(root))) == 1

    @settings(max_examples=40)
    @given(
        m=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    def test_roundtrip_all_indices(self, m, data):
        width = data.draw(st.integers(min_value=1, max_value=12))
        blocks = [
            data.draw(st.binary(min_size=width, max_size=width)) for _ in range(m)
        ]
        tree, root = tree_of(blocks)
        assert merkle.verify(merkle.prove(tree, range(1, m + 1)), root) is None

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_tamper_any_byte_rejects(self, m):
        blocks = blocks_of(m)
        tree, root = tree_of(blocks)
        for path in merkle.prove(tree, range(1, m + 1)):
            for attr in ("leaf_block", "sibling_block"):
                value = getattr(path, attr)
                for pos in range(len(value)):
                    mutated = bytearray(value)
                    mutated[pos] ^= 0x01
                    bad = merkle.MerklePath(
                        leaf_block=bytes(mutated) if attr == "leaf_block" else path.leaf_block,
                        sibling_block=bytes(mutated) if attr == "sibling_block" else path.sibling_block,
                        sibling_digests=path.sibling_digests,
                        leaf_index=path.leaf_index,
                    )
                    assert merkle.verify((bad,), root) == 1
            for d_i, digest in enumerate(path.sibling_digests):
                for pos in range(len(digest)):
                    mutated = bytearray(digest)
                    mutated[pos] ^= 0x01
                    digests = list(path.sibling_digests)
                    digests[d_i] = bytes(mutated)
                    bad = merkle.MerklePath(
                        path.leaf_block, path.sibling_block, tuple(digests), path.leaf_index
                    )
                    assert merkle.verify((bad,), root) == 1
            for pos in range(len(root)):
                mutated = bytearray(root)
                mutated[pos] ^= 0x01
                assert merkle.verify((path,), bytes(mutated)) == 1

    def test_bad_leaf_index_rejected(self):
        tree, root = tree_of(blocks_of(4))
        path, = merkle.prove(tree, [1])
        bad = merkle.MerklePath(path.leaf_block, path.sibling_block, path.sibling_digests, 0)
        assert merkle.verify((bad,), root) == 1


class TestVector:
    """``prove`` and ``verify`` take a whole challenge vector: the paths come
    out in index order, repeats included, and ``verify`` reports the first
    failing position, having hashed every path up to it in full."""

    WIDTH = 20

    def session(self, m):
        buffer = random.Random(m).randbytes(m * self.WIDTH)
        tree, root = merkle.gen_tree(buffer, self.WIDTH)
        return buffer, tree, root

    def flipped(self, path):
        """``path`` with the first byte of its block flipped."""
        block = bytes([path.leaf_block[0] ^ 1]) + path.leaf_block[1:]
        return path._replace(leaf_block=block)

    @pytest.mark.parametrize("m", [1, 3, 715])
    def test_odd_m_and_repeats_match_list_reference(self, m):
        buffer, tree, _ = self.session(m)
        levels = reference_levels(buffer, self.WIDTH)
        # the last block of an odd m has a padding sibling; repeats are kept
        indices = [m, 1, m, (m + 1) // 2, 1, m]
        paths = merkle.prove(tree, indices)
        assert paths == tuple(reference_path(buffer, self.WIDTH, levels, i) for i in indices)
        assert paths[0].sibling_block == bytes(self.WIDTH)
        assert [p.leaf_index for p in paths] == indices

    def test_empty_vector(self):
        _, tree, root = self.session(5)
        assert merkle.prove(tree, []) == ()
        with count_hash_calls() as taken:
            assert merkle.verify((), root) is None
            assert taken() == 0

    def test_first_failing_position_for_every_g(self):
        _, tree, root = self.session(100)
        paths = merkle.prove(tree, random.Random(1).choices(range(1, 101), k=12))
        made = [1 + len(p.sibling_digests) for p in paths]
        with count_hash_calls() as taken:
            assert merkle.verify(paths, root) is None
            assert taken() == sum(made)
        for g in range(1, len(paths) + 1):
            # a later path is bad too, so only stopping at g gives g
            bad = list(paths)
            for at in {g - 1, len(bad) - 1}:
                bad[at] = self.flipped(bad[at])
            with count_hash_calls() as taken:
                assert merkle.verify(bad, root) == g
                assert taken() == sum(made[:g])

    @pytest.mark.parametrize("leaf_index", [0, -1, -(2**40)])
    @pytest.mark.parametrize("g", [1, 3, 5])
    def test_leaf_index_below_one_fails_unhashed(self, leaf_index, g):
        _, tree, root = self.session(8)
        paths = list(merkle.prove(tree, [1, 2, 3, 4, 5]))
        paths[g - 1] = paths[g - 1]._replace(leaf_index=leaf_index)
        with count_hash_calls() as taken:
            assert merkle.verify(paths, root) == g
            assert taken() == 3 * (g - 1)

    @pytest.mark.parametrize("change", [
        lambda p: p._replace(leaf_block=b""),
        lambda p: p._replace(leaf_block=p.leaf_block + b"\0"),
        lambda p: p._replace(sibling_block=p.sibling_block[:-1]),
        lambda p: p._replace(sibling_digests=()),
        lambda p: p._replace(sibling_digests=p.sibling_digests[:-1]),
        lambda p: p._replace(sibling_digests=p.sibling_digests + (bytes(16),)),
        lambda p: p._replace(sibling_digests=(b"", *p.sibling_digests[1:])),
        lambda p: p._replace(sibling_digests=(bytes(17), *p.sibling_digests[1:])),
        lambda p: p._replace(leaf_index=2**40),
    ], ids=["empty-block", "long-block", "short-sibling", "no-digests", "digest-missing",
            "digest-extra", "empty-digest", "long-digest", "index-past-m"])
    def test_malformed_path_fails_without_raising(self, change):
        _, tree, root = self.session(715)
        paths = merkle.prove(tree, [7, 700, 9])
        assert merkle.verify((paths[0], change(paths[1]), paths[2]), root) == 2

    @pytest.mark.parametrize("indices", [[1, 2, 0], [716, 1], [1, -3, 2], [5, 2**40, 5]])
    def test_out_of_range_raises_before_any_path(self, indices, monkeypatch):
        _, tree, _ = self.session(715)
        built = []
        path_type = merkle.MerklePath
        monkeypatch.setattr(merkle, "MerklePath", lambda *args: built.append(args) or path_type(*args))
        with pytest.raises(merkle.IndexOutOfRange):
            merkle.prove(tree, indices)
        assert built == []
        # the spy does see the paths of a vector in range
        merkle.prove(tree, [1, 715])
        assert len(built) == 2

    @settings(max_examples=60)
    @given(data=st.data())
    def test_vector_roundtrip(self, data):
        m = data.draw(st.integers(min_value=1, max_value=300))
        width = data.draw(st.integers(min_value=1, max_value=24))
        buffer = data.draw(st.binary(min_size=m * width, max_size=m * width))
        indices = data.draw(st.lists(st.integers(1, m), min_size=1, max_size=24))
        tree, root = merkle.gen_tree(buffer, width)
        levels = reference_levels(buffer, width)
        paths = merkle.prove(tree, indices)
        assert paths == tuple(reference_path(buffer, width, levels, i) for i in indices)
        assert merkle.verify(paths, root) is None
        g = data.draw(st.integers(1, len(paths)))
        bad = paths[: g - 1] + (self.flipped(paths[g - 1]),) + paths[g:]
        assert merkle.verify(bad, root) == g


class TestHashCounts:
    """Exact hash counts at m = 8 (tree height 3): a path verification
    hashes the leaf pair plus one node per sibling digest."""

    @pytest.mark.parametrize("m, hashes", [(1, 1), (5, 7), (8, 7)])
    def test_gen_tree_hashes_every_internal_node(self, m, hashes):
        # the padded leaf count n has n - 1 internal nodes
        with count_hash_calls() as taken:
            tree_of(blocks_of(m))
            assert taken() == hashes

    def test_accepting_path_hashes_whole_path(self):
        tree, root = tree_of(blocks_of(8))
        paths = merkle.prove(tree, [5])
        with count_hash_calls() as taken:
            assert merkle.verify(paths, root) is None
            assert taken() == 3

    def test_tampered_path_still_hashes_whole_path(self):
        tree, root = tree_of(blocks_of(8))
        path, = merkle.prove(tree, [6])
        bad = merkle.MerklePath(
            path.leaf_block, bytes(8), path.sibling_digests, path.leaf_index
        )
        with count_hash_calls() as taken:
            assert merkle.verify((bad,), root) == 1
            assert taken() == 3

    def test_leaf_index_zero_hashes_nothing(self):
        tree, root = tree_of(blocks_of(8))
        path, = merkle.prove(tree, [1])
        bad = merkle.MerklePath(
            path.leaf_block, path.sibling_block, path.sibling_digests, 0
        )
        with count_hash_calls() as taken:
            assert merkle.verify((bad,), root) == 1
            assert taken() == 0
