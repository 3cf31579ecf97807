"""File encoding, challenge derivation, proving, and first-failure verification."""

import dataclasses
import hashlib
import random
import re
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porpay import crypto, merkle, por
from porpay.hashing import count_hash_calls


def make_session(m=8, payload=8, phi=None, seed=0):
    """The prover's tree over a fresh encoded file, its public parameters,
    and the rng that made the file."""
    rng = random.Random(seed)
    file = rng.randbytes(m * payload)
    blocks, pp = por.setup(file, payload, phi or m)
    tree, _ = merkle.gen_tree(blocks, payload + por.INDEX_LEN)
    return tree, pp, rng


def reference_blocks(coded: bytes, payload: int) -> list[bytes]:
    """Independent per-block loop: zero-fill the last payload, suffix the
    1-based index."""
    blocks = []
    for i in range(0, len(coded), payload):
        chunk = coded[i : i + payload]
        chunk += bytes(payload - len(chunk))
        blocks.append(chunk + (len(blocks) + 1).to_bytes(4, "big"))
    return blocks


def split_blocks(blocks: bytes, width: int) -> list[bytes]:
    """A block buffer cut into its ``width``-byte blocks, 1..m in order."""
    return [blocks[i : i + width] for i in range(0, len(blocks), width)]


def reference_root(blocks: list[bytes]) -> bytes:
    """Zero-pad to a power of two (at least 2) and hash pairs upward."""
    n = 2
    while n < len(blocks):
        n *= 2
    nodes = blocks + [bytes(len(blocks[0]))] * (n - len(blocks))
    while len(nodes) > 1:
        nodes = [
            hashlib.sha256(nodes[i] + nodes[i + 1]).digest()[:16]
            for i in range(0, len(nodes), 2)
        ]
    return nodes[0]


def corrupt_entry(pi, position, byte_pos=0):
    """Flip one payload byte of the entry at 1-based ``position``."""
    path = pi[position - 1]
    bad = bytearray(path.leaf_block)
    bad[byte_pos] ^= 0x01
    return pi[: position - 1] + (path._replace(leaf_block=bytes(bad)),) + pi[position:]


class TestSetup:
    def test_64_byte_file_gives_four_indexed_blocks(self):
        file = bytes(range(64))
        blocks, pp = por.setup(file, 16, phi=4)
        assert pp.m == 4
        for i, block in enumerate(split_blocks(blocks, 20), start=1):
            assert block[-4:] == i.to_bytes(4, "big")
            assert len(block) == 20

    def test_65_byte_file_pads_last_payload(self):
        blocks, pp = por.setup(bytes(65), 16, phi=5)
        assert pp.m == 5
        assert split_blocks(blocks, 20)[-1][:16] == bytes(16)

    def test_sigma_is_tree_root_over_blocks(self):
        blocks, pp = por.setup(b"some file content here", 8, phi=2)
        _, root = merkle.gen_tree(blocks, 8 + por.INDEX_LEN)
        assert pp.sigma == root

    @pytest.mark.parametrize("size, payload, codec", [
        (1000, 16, None),
        (1024, 16, None),
        (1, 16, None),
        (77, 8, None),
        (1000, 16, partial(por.xor_parity, n=16)),
        (333, 8, partial(por.xor_parity, n=8)),
        (1, 1, None),
        (77, 1, None),
        (100, 3, None),
        (101, 3, partial(por.xor_parity, n=3)),
        (4000, 7, partial(por.xor_parity, n=7)),
        (1000, 7, None),
        # 2-byte words: payloads of 2 and 6 bytes
        (101, 2, None),
        (1001, 6, None),
        (1, 6, None),
        (600, 6, partial(por.xor_parity, n=6)),
        # 4-byte words at a longer payload, and a file below one payload
        (1001, 12, None),
        (5, 8, None),
    ])
    def test_blocks_and_root_match_reference_loop(self, size, payload, codec):
        # ``codec`` is the pre-encoding setup applies with parity, or None
        file = random.Random(size).randbytes(size)
        blocks, pp = por.setup(file, payload, phi=1, parity=codec is not None)
        coded = codec(file) if codec is not None else file
        expected = reference_blocks(coded, payload)
        assert blocks == b"".join(expected)
        assert pp.m == len(expected)
        assert pp.sigma == reference_root(expected)

    @pytest.mark.parametrize("codec", [None, partial(por.xor_parity, n=3)])
    def test_blocks_are_one_buffer_shared_with_the_tree(self, codec, monkeypatch):
        built = []
        gen_tree = merkle.gen_tree

        def recording_gen_tree(blocks, block_len):
            tree, root = gen_tree(blocks, block_len)
            built.append(tree)
            return tree, root

        monkeypatch.setattr(merkle, "gen_tree", recording_gen_tree)
        blocks, pp = por.setup(bytes(range(200)), 3, phi=1, parity=codec is not None)
        assert type(blocks) is bytes
        assert len(blocks) == pp.m * 7
        [tree] = built
        assert tree.blocks is blocks
        assert tree.block_len == 7

    @pytest.mark.parametrize("short", [0, 3, 15])
    def test_tagging_copies_no_file(self, short):
        # the payload columns are read through a view of the file, and a
        # short last payload is copied alone: the peak holds the tagged
        # blocks (1.25x the file at a 16-byte payload) and the 4-byte
        # indices (0.25x), and a copy of the file would add 1x more
        coded = random.Random(short).randbytes((1 << 16) * 16 - short)
        tracemalloc.start()
        try:
            blocks = por._index_tagged(coded, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks == b"".join(reference_blocks(coded, 16))
        assert peak < 1.75 * len(coded)

    def test_empty_file(self):
        with pytest.raises(por.EmptyFile):
            por.setup(b"", 16)

    @pytest.mark.parametrize("payload", [0, -16])
    def test_non_positive_payload_len_rejected(self, payload):
        with pytest.raises(ValueError):
            por.setup(bytes(32), payload, phi=1)

    def test_phi_above_m_rejected(self):
        with pytest.raises(ValueError):
            por.setup(bytes(32), 16, phi=3)


class TestGenQuery:
    def test_two_calls_distinct(self):
        rng = random.Random(0)
        assert por.gen_query(rng) != por.gen_query(rng)

    def test_seeded_reproducible(self):
        assert por.gen_query(random.Random(5)) == por.gen_query(random.Random(5))

    def test_key_length(self):
        assert len(por.gen_query(random.Random(0))) == 16


class TestDeriveIndices:
    def test_all_in_range(self):
        rng = random.Random(1)
        for _ in range(50):
            key = rng.randbytes(16)
            m = rng.randrange(1, 200)
            for q in por.derive_indices(key, 25, m):
                assert 1 <= q <= m

    def test_m_one_gives_all_ones(self):
        assert por.derive_indices(bytes(16), 5, 1) == [1, 1, 1, 1, 1]

    def test_fixed_vector(self):
        # frozen from an independent hashlib + modulus script
        assert por.derive_indices(bytes(16), 3, 8) == [6, 6, 6]

    def test_matches_independent_prf(self):
        key = b"\x42" * 16
        out = hashlib.sha256(key + (1).to_bytes(8, "big")).digest()[:16]
        expected = (int.from_bytes(out, "big") % 10) + 1
        assert por.derive_indices(key, 1, 10) == [expected]

    @pytest.mark.parametrize("phi, m", [(1, 1), (5, 8), (460, 1 << 16), (460, 715)])
    def test_one_counted_hash_per_index(self, phi, m):
        # the PRF hashes key || 8-byte counter once per index, whichever
        # SHA-256 constructor it uses, and every hash is counted
        key = random.Random(phi + m).randbytes(16)
        expected = [
            int.from_bytes(hashlib.sha256(key + i.to_bytes(8, "big")).digest()[:16], "big")
            % m
            + 1
            for i in range(1, phi + 1)
        ]
        with count_hash_calls() as taken:
            assert por.derive_indices(key, phi, m) == expected
            assert taken() == phi


    @pytest.mark.parametrize("m", [1, 715, 1 << 16])
    def test_agrees_with_prf_at_every_position(self, m):
        # the dispute re-check derives q_g alone through crypto.prf; it must
        # be the index the full derivation put at position g
        key = random.Random(m).randbytes(16)
        assert por.derive_indices(key, 460, m) == [
            int.from_bytes(crypto.prf(key, g), "big") % m + 1 for g in range(1, 461)
        ]


class TestProveVerify:
    def test_honest_roundtrip(self):
        tree, pp, rng = make_session(m=16, phi=6)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        assert por.verify(pi, key, pp) == por.Verdict()

    def test_entry_count_is_phi(self):
        tree, pp, rng = make_session(m=16, phi=6)
        assert len(por.prove(tree, por.gen_query(rng), pp)) == 6

    def test_entries_carry_derived_indices(self):
        tree, pp, rng = make_session(m=16, phi=6)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        for path, q in zip(pi, por.derive_indices(key, pp.phi, pp.m)):
            assert int.from_bytes(path.leaf_block[-4:], "big") == q
            assert path.leaf_index == q

    def test_param_mismatch(self):
        tree, pp, rng = make_session(m=8)
        other, _ = por.setup(bytes(32), 8, phi=4)
        other_tree, _ = merkle.gen_tree(other, 8 + por.INDEX_LEN)
        with pytest.raises(por.ParamMismatch):
            por.prove(other_tree, por.gen_query(rng), pp)

    def test_first_failure_is_reported(self):
        tree, pp, rng = make_session(m=32, phi=5)
        key = por.gen_query(rng)
        pi = corrupt_entry(por.prove(tree, key, pp), position=3)
        assert por.verify(pi, key, pp) == por.Verdict(3)

    def test_index_mismatch_caught_in_first_pass(self):
        tree, pp, rng = make_session(m=32, phi=5)
        key = por.gen_query(rng)
        pi = list(por.prove(tree, key, pp))
        entry = pi[2]
        pi[2] = entry._replace(leaf_block=entry.leaf_block[:-4] + (99).to_bytes(4, "big"))
        assert por.verify(tuple(pi), key, pp) == por.Verdict(3)

    def test_short_vector_rejected(self):
        tree, pp, rng = make_session(m=16, phi=4)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        assert por.verify(pi[:2], key, pp).accepted is False

    @settings(max_examples=30)
    @given(st.data())
    def test_honest_acceptance_property(self, data):
        payload = data.draw(st.integers(min_value=1, max_value=8))
        m = data.draw(st.integers(min_value=1, max_value=64))
        phi = data.draw(st.integers(min_value=1, max_value=m))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        rng = random.Random(seed)
        file = rng.randbytes(m * payload)
        blocks, pp = por.setup(file, payload, phi)
        tree, _ = merkle.gen_tree(blocks, payload + por.INDEX_LEN)
        key = por.gen_query(rng)
        assert por.verify(por.prove(tree, key, pp), key, pp).accepted

    def test_challenge_agreement_between_parties(self):
        _, pp, rng = make_session(m=64, phi=16)
        key = por.gen_query(rng)
        client_view = por.derive_indices(key, pp.phi, pp.m)
        server_view = por.derive_indices(key, pp.phi, pp.m)
        assert client_view == server_view


class TestSingleProofMode:
    def test_valid_single_entry_accepted(self):
        tree, pp, rng = make_session(m=8, phi=4)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        q = por.derive_indices(key, pp.phi, pp.m)[2]
        assert por.verify((pi[2],), [q], pp) == por.Verdict()

    def test_flipped_digest_rejected(self):
        # cross-checked against full-vector verification restricted to the entry
        tree, pp, rng = make_session(m=8, phi=4)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        q = por.derive_indices(key, pp.phi, pp.m)[2]
        entry = pi[2]
        digests = list(entry.sibling_digests)
        digests[0] = bytes(16)
        bad = entry._replace(sibling_digests=tuple(digests))
        assert por.verify((bad,), [q], pp) == por.Verdict(1)

    def test_misbehaviour_link_matches_full_verification(self):
        # the invariant the dispute resolver relies on: the single re-check at
        # the reported position g fails, and every earlier entry still passes
        tree, pp, rng = make_session(m=32, phi=7)
        key = por.gen_query(rng)
        indices = por.derive_indices(key, pp.phi, pp.m)
        for g in (1, 4, 7):
            pi = corrupt_entry(por.prove(tree, key, pp), position=g)
            verdict = por.verify(pi, key, pp)
            assert verdict == por.Verdict(g)
            assert por.verify((pi[g - 1],), [indices[g - 1]], pp) == por.Verdict(1)
            for earlier in range(1, g):
                assert por.verify(
                    (pi[earlier - 1],), [indices[earlier - 1]], pp
                ).accepted


class TestHashCounts:
    """Exact hash counts at m = 8, phi = 5: deriving the challenge costs one
    PRF hash per index and each path verification hashes height = 3 nodes."""

    def session(self):
        tree, pp, rng = make_session(m=8, phi=5)
        return tree, pp, por.gen_query(rng)

    def test_prove_hashes_only_the_challenge(self):
        tree, pp, key = self.session()
        with count_hash_calls() as taken:
            por.prove(tree, key, pp)
            assert taken() == 5

    def test_verify_accept(self):
        tree, pp, key = self.session()
        pi = por.prove(tree, key, pp)
        with count_hash_calls() as taken:
            assert por.verify(pi, key, pp).accepted
            assert taken() == 5 + 5 * 3

    def test_verify_reject_in_pass_one_hashes_no_path(self):
        tree, pp, key = self.session()
        pi = list(por.prove(tree, key, pp))
        entry = pi[3]
        wrong = entry.leaf_block[:-4] + (99).to_bytes(4, "big")
        pi[3] = entry._replace(leaf_block=wrong)
        with count_hash_calls() as taken:
            assert por.verify(tuple(pi), key, pp) == por.Verdict(4)
            assert taken() == 5

    @pytest.mark.parametrize("g", [1, 3, 5])
    def test_verify_reject_in_pass_two_stops_at_g(self, g):
        tree, pp, key = self.session()
        pi = corrupt_entry(por.prove(tree, key, pp), position=g)
        with count_hash_calls() as taken:
            assert por.verify(pi, key, pp) == por.Verdict(g)
            assert taken() == 5 + g * 3

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_single_entry_recheck(self, corrupt):
        tree, pp, key = self.session()
        pi = por.prove(tree, key, pp)
        if corrupt:
            pi = corrupt_entry(pi, position=2)
        q = por.derive_indices(key, pp.phi, pp.m)[1]
        with count_hash_calls() as taken:
            assert por.verify((pi[1],), [q], pp).accepted is not corrupt
            assert taken() == 3


class TestDetection:
    def test_full_coverage_catches_any_corrupt_block(self):
        # explicit query over every index forces full coverage at small m
        tree, pp, rng = make_session(m=8, phi=8)
        all_indices = list(range(1, 9))
        for target in all_indices:
            entries = merkle.prove(tree, all_indices)
            entries = corrupt_entry(entries, position=target)
            verdict = por.verify(entries, all_indices, pp)
            assert verdict == por.Verdict(target)

    def test_corrupting_unchallenged_blocks_keeps_acceptance(self):
        tree, pp, rng = make_session(m=16, phi=3)
        key = por.gen_query(rng)
        challenged = set(por.derive_indices(key, pp.phi, pp.m))
        # a path carries its block's sibling block too
        siblings = {((i - 1) ^ 1) + 1 for i in challenged} - challenged
        unread = [i for i in range(1, 17) if i not in challenged | siblings]
        assert unread and siblings, "need blocks outside and inside the paths"

        def rot(indices):
            blocks = split_blocks(tree.blocks, tree.block_len)
            for i in indices:
                rotted = bytearray(blocks[i - 1])
                rotted[0] ^= 0xFF
                blocks[i - 1] = bytes(rotted)
            # the prover's buffer rots; the tree's digests stay as built
            return dataclasses.replace(tree, blocks=b"".join(blocks))

        assert por.verify(por.prove(rot(unread), key, pp), key, pp).accepted
        assert not por.verify(por.prove(rot(siblings), key, pp), key, pp).accepted


class TestGuards:
    """Each guard in ``por`` pinned by a test: a comparison, an ``and`` or an
    ``or`` or a bound moved by one in any of them fails one of these."""

    def test_default_phi_is_the_papers(self):
        # the paper's phi = 460 challenged blocks per cycle
        _, pp = por.setup(bytes(16 * 500))
        assert pp.phi == por.DEFAULT_PHI == 460

    @pytest.mark.parametrize("phi, m", [(0, 5), (-1, 5), (5, 0), (5, -1)])
    def test_derive_needs_positive_phi_and_m(self, phi, m):
        with pytest.raises(ValueError, match="must be positive"):
            por.derive_indices(bytes(16), phi, m)

    @pytest.mark.parametrize("phi, m, message", [
        (1, 0, "block count"), (1, -1, "block count"), (0, 5, "challenge count"),
        (-1, 5, "challenge count"), (6, 5, "challenge count"),
    ])
    def test_public_params_bounds(self, phi, m, message):
        with pytest.raises(ValueError, match=message):
            por.PublicParams(bytes(16), phi=phi, m=m)
        # the bounds themselves are admitted
        assert por.PublicParams(bytes(16), phi=1, m=1).phi == 1

    @pytest.mark.parametrize("chunk_len", [0, -1])
    def test_codec_needs_positive_chunk_len(self, chunk_len):
        with pytest.raises(ValueError, match="chunk length"):
            por.xor_parity(b"data", chunk_len)

    def test_codec_takes_one_byte_chunks(self):
        # four 1-byte chunks, then their XOR
        assert por.xor_parity(bytes([1, 2, 4, 8]), 1) == bytes([1, 2, 4, 8, 15])

    @pytest.mark.parametrize("keep", [0, 1, 2, 3, 5])
    def test_wrong_vector_length_fails_at_first_unmatched_entry(self, keep):
        # a short vector fails at its first missing entry; a long one at the
        # last expected entry
        tree, pp, rng = make_session(m=16, phi=4)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        vector = (pi + pi)[:keep]
        assert por.verify(vector, key, pp) == por.Verdict(min(keep + 1, 4))

    def test_block_of_index_length_fails_in_pass_one(self):
        # entry 2's block is its 4-byte index tag alone, and entry 4 carries a
        # wrong tag: pass 1 stops at entry 2, so no path is hashed
        tree, pp, rng = make_session(m=32, phi=5)
        key = por.gen_query(rng)
        pi = list(por.prove(tree, key, pp))
        pi[1] = pi[1]._replace(leaf_block=pi[1].leaf_block[-por.INDEX_LEN :])
        pi[3] = pi[3]._replace(leaf_block=pi[3].leaf_block[:-4] + (99).to_bytes(4, "big"))
        with count_hash_calls() as taken:
            assert por.verify(tuple(pi), key, pp) == por.Verdict(2)
            assert taken() == 5  # the challenge derivation alone


class TestCodecs:
    def test_xor_parity_appends_group_parity(self):
        data = bytes(range(16))
        coded = por.xor_parity(data, 4)
        chunks = [coded[i : i + 4] for i in range(0, len(coded), 4)]
        assert len(chunks) == 5
        parity = bytes(a ^ b ^ c ^ d for a, b, c, d in zip(*chunks[:4]))
        assert chunks[4] == parity

    def test_xor_parity_short_final_chunk_and_partial_group(self):
        # 6 whole chunks plus 1 byte: groups of 4 and 3 chunks, the last
        # chunk zero-filled
        data = bytes(range(1, 26))
        coded = por.xor_parity(data, 4)
        chunks = [data[i : i + 4].ljust(4, b"\x00") for i in range(0, 25, 4)]
        assert len(chunks) == 7

        def parity(group):
            out = bytearray(4)
            for chunk in group:
                for k, byte in enumerate(chunk):
                    out[k] ^= byte
            return bytes(out)

        expected = (b"".join(chunks[:4]) + parity(chunks[:4])
                    + b"".join(chunks[4:]) + parity(chunks[4:]))
        assert coded == expected
        assert len(coded) == 9 * 4

    def test_setup_with_parity_codec_adds_blocks(self):
        file = bytes(range(64))
        plain, plain_pp = por.setup(file, 16, phi=4)
        coded, pp = por.setup(file, 16, phi=4, parity=True)
        assert (len(plain), plain_pp.m) == (4 * 20, 4)
        assert (len(coded), pp.m) == (5 * 20, 5)


class TestReadme:
    def test_python_blocks_run(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
        assert blocks
        for block in blocks:
            exec(compile(block, str(readme), "exec"), {})
