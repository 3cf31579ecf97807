"""File encoding, challenge derivation, proving, and first-failure verification."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porpay import merkle, por
from porpay.hashing import count_hash_calls


def make_session(m=8, payload=8, phi=None, seed=0):
    rng = random.Random(seed)
    file = rng.randbytes(m * payload)
    encoded, pp = por.setup(file, payload, phi or m)
    return encoded, pp, rng


def reference_blocks(coded: bytes, payload: int) -> list[bytes]:
    """Independent per-block loop: zero-fill the last payload, suffix the
    1-based index."""
    blocks = []
    for i in range(0, len(coded), payload):
        chunk = coded[i : i + payload]
        chunk += bytes(payload - len(chunk))
        blocks.append(chunk + (len(blocks) + 1).to_bytes(4, "big"))
    return blocks


def split_blocks(encoded: por.EncodedFile) -> list[bytes]:
    """The encoded file's buffer cut into its blocks, 1..m in order."""
    width = encoded.block_len
    return [encoded.blocks[i : i + width] for i in range(0, len(encoded.blocks), width)]


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
    entry = pi[position - 1]
    bad = bytearray(entry.block)
    bad[byte_pos] ^= 0x01
    bad_block = bytes(bad)
    path = entry.path._replace(leaf_block=bad_block)
    return pi[: position - 1] + (por.ProofEntry(bad_block, path),) + pi[position:]


class TestSetup:
    def test_64_byte_file_gives_four_indexed_blocks(self):
        file = bytes(range(64))
        encoded, pp = por.setup(file, 16, phi=4)
        assert pp.m == 4
        for i, block in enumerate(split_blocks(encoded), start=1):
            assert block[-4:] == i.to_bytes(4, "big")
            assert len(block) == 20

    def test_65_byte_file_pads_last_payload(self):
        encoded, pp = por.setup(bytes(65), 16, phi=5)
        assert pp.m == 5
        assert split_blocks(encoded)[-1][:16] == bytes(16)

    def test_sigma_is_tree_root_over_blocks(self):
        encoded, pp = por.setup(b"some file content here", 8, phi=2)
        _, root = merkle.gen_tree(encoded.blocks, encoded.block_len)
        assert pp.sigma == root

    @pytest.mark.parametrize("size, payload, codec", [
        (1000, 16, None),
        (1024, 16, None),
        (1, 16, None),
        (77, 8, None),
        (1000, 16, por.XorParityCodec()),
        (333, 8, por.XorParityCodec(chunk_len=8)),
        (1, 1, None),
        (77, 1, None),
        (100, 3, None),
        (101, 3, por.XorParityCodec(chunk_len=3)),
        (4000, 7, por.XorParityCodec(chunk_len=7)),
        (1000, 7, None),
    ])
    def test_blocks_and_root_match_reference_loop(self, size, payload, codec):
        file = random.Random(size).randbytes(size)
        encoded, pp = por.setup(file, payload, phi=1, codec=codec)
        coded = codec.encode(file) if codec is not None else file
        expected = reference_blocks(coded, payload)
        assert encoded.blocks == b"".join(expected)
        assert encoded.block_payload_len == payload
        assert pp.m == len(expected)
        assert pp.sigma == reference_root(expected)

    @pytest.mark.parametrize("codec", [None, por.XorParityCodec(chunk_len=3)])
    def test_blocks_are_one_buffer_shared_with_the_tree(self, codec, monkeypatch):
        built = []
        gen_tree = merkle.gen_tree

        def recording_gen_tree(blocks, block_len):
            tree, root = gen_tree(blocks, block_len)
            built.append(tree)
            return tree, root

        monkeypatch.setattr(merkle, "gen_tree", recording_gen_tree)
        encoded, pp = por.setup(bytes(range(200)), 3, phi=1, codec=codec)
        assert type(encoded.blocks) is bytes
        assert len(encoded.blocks) == pp.m * encoded.block_len == pp.m * 7
        [tree] = built
        assert tree.blocks is encoded.blocks

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


class TestProveVerify:
    def test_honest_roundtrip(self):
        encoded, pp, rng = make_session(m=16, phi=6)
        key = por.gen_query(rng)
        pi = por.prove(encoded, key, pp)
        assert por.verify(pi, key, pp) == por.Verdict(True, None)

    def test_entry_count_is_phi(self):
        encoded, pp, rng = make_session(m=16, phi=6)
        assert len(por.prove(encoded, por.gen_query(rng), pp)) == 6

    def test_entries_carry_derived_indices(self):
        encoded, pp, rng = make_session(m=16, phi=6)
        key = por.gen_query(rng)
        pi = por.prove(encoded, key, pp)
        for entry, q in zip(pi, por.derive_indices(key, pp.phi, pp.m)):
            assert int.from_bytes(entry.block[-4:], "big") == q
            assert entry.path.leaf_index == q

    def test_param_mismatch(self):
        encoded, pp, rng = make_session(m=8)
        other, _ = por.setup(bytes(32), 8, phi=4)
        with pytest.raises(por.ParamMismatch):
            por.prove(other, por.gen_query(rng), pp)

    def test_first_failure_is_reported(self):
        encoded, pp, rng = make_session(m=32, phi=5)
        key = por.gen_query(rng)
        pi = corrupt_entry(por.prove(encoded, key, pp), position=3)
        assert por.verify(pi, key, pp) == por.Verdict(False, 3)

    def test_index_mismatch_caught_in_first_pass(self):
        encoded, pp, rng = make_session(m=32, phi=5)
        key = por.gen_query(rng)
        pi = list(por.prove(encoded, key, pp))
        entry = pi[2]
        wrong = entry.block[:-4] + (99).to_bytes(4, "big")
        pi[2] = por.ProofEntry(wrong, entry.path._replace(leaf_block=wrong))
        assert por.verify(tuple(pi), key, pp) == por.Verdict(False, 3)

    def test_short_vector_rejected(self):
        encoded, pp, rng = make_session(m=16, phi=4)
        key = por.gen_query(rng)
        pi = por.prove(encoded, key, pp)
        assert por.verify(pi[:2], key, pp).accepted is False

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_honest_acceptance_property(self, data):
        payload = data.draw(st.integers(min_value=1, max_value=8))
        m = data.draw(st.integers(min_value=1, max_value=64))
        phi = data.draw(st.integers(min_value=1, max_value=m))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        rng = random.Random(seed)
        file = rng.randbytes(m * payload)
        encoded, pp = por.setup(file, payload, phi)
        key = por.gen_query(rng)
        assert por.verify(por.prove(encoded, key, pp), key, pp).accepted

    def test_challenge_agreement_between_parties(self):
        _, pp, rng = make_session(m=64, phi=16)
        key = por.gen_query(rng)
        client_view = por.derive_indices(key, pp.phi, pp.m)
        server_view = por.derive_indices(key, pp.phi, pp.m)
        assert client_view == server_view


class TestSingleProofMode:
    def test_valid_single_entry_accepted(self):
        encoded, pp, rng = make_session(m=8, phi=4)
        key = por.gen_query(rng)
        pi = por.prove(encoded, key, pp)
        q = por.derive_indices(key, pp.phi, pp.m)[2]
        assert por.verify((pi[2],), [q], pp) == por.Verdict(True, None)

    def test_flipped_digest_rejected(self):
        # cross-checked against full-vector verification restricted to the entry
        encoded, pp, rng = make_session(m=8, phi=4)
        key = por.gen_query(rng)
        pi = por.prove(encoded, key, pp)
        q = por.derive_indices(key, pp.phi, pp.m)[2]
        entry = pi[2]
        digests = list(entry.path.sibling_digests)
        digests[0] = bytes(16)
        bad = por.ProofEntry(
            entry.block,
            entry.path._replace(sibling_digests=tuple(digests)),
        )
        assert por.verify((bad,), [q], pp) == por.Verdict(False, 1)

    def test_misbehaviour_link_matches_full_verification(self):
        # the invariant the dispute resolver relies on: the single re-check at
        # the reported position g fails, and every earlier entry still passes
        encoded, pp, rng = make_session(m=32, phi=7)
        key = por.gen_query(rng)
        indices = por.derive_indices(key, pp.phi, pp.m)
        for g in (1, 4, 7):
            pi = corrupt_entry(por.prove(encoded, key, pp), position=g)
            verdict = por.verify(pi, key, pp)
            assert verdict == por.Verdict(False, g)
            assert por.verify((pi[g - 1],), [indices[g - 1]], pp) == por.Verdict(False, 1)
            for earlier in range(1, g):
                assert por.verify(
                    (pi[earlier - 1],), [indices[earlier - 1]], pp
                ).accepted


class TestHashCounts:
    """Exact hash counts at m = 8, phi = 5: deriving the challenge costs one
    PRF hash per index and each path verification hashes height = 3 nodes."""

    def session(self):
        encoded, pp, rng = make_session(m=8, phi=5)
        key = por.gen_query(rng)
        tree, _ = merkle.gen_tree(encoded.blocks, encoded.block_len)
        return encoded, pp, key, tree

    def test_prove_hashes_only_the_challenge(self):
        encoded, pp, key, tree = self.session()
        with count_hash_calls() as taken:
            por.prove(encoded, key, pp, tree=tree)
            assert taken() == 5

    def test_prove_without_tree_rebuilds_it(self):
        encoded, pp, key, _ = self.session()
        with count_hash_calls() as taken:
            por.prove(encoded, key, pp)
            assert taken() == 5 + 7

    def test_verify_accept(self):
        encoded, pp, key, tree = self.session()
        pi = por.prove(encoded, key, pp, tree=tree)
        with count_hash_calls() as taken:
            assert por.verify(pi, key, pp).accepted
            assert taken() == 5 + 5 * 3

    def test_verify_reject_in_pass_one_hashes_no_path(self):
        encoded, pp, key, tree = self.session()
        pi = list(por.prove(encoded, key, pp, tree=tree))
        entry = pi[3]
        wrong = entry.block[:-4] + (99).to_bytes(4, "big")
        pi[3] = por.ProofEntry(wrong, entry.path)
        with count_hash_calls() as taken:
            assert por.verify(tuple(pi), key, pp) == por.Verdict(False, 4)
            assert taken() == 5

    @pytest.mark.parametrize("g", [1, 3, 5])
    def test_verify_reject_in_pass_two_stops_at_g(self, g):
        encoded, pp, key, tree = self.session()
        pi = corrupt_entry(por.prove(encoded, key, pp, tree=tree), position=g)
        with count_hash_calls() as taken:
            assert por.verify(pi, key, pp) == por.Verdict(False, g)
            assert taken() == 5 + g * 3

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_single_entry_recheck(self, corrupt):
        encoded, pp, key, tree = self.session()
        pi = por.prove(encoded, key, pp, tree=tree)
        if corrupt:
            pi = corrupt_entry(pi, position=2)
        q = por.derive_indices(key, pp.phi, pp.m)[1]
        with count_hash_calls() as taken:
            assert por.verify((pi[1],), [q], pp).accepted is not corrupt
            assert taken() == 3


class TestDetection:
    def test_full_coverage_catches_any_corrupt_block(self):
        # explicit query over every index forces full coverage at small m
        encoded, pp, rng = make_session(m=8, phi=8)
        tree, _ = merkle.gen_tree(encoded.blocks, encoded.block_len)
        blocks = split_blocks(encoded)
        all_indices = list(range(1, 9))
        for target in all_indices:
            entries = tuple(
                por.ProofEntry(blocks[q - 1], merkle.prove(tree, q))
                for q in all_indices
            )
            entries = corrupt_entry(entries, position=target)
            verdict = por.verify(entries, all_indices, pp)
            assert verdict == por.Verdict(False, target)

    def test_corrupting_unchallenged_blocks_keeps_acceptance(self):
        encoded, pp, rng = make_session(m=16, phi=3)
        key = por.gen_query(rng)
        challenged = set(por.derive_indices(key, pp.phi, pp.m))
        unchallenged = [i for i in range(1, 17) if i not in challenged]
        assert unchallenged, "need at least one unchallenged block"
        # bit rot on unchallenged blocks, original tree kept for the paths
        tree, _ = merkle.gen_tree(encoded.blocks, encoded.block_len)
        blocks = split_blocks(encoded)
        for i in unchallenged:
            rotted = bytearray(blocks[i - 1])
            rotted[0] ^= 0xFF
            blocks[i - 1] = bytes(rotted)
        damaged = por.EncodedFile(b"".join(blocks), encoded.block_payload_len)
        pi = por.prove(damaged, key, pp, tree=tree)
        assert por.verify(pi, key, pp).accepted


class TestCodecs:
    def test_xor_parity_appends_group_parity(self):
        codec = por.XorParityCodec(chunk_len=4)
        data = bytes(range(16))
        coded = codec.encode(data)
        chunks = [coded[i : i + 4] for i in range(0, len(coded), 4)]
        assert len(chunks) == 5
        parity = bytes(a ^ b ^ c ^ d for a, b, c, d in zip(*chunks[:4]))
        assert chunks[4] == parity

    def test_setup_with_parity_codec_adds_blocks(self):
        file = bytes(range(64))
        plain, _ = por.setup(file, 16, phi=4)
        coded, pp = por.setup(file, 16, phi=4, codec=por.XorParityCodec(chunk_len=16))
        assert plain.m == 4
        assert coded.m == 5
        assert pp.m == 5

