"""PRF, commitments, and the fixed-size authenticated cipher units."""

import hashlib
import random

import pytest

from porpay import crypto, merkle, por, protocol


class TestPrf:
    def test_deterministic(self):
        key = bytes(range(16))
        assert crypto.prf(key, 1) == crypto.prf(key, 1)

    def test_distinct_counters(self):
        key = bytes(range(16))
        assert crypto.prf(key, 1) != crypto.prf(key, 2)

    def test_fixed_vector(self):
        # frozen from a direct hashlib computation of H(key || counter_be8)
        out = crypto.prf(bytes(16), 1)
        assert out.hex() == "ed8b7b2c2c6bae3a650fe15699b56315"

    def test_matches_keyed_hash_construction(self):
        key = b"\xab" * 16
        expected = hashlib.sha256(key + (7).to_bytes(8, "big")).digest()[:16]
        assert crypto.prf(key, 7) == expected

    def test_key_separation(self):
        rng = random.Random(99)
        for _ in range(1000):
            k1 = rng.randbytes(16)
            k2 = rng.randbytes(16)
            if k1 != k2:
                assert crypto.prf(k1, 3) != crypto.prf(k2, 3)

    def test_output_length(self):
        assert len(crypto.prf(bytes(16), 1)) == crypto.IOTA_BITS // 8


class TestCommitment:
    def test_same_inputs_equal(self):
        r = bytes(16)
        assert crypto.commit(b"x", r) == crypto.commit(b"x", r)

    def test_different_statements_differ(self):
        r = bytes(16)
        assert crypto.commit(b"x", r) != crypto.commit(b"y", r)

    def test_empty_statement_fixed_vector(self):
        # frozen from a direct hash call on b"" || bytes(range(16))
        c = crypto.commit(b"", bytes(range(16)))
        assert c.hex() == "be45cb2605bf36bebde684841a28f0fd"

    def test_bad_randomness_length(self):
        with pytest.raises(crypto.BadRandomnessLength):
            crypto.commit(b"x", bytes(15))

    def test_verify_honest(self):
        r = bytes(range(16))
        c = crypto.commit(b"statement", r)
        assert crypto.commit_verify(c, crypto.Opening(b"statement", r))

    def test_verify_flipped_statement(self):
        r = bytes(range(16))
        c = crypto.commit(b"statement", r)
        assert not crypto.commit_verify(c, crypto.Opening(b"statemenT", r))

    def test_verify_flipped_randomness(self):
        r = bytearray(range(16))
        c = crypto.commit(b"statement", bytes(r))
        r[0] ^= 1
        assert not crypto.commit_verify(c, crypto.Opening(b"statement", bytes(r)))

    @pytest.mark.parametrize("opening", [
        crypto.Opening("statement", bytes(16)), crypto.Opening(b"statement", None),
        crypto.Opening(bytearray(b"statement"), bytes(16)),
        # not an Opening at all: none, or the opening pair as a tuple or as bytes
        None, (b"statement", bytes(16)), b"statement" + bytes(16),
    ], ids=["str-statement", "none-randomness", "bytearray-statement",
            "none", "tuple", "bytes"])
    def test_verify_fields_not_bytes(self, opening):
        c = crypto.commit(b"statement", bytes(16))
        assert crypto.commit_verify(c, opening) is False

    def test_binding_search(self):
        # no opening for a different statement validates, at test scale
        rng = random.Random(7)
        c = crypto.commit(b"the real statement", rng.randbytes(16))
        for _ in range(2**16):
            other = crypto.Opening(rng.randbytes(8), rng.randbytes(16))
            assert not crypto.commit_verify(c, other)


class TestCipherUnits:
    fmt = crypto.UnitFormat(value_capacity=20)

    def test_roundtrip(self):
        rng = random.Random(1)
        key = crypto.gen_sym_key(rng)
        msg = rng.randbytes(16)
        unit = crypto.enc_unit(key, msg, self.fmt, rng)
        assert crypto.dec_unit(key, unit, self.fmt) == msg

    def test_randomized_encryption(self):
        rng = random.Random(2)
        key = crypto.gen_sym_key(rng)
        u1 = crypto.enc_unit(key, b"same", self.fmt, rng)
        u2 = crypto.enc_unit(key, b"same", self.fmt, rng)
        assert u1 != u2
        assert len(u1) == len(u2) == self.fmt.unit_len

    def test_wrong_key_fails(self):
        rng = random.Random(3)
        unit = crypto.enc_unit(crypto.gen_sym_key(rng), b"payload", self.fmt, rng)
        with pytest.raises(crypto.DecryptFailure):
            crypto.dec_unit(crypto.gen_sym_key(rng), unit, self.fmt)

    def test_any_single_byte_mutation_fails(self):
        rng = random.Random(4)
        key = crypto.gen_sym_key(rng)
        unit = crypto.enc_unit(key, b"exact payload bytes!", self.fmt, rng)
        for pos in range(len(unit)):
            mutated = bytearray(unit)
            mutated[pos] ^= 0x01
            with pytest.raises(crypto.DecryptFailure):
                crypto.dec_unit(key, bytes(mutated), self.fmt)

    def test_wrong_length_fails(self):
        rng = random.Random(5)
        key = crypto.gen_sym_key(rng)
        unit = crypto.enc_unit(key, b"m", self.fmt, rng)
        with pytest.raises(crypto.DecryptFailure):
            crypto.dec_unit(key, unit + b"\x00", self.fmt)

    def test_oversized_value_rejected(self):
        rng = random.Random(6)
        with pytest.raises(ValueError):
            crypto.enc_unit(crypto.gen_sym_key(rng), bytes(21), self.fmt, rng)

    def test_length_invariance_across_payload_sizes(self):
        # the property the padding scheme relies on
        rng = random.Random(7)
        key = crypto.gen_sym_key(rng)
        lengths = {
            len(crypto.enc_unit(key, bytes(n), self.fmt, rng)) for n in (0, 4, 16, 20)
        }
        lengths.add(len(crypto.sample_unit(self.fmt, rng)))
        assert lengths == {self.fmt.unit_len}

    def test_plaintext_is_prefix_value_zero_fill(self):
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        rng = random.Random(8)
        key = crypto.gen_sym_key(rng)
        for value in (b"", b"abc", bytes(range(1, 21))):
            unit = crypto.enc_unit(key, value, self.fmt, rng)
            plain = AESGCM(key).decrypt(unit[:12], unit[12:], None)
            assert plain == len(value).to_bytes(2, "big") + value.ljust(20, b"\0")
            assert crypto.dec_unit(key, unit, self.fmt) == value

    def test_sealed_prefix_past_capacity_rejected(self):
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        rng = random.Random(9)
        key = crypto.gen_sym_key(rng)
        nonce = rng.randbytes(crypto.NONCE_LEN)
        for n in (21, 0xFFFF):
            payload = n.to_bytes(2, "big") + bytes(20)
            unit = nonce + AESGCM(key).encrypt(nonce, payload, None)
            with pytest.raises(crypto.DecryptFailure):
                crypto.dec_unit(key, unit, self.fmt)


class TestCipherCache:
    fmt = crypto.UnitFormat(value_capacity=20)

    def test_cached_ciphers_keep_keys_apart(self):
        rng = random.Random(10)
        key_a, key_b = crypto.gen_sym_key(rng), crypto.gen_sym_key(rng)
        unit_a = crypto.enc_unit(key_a, b"under a", self.fmt, rng)
        unit_b = crypto.enc_unit(key_b, b"under b", self.fmt, rng)
        assert crypto.dec_unit(key_b, unit_b, self.fmt) == b"under b"
        with pytest.raises(crypto.DecryptFailure):
            crypto.dec_unit(key_b, unit_a, self.fmt)
        with pytest.raises(crypto.DecryptFailure):
            crypto.dec_unit(key_a, unit_b, self.fmt)
        assert crypto.dec_unit(key_a, unit_a, self.fmt) == b"under a"

    def test_bad_key_length_raises_every_time(self):
        rng = random.Random(11)
        for _ in range(2):
            with pytest.raises(ValueError):
                crypto.enc_unit(bytes(15), b"v", self.fmt, rng)
            with pytest.raises(ValueError):
                crypto.dec_unit(bytes(15), bytes(self.fmt.unit_len), self.fmt)


class TestWireGolden:
    """Digests of sealed bytes; any change to the unit format, the entry
    layout or the order of RNG draws shows here."""

    def test_enc_unit_stream(self):
        rng = random.Random(7)
        key = bytes(range(16))
        fmt = crypto.UnitFormat(20)
        wire = b"".join(
            crypto.enc_unit(key, bytes([i]) * (i % 21), fmt, rng) for i in range(64)
        )
        assert hashlib.sha256(wire).hexdigest() == (
            "485e194adf3f4777fe3c20590e84bdaba735a5938f97d11a2d67dae824fe0f03"
        )

    def test_padded_proof_vector(self):
        # 13 blocks in a 16-leaf tree: 4 entry units of 6 real + 3 pad slots,
        # each nonce + 2-byte prefix + two 20-byte blocks + 3 digests + the
        # 4-byte index + 3 pads of 16 bytes + tag
        blocks, pp = por.setup(random.Random(11).randbytes(200),
                               block_payload_len=16, phi=4)
        tree, _ = merkle.gen_tree(blocks, 16 + por.INDEX_LEN)
        pi = por.prove(tree, bytes(range(16, 32)), pp)
        qp = protocol.QpStatement(3, bytes(range(32, 48)), pp, 16)
        wire = protocol.encode_proof_vector(pi, qp, random.Random(5))
        assert len(wire) == 4 * 170 == 4 * (12 + 2 + 2 * 20 + 3 * 16 + 4 + 3 * 16 + 16)
        assert hashlib.sha256(wire).hexdigest() == (
            "6ac35b0e9adbd743cbe3d2e107aac41f0d0907f3e4ee112e50edf0759a931a50"
        )


class TestSampleUnit:
    fmt = crypto.UnitFormat(value_capacity=20)

    def test_length_matches_real_units(self):
        rng = random.Random(8)
        key = crypto.gen_sym_key(rng)
        real = crypto.enc_unit(key, b"value", self.fmt, rng)
        assert len(crypto.sample_unit(self.fmt, rng)) == len(real)

    def test_two_samples_differ(self):
        rng = random.Random(9)
        assert crypto.sample_unit(self.fmt, rng) != crypto.sample_unit(self.fmt, rng)

    def test_seeded_rng_reproducible(self):
        one = crypto.sample_unit(self.fmt, random.Random(1234))
        two = crypto.sample_unit(self.fmt, random.Random(1234))
        assert one == two
