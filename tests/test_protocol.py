"""Statements, wire format, role flow, dispute filters, and payouts."""

import dataclasses
import random

import pytest

from porpay import por, protocol
from porpay.crypto import Opening, dec_unit, enc_unit
from porpay.ledger import Counters, DuplicateSlot, Ledger
from porpay.protocol import (
    ARBITER,
    ARBITERLESS,
    Arbiter,
    Client,
    ClientBehavior,
    CpStatement,
    PriceList,
    PricePair,
    QpStatement,
    Server,
    ServerBehavior,
    SessionConfig,
)

PRICES = PriceList((PricePair(5, 2), PricePair(3, 1)))


def make_config(z=3, phi=4, variant=ARBITER, pi_max=None, payload=16, codec="identity"):
    return SessionConfig(
        z=z,
        phi=phi,
        price_list=PRICES,
        price_choice=PricePair(5, 2),
        block_payload_len=payload,
        pi_max=pi_max,
        variant=variant,
        codec_name=codec,
    )


def build_session(config, seed=1, file_size=1024,
                  client_behavior=None, server_behavior=None):
    master = random.Random(seed)
    file = master.randbytes(file_size)
    ledger = Ledger()
    coin_client = config.z * (PRICES.o_max + PRICES.l_max)
    p_server = config.z * PRICES.l_max
    addr_c = ledger.create_account("client", coin_client)
    addr_s = ledger.create_account("server", p_server)
    addr_r = (
        ledger.create_account("arbiter", 0) if config.variant == ARBITER else None
    )
    client = Client(addr_c, random.Random(master.getrandbits(64)), config,
                    client_behavior)
    server = Server(addr_s, random.Random(master.getrandbits(64)), PRICES,
                    server_behavior)
    ledger.advance_time(protocol.Schedule.standard(config.z).point("T0"))
    handoff = client.init(file, ledger, addr_s, addr_r)
    return ledger, client, server, handoff, addr_r, file


def goto(ledger, contract, label):
    target = contract.params.schedule.point(label)
    if ledger.time.ordinal < target.ordinal:
        ledger.advance_time(target)


class TestStatements:
    def test_qp_roundtrip(self):
        pp = por.PublicParams(sigma=bytes(range(16)), phi=4, m=9)
        qp = QpStatement(pad_pi=3, k_bar=b"\x11" * 16, pp=pp, block_payload_len=16)
        assert QpStatement.from_bytes(qp.to_bytes()) == qp

    def test_cp_roundtrip(self):
        cp = CpStatement(o=5, o_max=5, l=2, l_max=2, z=3)
        assert CpStatement.from_bytes(cp.to_bytes()) == cp

    def test_encoding_is_canonical(self):
        cp1 = CpStatement(3, 5, 1, 2, 4)
        cp2 = CpStatement(3, 5, 1, 2, 4)
        assert cp1.to_bytes() == cp2.to_bytes()

    def test_missing_field_rejected(self):
        cp = CpStatement(3, 5, 1, 2, 4)
        with pytest.raises(ValueError):
            CpStatement.from_bytes(cp.to_bytes()[:-13])

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            QpStatement.from_bytes(b"\x99" * 7)

    def test_prices_above_maxima_rejected(self):
        with pytest.raises(ValueError):
            CpStatement(o=6, o_max=5, l=2, l_max=2, z=3)


class TestKeyGen:
    def test_zero_padding_when_sizes_match(self):
        key, pad = protocol.key_gen(random.Random(0), pi_max=7, pi_act=7)
        assert pad == 0
        assert len(key) == 16

    def test_padding_is_difference(self):
        _, pad = protocol.key_gen(random.Random(0), pi_max=10, pi_act=7)
        assert pad == 3

    def test_undersized_budget_rejected(self):
        with pytest.raises(ValueError):
            protocol.key_gen(random.Random(0), pi_max=6, pi_act=7)


class TestMaskedDeposits:
    def test_example_amounts(self):
        # z=3, o_max=5, l_max=2
        config = make_config(z=3)
        ledger, client, server, handoff, _, _ = build_session(config)
        assert handoff.contract.params.client_deposit_required == 21
        assert handoff.contract.params.server_deposit_required == 6
        assert handoff.contract.client_deposited == 21

    def test_deposit_independent_of_price_choice(self):
        amounts = set()
        for choice in PRICES.pairs:
            config = SessionConfig(
                z=3, phi=4, price_list=PRICES, price_choice=choice
            )
            _, _, _, handoff, _, _ = build_session(config)
            amounts.add(
                (
                    handoff.contract.params.client_deposit_required,
                    handoff.contract.params.server_deposit_required,
                )
            )
        assert amounts == {(21, 6)}

    def test_price_not_in_list(self):
        config = SessionConfig(
            z=3, phi=4, price_list=PRICES, price_choice=PricePair(4, 2)
        )
        ledger = Ledger()
        addr_c = ledger.create_account("client", 100)
        addr_s = ledger.create_account("server", 100)
        client = Client(addr_c, random.Random(0), config)
        ledger.advance_time(protocol.Schedule.standard(3).point("T0"))
        with pytest.raises(protocol.PriceNotInList):
            client.init(b"data", ledger, addr_s)


class TestServerInit:
    def test_honest_inputs_accepted(self):
        config = make_config()
        ledger, client, server, handoff, _, _ = build_session(config)
        goto(ledger, handoff.contract, "T1")
        assert server.init(handoff, ledger) == 1
        assert handoff.contract.server_deposited == 6
        assert handoff.contract.a_flag == 1
        assert server.tree.blocks is server.encoded.blocks is handoff.encoded_file.blocks

    def test_ill_formed_metadata_rejected(self):
        config = make_config()
        ledger, client, server, handoff, _, _ = build_session(
            config, client_behavior=ClientBehavior(ill_formed_metadata=True)
        )
        goto(ledger, handoff.contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert handoff.contract.server_deposited == 0

    def test_underfunded_client_rejected(self):
        # hand-built initiation that deposits one coin less than required
        config = make_config()
        ledger = Ledger()
        addr_c = ledger.create_account("client", 100)
        addr_s = ledger.create_account("server", 100)
        rng = random.Random(3)
        file = rng.randbytes(512)
        encoded, pp = por.setup(file, 16, config.phi)
        k_bar, pad = protocol.key_gen(rng, protocol.entry_real_units(pp.m),
                                      protocol.entry_real_units(pp.m))
        qp = QpStatement(pad, k_bar, pp, 16)
        cp = CpStatement(5, 5, 2, 2, config.z)
        from porpay.sap import sap_init

        r_qp, _, sid_qp = sap_init(ledger, addr_c, addr_s, qp.to_bytes(), rng)
        r_cp, _, sid_cp = sap_init(ledger, addr_c, addr_s, cp.to_bytes(), rng)
        params = protocol.ContractParams(
            z=config.z,
            client_deposit_required=21,
            server_deposit_required=6,
            addr_client=addr_c,
            addr_server=addr_s,
            schedule=protocol.Schedule.standard(config.z),
            arbiterless=False,
            addr_arbiter=ledger.create_account("arbiter", 0),
            sap_refs=(sid_qp, sid_cp),
        )
        contract = ledger.deploy_contract(addr_c, params)
        ledger.advance_time(params.schedule.point("T0"))
        ledger.deposit(addr_c, contract, 20)  # one short of coin*
        handoff = protocol.Handoff(
            encoded, config.z, Opening(qp.to_bytes(), r_qp),
            Opening(cp.to_bytes(), r_cp), contract,
        )
        server = Server(addr_s, rng, PRICES)
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0

    def test_tampered_opening_fails_agreement(self):
        config = make_config()
        ledger, client, server, handoff, _, _ = build_session(config)
        bad = protocol.Handoff(
            handoff.encoded_file,
            handoff.z,
            Opening(handoff.opening_qp.statement, bytes(16)),
            handoff.opening_cp,
            handoff.contract,
        )
        goto(ledger, handoff.contract, "T1")
        assert server.init(bad, ledger) == 0

    @pytest.mark.parametrize("cut", [1, 20, 1024])
    def test_short_block_buffer_rejected(self, cut):
        # the handed-off buffer must hold exactly m whole blocks; a short one
        # is refused rather than crashing the tree rebuild
        ledger, client, server, handoff, _, _ = build_session(make_config())
        encoded = handoff.encoded_file
        short = por.EncodedFile(encoded.blocks[:-cut], encoded.block_payload_len)
        goto(ledger, handoff.contract, "T1")
        assert server.init(dataclasses.replace(handoff, encoded_file=short), ledger) == 0
        assert handoff.contract.server_deposited == 0

    def test_unsupported_prf_spec_refunds(self, monkeypatch):
        # a client advertising a 64-bit PRF key in a statement that otherwise
        # agrees and matches the file: the server refuses, then T2 refunds
        setup = por.setup

        def short_key_setup(*args, **kwargs):
            encoded, pp = setup(*args, **kwargs)
            return encoded, dataclasses.replace(pp, zeta=por.PrfSpec(psi=64))

        monkeypatch.setattr(por, "setup", short_key_setup)
        ledger, client, server, handoff, _, _ = build_session(make_config())
        contract = handoff.contract
        assert QpStatement.from_bytes(handoff.opening_qp.statement).pp.zeta.psi == 64
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert contract.server_deposited == 0
        goto(ledger, contract, "T2")
        client.request_payout(ledger)
        protocol.refund_deposits(ledger, contract)
        assert ledger.balances() == {"client": 21, "server": 6, "arbiter": 0}

    @pytest.mark.parametrize(
        "pi_max, a", [(protocol.MAX_ENTRY_SLOTS, 1), (protocol.MAX_ENTRY_SLOTS + 1, 0),
                      (100_000, 0)]
    )
    def test_pad_budget_bounded(self, pi_max, a):
        # a 4-byte leaf index caps a path at 34 slots; a larger budget only
        # inflates what the server seals and posts, so it refuses the session
        ledger, client, server, handoff, _, _ = build_session(make_config(pi_max=pi_max))
        contract = handoff.contract
        genesis_supply = ledger.total_supply()
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == a
        assert (contract.server_deposited > 0) == (a == 1)
        if a == 0:
            goto(ledger, contract, "T2")
            client.request_payout(ledger)
            protocol.refund_deposits(ledger, contract)
            assert ledger.balances() == {"client": 21, "server": 6, "arbiter": 0}
            assert ledger.total_supply() == genesis_supply


class HonestRun:
    """Drive one session through the billing cycles, keeping the pieces."""

    def __init__(self, config, seed=1, file_size=1024,
                 client_behavior=None, server_behavior=None):
        self.ledger, self.client, self.server, self.handoff, self.addr_r, self.file = (
            build_session(config, seed=seed, file_size=file_size,
                          client_behavior=client_behavior,
                          server_behavior=server_behavior)
        )
        self.contract = self.handoff.contract
        goto(self.ledger, self.contract, "T1")
        self.a = self.server.init(self.handoff, self.ledger)
        self.b = {}
        self.verdicts = {}
        if self.a == 1:
            for j in range(1, config.z + 1):
                goto(self.ledger, self.contract, f"G{j}.1")
                self.client.post_query(j, self.ledger)
                goto(self.ledger, self.contract, f"G{j}.2")
                self.b[j], _ = self.server.prove_cycle(j, self.ledger)
                verdict, _ = self.client.verify_cycle(j, self.ledger)
                self.verdicts[j] = verdict


class TestHonestRuns:
    @pytest.mark.parametrize("z", [1, 2, 5, 8])
    def test_all_cycles_accept_and_payout_matches(self, z):
        config = make_config(z=z, phi=4)
        run = HonestRun(config, seed=z, file_size=768)
        assert run.a == 1
        assert all(b == 1 for b in run.b.values())
        assert all(v.accepted for v in run.verdicts.values())
        assert run.contract.counters == Counters()
        goto(run.ledger, run.contract, "L")
        run.client.request_payout(run.ledger)
        payout = protocol.payout_arbiter_variant(
            run.ledger, run.contract, run.client.opening_cp
        )
        coin_c = run.contract.client_deposited
        coin_s = run.contract.server_deposited
        assert payout == {
            "client": coin_c - 5 * z,
            "server": coin_s + 5 * z,
            "arbiter": 0,
        }

    def test_query_units_decrypt_to_challenge_keys(self):
        config = make_config(z=2)
        run = HonestRun(config)
        for j, unit in run.contract.queries.items():
            key = dec_unit(run.client.k_bar, unit, run.client.fmt)
            assert len(key) == 16


class TestWireShape:
    def test_vector_unit_count_and_length(self):
        config = make_config(z=1, phi=4, pi_max=None)
        run = HonestRun(config)
        m = run.client.pp.m
        real = protocol.entry_real_units(m)
        payload = run.contract.proofs[1]
        entry_len = protocol.entry_layout(run.client.fmt, real).wire_len
        assert len(payload) == config.phi * entry_len

    def test_padded_vector_shape(self):
        # m=64 blocks -> height 6 -> 8 real slots; budget of 11 pads by 3
        config = make_config(z=1, phi=4, pi_max=11)
        run = HonestRun(config, file_size=1024)
        assert run.client.pad_pi == 3
        real = protocol.entry_real_units(run.client.pp.m)
        payload = run.contract.proofs[1]
        entry_len = protocol.entry_layout(run.client.fmt, real + 3).wire_len
        assert len(payload) == config.phi * entry_len

    def test_dummy_matches_real_shape(self):
        rng = random.Random(0)
        fmt = protocol.unit_format(16)
        encoded, pp = por.setup(rng.randbytes(512), 16, 4)
        key = por.gen_query(rng)
        pi = por.prove(encoded, key, pp)
        real = protocol.entry_real_units(pp.m)
        genuine = protocol.encode_proof_vector(pi, b"\x01" * 16, fmt, 2, rng)
        dummy = protocol.dummy_proof_vector(pp.phi, real, 2, fmt, rng)
        assert len(genuine) == len(dummy)

    def test_decode_recovers_vector(self):
        rng = random.Random(0)
        fmt = protocol.unit_format(16)
        encoded, pp = por.setup(rng.randbytes(512), 16, 4)
        key = por.gen_query(rng)
        k_bar = b"\x02" * 16
        pi = por.prove(encoded, key, pp)
        payload = protocol.encode_proof_vector(pi, k_bar, fmt, 2, rng)
        real = protocol.entry_real_units(pp.m)
        entries, failed = protocol.decode_proof_vector(
            payload, k_bar, pp.phi, real, 2, fmt
        )
        assert failed is None
        assert entries == pi

    def test_dummy_fails_decode_at_first_entry(self):
        rng = random.Random(0)
        fmt = protocol.unit_format(16)
        dummy = protocol.dummy_proof_vector(4, 8, 0, fmt, rng)
        entries, failed = protocol.decode_proof_vector(dummy, b"\x03" * 16, 4, 8, 0, fmt)
        assert entries is None
        assert failed == 1


class TestEntryUnits:
    """One cipher unit per proof entry: layout, per-entry failure, and the
    tree height hidden behind pi_max."""

    K_BAR = b"\x04" * 16
    PAD = 2

    def vector(self):
        rng = random.Random(5)
        fmt = protocol.unit_format(16)
        encoded, pp = por.setup(rng.randbytes(512), 16, 6)
        pi = por.prove(encoded, por.gen_query(rng), pp)
        real = protocol.entry_real_units(pp.m)
        payload = protocol.encode_proof_vector(pi, self.K_BAR, fmt, self.PAD, rng)
        layout = protocol.entry_layout(fmt, real + self.PAD)
        assert layout.units == 1
        return pi, pp, fmt, layout.fmt, real, payload

    def decode(self, payload, pp, fmt, real):
        return protocol.decode_proof_vector(
            payload, self.K_BAR, pp.phi, real, self.PAD, fmt
        )

    def test_entry_plaintext_layout(self):
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        pi, pp, fmt, efmt, real, payload = self.vector()
        assert len(payload) == pp.phi * efmt.unit_len
        for g, entry in enumerate(pi):
            unit = payload[g * efmt.unit_len : (g + 1) * efmt.unit_len]
            plain = AESGCM(self.K_BAR).decrypt(unit[:12], unit[12:], None)
            values = [entry.block, entry.path.sibling_block,
                      *entry.path.sibling_digests,
                      entry.path.leaf_index.to_bytes(4, "big")]
            slots = b"".join(len(v).to_bytes(2, "big") + v + bytes(20 - len(v))
                             for v in values)
            body = slots + bytes(self.PAD * 22)
            assert len(values) == real
            assert plain == len(body).to_bytes(2, "big") + body

    @pytest.mark.parametrize("g", [1, 3, 6])
    def test_flipped_byte_fails_that_entry(self, g):
        pi, pp, fmt, efmt, real, payload = self.vector()
        bad = bytearray(payload)
        bad[(g - 1) * efmt.unit_len + efmt.unit_len // 2] ^= 0x01
        assert self.decode(bytes(bad), pp, fmt, real) == (None, g)

    @pytest.mark.parametrize(
        "slot, prefix",
        [(0, 21), (2, 0xFFFF), ("index", 3), ("index", 5)],
    )
    def test_bad_slot_fails_that_entry(self, slot, prefix):
        # the entry is resealed under the right key, so only the slot check
        # can reject it; a correct prefix is resealed as a control
        pi, pp, fmt, efmt, real, payload = self.vector()
        g = 4
        start = (g - 1) * efmt.unit_len
        unit = payload[start : start + efmt.unit_len]
        plain = bytearray(dec_unit(self.K_BAR, unit, efmt))
        offset = (real - 1 if slot == "index" else slot) * fmt.payload_len
        good = bytes(plain)
        plain[offset : offset + 2] = prefix.to_bytes(2, "big")

        def splice(packed):
            sealed = enc_unit(self.K_BAR, packed, efmt, random.Random(0))
            return payload[:start] + sealed + payload[start + efmt.unit_len :]

        assert self.decode(splice(good), pp, fmt, real) == (pi, None)
        assert self.decode(splice(bytes(plain)), pp, fmt, real) == (None, g)

    def test_short_plaintext_fails_that_entry(self):
        pi, pp, fmt, efmt, real, payload = self.vector()
        unit = enc_unit(self.K_BAR, b"\x00" * 40, efmt, random.Random(0))
        bad = payload[: efmt.unit_len] + unit + payload[2 * efmt.unit_len :]
        assert self.decode(bad, pp, fmt, real) == (None, 2)

    def test_tree_height_hidden_behind_pi_max(self):
        # m=64 and m=256 need 8 and 10 real slots; both pad to 12
        lengths, reals = set(), []
        for file_size in (1024, 4096):
            run = HonestRun(make_config(z=2, phi=4, pi_max=12), file_size=file_size)
            assert all(v.accepted for v in run.verdicts.values())
            lengths.update(len(p) for p in run.contract.proofs.values())
            reals.append(protocol.entry_real_units(run.client.pp.m))
        assert reals == [8, 10]
        assert lengths == {4 * protocol.entry_layout(run.client.fmt, 12).wire_len}

    def test_entry_past_one_unit_is_split(self):
        # 20 slots of 4102 bytes exceed one unit's 65,535-byte limit, so each
        # entry is sealed as two units of 10 slots
        config = make_config(z=2, phi=4, pi_max=20, payload=4096)
        run = HonestRun(config, file_size=8 * 4096)
        layout = protocol.entry_layout(run.client.fmt, 20)
        assert layout.units == 2
        assert layout.fmt.value_capacity == 10 * 4102
        assert all(v.accepted for v in run.verdicts.values())
        payload = run.contract.proofs[1]
        assert len(payload) == 4 * layout.wire_len
        real = protocol.entry_real_units(run.client.pp.m)
        args = (run.client.k_bar, 4, real, run.client.pad_pi, run.client.fmt)
        bad = bytearray(payload)
        bad[2 * layout.wire_len + layout.fmt.unit_len + 100] ^= 0x01  # entry 3, unit 2
        assert protocol.decode_proof_vector(bytes(bad), *args) == (None, 3)
        dummy = protocol.dummy_proof_vector(4, real, run.client.pad_pi,
                                            run.client.fmt, random.Random(0))
        assert len(dummy) == len(payload)


class TestResolutionFilters:
    def test_duplicate_server_complaints_collapse(self):
        kept, dropped = protocol._filter_server_complaints([2, 2, 3], z=3)
        assert kept == [2, 3]
        assert dropped == [2]

    def test_out_of_range_server_complaints_dropped(self):
        kept, dropped = protocol._filter_server_complaints([0, 1, 4], z=3)
        assert kept == [1]
        assert dropped == [0, 4]

    def test_client_complaints_dedupe_on_cycle(self):
        kept, dropped = protocol._filter_client_complaints(
            [(1, 2), (1, 3), (2, 1)], z=3, phi=4, v=[]
        )
        assert kept == [(1, 2), (2, 1)]
        assert dropped == [(1, 3)]

    def test_client_complaints_blocked_by_v(self):
        kept, dropped = protocol._filter_client_complaints(
            [(1, 2), (2, 1)], z=3, phi=4, v=[1]
        )
        assert kept == [(2, 1)]
        assert dropped == [(1, 2)]

    def test_entry_index_out_of_range_dropped(self):
        kept, dropped = protocol._filter_client_complaints(
            [(1, 5)], z=3, phi=4, v=[]
        )
        assert kept == []
        assert dropped == [(1, 5)]


class DisputedRun(HonestRun):
    """Honest run plus the resolution phase with the parties' complaints."""

    def resolve(self):
        ledger, contract = self.ledger, self.contract
        arbiter = Arbiter(self.addr_r)
        goto(ledger, contract, "K2")
        arbiter.resolve_server(
            self.server.complaints, self.server.opening_qp, ledger, contract
        )
        goto(ledger, contract, "K5")
        arbiter.resolve_client(
            self.client.complaints, self.client.opening_qp, ledger, contract
        )
        goto(ledger, contract, "K6")
        arbiter.post_counters(ledger, contract)
        return arbiter


class TestArbiterResolution:
    def test_invalid_query_complaint_lands_in_v(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=5,
            client_behavior=ClientBehavior(invalid_query=frozenset({1})),
        )
        arbiter = run.resolve()
        assert arbiter.report.v == [1]
        assert run.contract.counters == Counters(client_faults=1)
        assert (1, 1) in arbiter.report.client_filtered

    def test_false_query_complaint_charges_server_once(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=6,
            server_behavior=ServerBehavior(false_query_complaint=frozenset({2})),
        )
        arbiter = run.resolve()
        # the server pre-paid with one unneeded invocation; the client's
        # complaint about the dummy must not also charge a server fault
        assert run.contract.counters == Counters(server_unneeded_disputes=1)
        assert arbiter.report.update.attribution == {2: "server_unneeded_disputes"}

    def test_corrupt_block_charges_server_fault(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=8,
            server_behavior=ServerBehavior(corrupt_block=frozenset({2})),
        )
        arbiter = run.resolve()
        assert run.contract.counters == Counters(server_faults=1)
        assert arbiter.report.client_admitted == [(2, 1)]

    def test_false_accusation_charges_unneeded_dispute(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=9,
            client_behavior=ClientBehavior(false_accusation=frozenset({3})),
        )
        run.resolve()
        assert run.contract.counters == Counters(client_unneeded_disputes=1)

    def test_invalid_opening_discards_complaints(self):
        config = make_config(z=2)
        run = HonestRun(
            config, seed=7,
            server_behavior=ServerBehavior(corrupt_block=frozenset({1})),
        )
        arbiter = Arbiter(run.addr_r)
        goto(run.ledger, run.contract, "K5")
        bogus = Opening(run.client.opening_qp.statement, bytes(16))
        arbiter.resolve_client(run.client.complaints, bogus, run.ledger, run.contract)
        assert run.contract.counters == Counters()
        assert arbiter.report.client_admitted == []
        assert arbiter.report.client_filtered == [(1, 1)]

    def test_verdict_agreement_on_admitted_complaints(self):
        # the single re-check settles each admitted complaint the same way
        # the client's full verification did
        config = make_config(z=4)
        run = DisputedRun(
            config, seed=10,
            server_behavior=ServerBehavior(corrupt_block=frozenset({1, 3, 4})),
        )
        arbiter = run.resolve()
        assert sorted(j for j, _ in arbiter.report.client_admitted) == [1, 3, 4]
        for j, _ in arbiter.report.client_admitted:
            assert not run.verdicts[j].accepted
            assert arbiter.report.update.attribution[j] == "server_faults"
        assert run.contract.counters == Counters(server_faults=3)

    @staticmethod
    def pay(run):
        goto(run.ledger, run.contract, "L")
        run.client.request_payout(run.ledger)
        return protocol.payout_arbiter_variant(
            run.ledger, run.contract, run.client.opening_cp
        )

    def test_second_server_pass_is_refused(self):
        behavior = ClientBehavior(invalid_query=frozenset({1}))
        config = make_config(z=3)
        reference = DisputedRun(config, seed=5, client_behavior=behavior)
        reference.resolve()
        run = HonestRun(config, seed=5, client_behavior=behavior)
        arbiter = Arbiter(run.addr_r)
        goto(run.ledger, run.contract, "K2")
        args = (run.server.complaints, run.server.opening_qp, run.ledger, run.contract)
        assert arbiter.resolve_server(*args) == [1]
        with pytest.raises(DuplicateSlot):
            arbiter.resolve_server(*args)
        assert arbiter.report.v == [1]
        goto(run.ledger, run.contract, "K5")
        arbiter.resolve_client(
            run.client.complaints, run.client.opening_qp, run.ledger, run.contract
        )
        goto(run.ledger, run.contract, "K6")
        arbiter.post_counters(run.ledger, run.contract)
        assert run.contract.counters == Counters(client_faults=1)
        assert self.pay(run) == self.pay(reference)

    def test_second_client_pass_is_refused(self):
        behavior = ServerBehavior(corrupt_block=frozenset({2}))
        config = make_config(z=3)
        reference = DisputedRun(config, seed=8, server_behavior=behavior)
        reference.resolve()
        run = HonestRun(config, seed=8, server_behavior=behavior)
        arbiter = Arbiter(run.addr_r)
        goto(run.ledger, run.contract, "K5")
        args = (run.client.complaints, run.client.opening_qp, run.ledger, run.contract)
        arbiter.resolve_client(*args)
        with pytest.raises(DuplicateSlot):
            arbiter.resolve_client(*args)
        goto(run.ledger, run.contract, "K6")
        arbiter.post_counters(run.ledger, run.contract)
        assert run.contract.counters == Counters(server_faults=1)
        assert self.pay(run) == self.pay(reference)


class TestArbiterlessResolution:
    def drive(self, client_behavior=None, server_behavior=None, seed=21):
        config = make_config(z=3, variant=ARBITERLESS)
        run = HonestRun(config, seed=seed, client_behavior=client_behavior,
                        server_behavior=server_behavior)
        ledger, contract = run.ledger, run.contract
        if run.server.complaints:
            goto(ledger, contract, "K1")
            run.server.post_complaints(ledger)
        if run.client.complaints:
            goto(ledger, contract, "K4")
            run.client.post_complaints(ledger)
        goto(ledger, contract, "K5")
        report = protocol.contract_resolve(ledger, contract)
        return run, report

    def test_invalid_query_charges_client(self):
        run, report = self.drive(
            client_behavior=ClientBehavior(invalid_query=frozenset({1}))
        )
        assert report.v == [1]
        assert run.contract.counters == Counters(client_faults=1)
        assert (1, 1) in report.client_filtered

    def test_corrupt_proof_charges_server(self):
        run, report = self.drive(
            server_behavior=ServerBehavior(corrupt_block=frozenset({2}))
        )
        assert run.contract.counters == Counters(server_faults=1)
        assert report.client_admitted == [(2, 1)]

    def test_false_accusation_changes_nothing(self):
        run, report = self.drive(
            client_behavior=ClientBehavior(false_accusation=frozenset({3}))
        )
        assert run.contract.counters == Counters()
        assert report.client_admitted == [(3, 1)]

    def test_unneeded_server_complaint_changes_nothing(self):
        run, report = self.drive(
            server_behavior=ServerBehavior(false_query_complaint=frozenset({2}))
        )
        # valid query: no counter in this variant; the client's complaint
        # about the dummy still charges the server fault
        assert run.contract.counters == Counters(server_faults=1)
        assert report.server_admitted == [2]

    def test_payout_applies_fee_transfers(self):
        run, _ = self.drive(
            server_behavior=ServerBehavior(corrupt_block=frozenset({2}))
        )
        goto(run.ledger, run.contract, "L")
        run.client.request_payout(run.ledger)
        payout = protocol.payout_arbiterless_variant(
            run.ledger, run.contract, run.client.opening_cp
        )
        # z=3, o=5, l=2: client 21-10+2, server 6+10-2
        assert payout == {"client": 13, "server": 14}

    def test_second_resolve_is_refused(self):
        run, _ = self.drive(
            server_behavior=ServerBehavior(corrupt_block=frozenset({2}))
        )
        with pytest.raises(DuplicateSlot):
            protocol.contract_resolve(run.ledger, run.contract)
        assert run.contract.counters == Counters(server_faults=1)
        goto(run.ledger, run.contract, "L")
        run.client.request_payout(run.ledger)
        payout = protocol.payout_arbiterless_variant(
            run.ledger, run.contract, run.client.opening_cp
        )
        assert payout == {"client": 13, "server": 14}


class TestHostileComplaintPosts:
    """Arbiterless resolution must survive any bytes a party posts at K1/K4.

    The session has a corrupt proof in cycle 2; each post is a function of
    the run, so a test can build a post from the parties' real openings."""

    def resolve_and_pay(self, server_post=None, client_post=None):
        config = make_config(z=3, variant=ARBITERLESS)
        run = HonestRun(config, seed=21,
                        server_behavior=ServerBehavior(corrupt_block=frozenset({2})))
        ledger, contract = run.ledger, run.contract
        start = ledger.total_supply()
        for label, addr, kind, post in (
            ("K1", run.server.addr, protocol.MsgKind.SERVER_COMPLAINTS, server_post),
            ("K4", run.client.addr, protocol.MsgKind.CLIENT_COMPLAINTS, client_post),
        ):
            if post is not None:
                goto(ledger, contract, label)
                ledger.post(contract, protocol.LedgerMessage(addr, kind, post(run)))
        goto(ledger, contract, "K5")
        report = protocol.contract_resolve(ledger, contract)
        goto(ledger, contract, "L")
        run.client.request_payout(ledger)
        payout = protocol.payout_arbiterless_variant(
            ledger, contract, run.client.opening_cp
        )
        assert ledger.total_supply() == start
        assert contract.escrow == 0
        assert sum(payout.values()) == (
            contract.client_deposited + contract.server_deposited
        )
        return run, report, payout

    @staticmethod
    def client_complains(run):
        return protocol.pack_complaints(run.client.complaints, run.client.opening_qp)

    @pytest.mark.parametrize("payload", [
        pytest.param(b"not json", id="not-json"),
        pytest.param(b"\xff\xfe", id="not-utf8"),
        pytest.param(b"[1, 2]", id="not-an-object"),
        pytest.param(b'{"complaints": 5}', id="no-opening"),
        pytest.param(
            b'{"complaints": [1], "opening": {"statement": 1, "randomness": ""}}',
            id="opening-not-hex",
        ),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
    ])
    def test_unparseable_server_post_is_filtered(self, payload):
        run, report, payout = self.resolve_and_pay(
            server_post=lambda run: payload, client_post=self.client_complains
        )
        assert report.server_admitted == report.server_filtered == []
        assert report.client_admitted == [(2, 1)]
        assert run.contract.counters == Counters(server_faults=1)
        # z=3, o=5, l=2: client 21-10+2, server 6+10-2
        assert payout == {"client": 13, "server": 14}

    def test_unparseable_client_post_is_filtered(self):
        run, report, payout = self.resolve_and_pay(client_post=lambda run: b"not json")
        assert report.client_admitted == report.client_filtered == []
        assert run.contract.counters == Counters()
        # the unproven cycle is paid like the others: client 21-15, server 6+15
        assert payout == {"client": 6, "server": 21}

    def test_wrong_typed_items_are_filtered(self):
        server_items = ["x", None, [1], {"j": 1}, float("inf"), 1]
        client_items = [{"j": 2}, [2], "ab", 7, [float("inf"), 1], [None, 1], [2, 1]]
        run, report, payout = self.resolve_and_pay(
            server_post=lambda run: protocol.pack_complaints(
                server_items, run.server.opening_qp
            ),
            client_post=lambda run: protocol.pack_complaints(
                client_items, run.client.opening_qp
            ),
        )
        assert report.server_admitted == [1]
        assert report.client_admitted == [(2, 1)]
        assert report.server_filtered == report.client_filtered == []
        assert run.contract.counters == Counters(server_faults=1)
        assert payout == {"client": 13, "server": 14}


class TestPayoutGuards:
    def test_refund_path_raises_on_normal_payout(self):
        config = make_config(z=2)
        ledger, client, server, handoff, _, _ = build_session(
            config, client_behavior=ClientBehavior(ill_formed_metadata=True)
        )
        goto(ledger, handoff.contract, "T1")
        server.init(handoff, ledger)
        goto(ledger, handoff.contract, "L")
        with pytest.raises(protocol.RefundPath):
            protocol.payout_arbiter_variant(ledger, handoff.contract,
                                            client.opening_cp)

    def test_bad_opening_rejected(self):
        config = make_config(z=2)
        run = HonestRun(config)
        goto(run.ledger, run.contract, "L")
        bogus = Opening(run.client.opening_cp.statement, bytes(16))
        with pytest.raises(protocol.BadOpening):
            protocol.payout_arbiter_variant(run.ledger, run.contract, bogus)

    def test_variant_mismatch_rejected(self):
        config = make_config(z=1, variant=ARBITERLESS)
        run = HonestRun(config)
        goto(run.ledger, run.contract, "L")
        with pytest.raises(ValueError):
            protocol.payout_arbiter_variant(
                run.ledger, run.contract, run.client.opening_cp
            )

    @pytest.mark.parametrize("variant, payout", [
        (ARBITER, protocol.payout_arbiter_variant),
        (ARBITERLESS, protocol.payout_arbiterless_variant),
    ])
    def test_payout_needs_pay_request(self, variant, payout):
        run = HonestRun(make_config(z=2, variant=variant))
        goto(run.ledger, run.contract, "L")
        with pytest.raises(protocol.PayNotRequested):
            payout(run.ledger, run.contract, run.client.opening_cp)
        assert run.contract.escrow > 0 and not run.contract.paid_out
        run.server.request_payout(run.ledger)
        payout(run.ledger, run.contract, run.client.opening_cp)
        assert run.contract.escrow == 0

    def test_refund_needs_pay_request(self):
        config = make_config(z=2)
        ledger, client, server, handoff, _, _ = build_session(
            config, client_behavior=ClientBehavior(ill_formed_metadata=True)
        )
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        goto(ledger, contract, "T2")
        with pytest.raises(protocol.PayNotRequested):
            protocol.refund_deposits(ledger, contract)
        client.request_payout(ledger)
        assert protocol.refund_deposits(ledger, contract) == {"client": 14, "server": 0}


class TestVariantConsistency:
    def test_distributions_differ_only_by_fee_transfers(self):
        # with no unnecessary invocations the two variants move the same o
        # amounts; the arbiter's fee folds back to the parties as +-l terms
        from porpay.scenario import expected_payout

        rng = random.Random(77)
        for _ in range(200):
            z = rng.randrange(1, 9)
            o, l = rng.randrange(0, 10), rng.randrange(0, 10)
            y_c = rng.randrange(0, z + 1)
            y_s = rng.randrange(0, z + 1)
            counters = Counters(client_faults=y_c, server_faults=y_s)
            dep_c, dep_s = z * (o + l), z * l
            a_client, a_server, a_arb = expected_payout(
                ARBITER, counters, z=z, o=o, l=l,
                client_deposit=dep_c, server_deposit=dep_s,
            )
            f_client, f_server, none = expected_payout(
                ARBITERLESS, counters, z=z, o=o, l=l,
                client_deposit=dep_c, server_deposit=dep_s,
            )
            assert none is None
            assert f_client - a_client == l * y_s
            assert f_server - a_server == l * y_c
            assert a_arb == (f_client - a_client) + (f_server - a_server)
            assert a_client + a_server + a_arb == f_client + f_server
