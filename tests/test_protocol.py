"""Statements, wire format, role flow, dispute filters, and payouts."""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porpay import merkle, por, protocol
from porpay.crypto import DecryptFailure, Opening, dec_unit, enc_unit
from porpay.hashing import count_hash_calls
from porpay.ledger import Counters, DuplicateSlot, Ledger, OutOfWindow, Schedule
from porpay.protocol import (
    Arbiter,
    Client,
    CpStatement,
    PriceList,
    PricePair,
    QpStatement,
    Server,
    SessionConfig,
)
from porpay.sap import sap_verify
from porpay.scenario import VARIANTS

ARBITER, ARBITERLESS = VARIANTS

PRICES = PriceList((PricePair(5, 2), PricePair(3, 1)))
# phase 8 under each variant's name, one function that reads the variant off
# the contract: the T2 refund or the L payout
PAYOUT = {
    ARBITER: protocol.payout_arbiter_variant,
    ARBITERLESS: protocol.payout_arbiterless_variant,
}


def make_config(z=3, phi=4, pi_max=None, payload=16, parity=False,
                choice=PricePair(5, 2)):
    return SessionConfig(
        z=z,
        phi=phi,
        price_list=PRICES,
        price_choice=choice,
        block_payload_len=payload,
        pi_max=pi_max,
        parity=parity,
    )


def build_session(config, seed=1, file_size=1024,
                  client_script=frozenset(), server_script=frozenset(), variant=ARBITER):
    """A session initiated at T0; only an ARBITER ``variant`` has an arbiter
    account, whose address the client passes on."""
    master = random.Random(seed)
    file = master.randbytes(file_size)
    ledger = Ledger()
    coin_client = config.z * (PRICES.o_max + PRICES.l_max)
    p_server = config.z * PRICES.l_max
    addr_c = ledger.create_account("client", coin_client)
    addr_s = ledger.create_account("server", p_server)
    addr_r = (
        ledger.create_account("arbiter", 0) if variant == ARBITER else None
    )
    client = Client(addr_c, random.Random(master.getrandbits(64)), config,
                    client_script)
    server = Server(addr_s, random.Random(master.getrandbits(64)), PRICES,
                    server_script)
    ledger.advance_time(Schedule(config.z).point("T0"))
    handoff = client.init(file, ledger, addr_s, addr_r)
    return ledger, client, server, handoff, addr_r, file


def setup_tree(rng, size, phi):
    """The prover's tree over a random file of ``size`` bytes, and its
    public parameters."""
    blocks, pp = por.setup(rng.randbytes(size), 16, phi)
    tree, _ = merkle.gen_tree(blocks, 16 + por.INDEX_LEN)
    return tree, pp


def entry_len(block_len, pi_max):
    """Wire length of one proof entry: nonce, the unit's 2-byte length
    prefix, two blocks, the 4-byte index, 16 bytes per digest or pad slot,
    and the tag."""
    return 12 + 2 + 2 * block_len + 4 + 16 * (pi_max - 3) + 16


def qp_fields(qp):
    """The fields of ``qp``'s bytes, in layout order."""
    return list(QpStatement._LAYOUT.unpack(qp.to_bytes()))


def _other_prf(qp):
    """The bytes of ``qp`` with a 64-bit PRF key in its PRF triple."""
    fields = qp_fields(qp)
    fields[5] = 64  # psi
    return QpStatement._LAYOUT.pack(*fields)


@st.composite
def edited_qp_bytes(draw):
    """A valid qp statement's bytes with one field replaced."""
    fields = [3, b"\x11" * 16, bytes(range(16)), 4, 9, *por.PRF_TRIPLE, 16]
    i = draw(st.integers(0, len(fields) - 1))
    if isinstance(fields[i], bytes):
        n = len(fields[i])
        fields[i] = draw(st.binary(min_size=n, max_size=n))
    else:
        fields[i] = draw(st.one_of(
            st.integers(0, 70_000),
            st.sampled_from([protocol.MAX_BLOCK_PAYLOAD_LEN + 1, 1 << 32,
                             (1 << 32) + 1, (1 << 64) - 1]),
            st.integers(0, (1 << 64) - 1),
        ))
    return QpStatement._LAYOUT.pack(*fields)


def goto(ledger, contract, label):
    target = Schedule(contract.params.z).point(label)
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

    def test_fixed_layout_sizes(self):
        pp = por.PublicParams(sigma=bytes(16), phi=1, m=1)
        assert len(QpStatement(0, bytes(16), pp).to_bytes()) == 88
        assert len(CpStatement(3, 5, 1, 2, 4).to_bytes()) == 40
        with pytest.raises(ValueError):
            CpStatement.from_bytes(CpStatement(3, 5, 1, 2, 4).to_bytes() + b"\x00")

    @pytest.mark.parametrize(
        "k_bar, sigma",
        [(bytes(3), bytes(16)), (bytes(17), bytes(16)), (bytes(16), bytes(15)),
         (bytes(16), b"")],
        ids=["key_3", "key_17", "root_15", "root_0"],
    )
    def test_key_or_root_of_other_length_refused(self, k_bar, sigma):
        # the layout would pad or cut them silently, so to_bytes refuses
        pp = por.PublicParams(sigma=sigma, phi=1, m=1)
        with pytest.raises(ValueError):
            QpStatement(0, k_bar, pp).to_bytes()

    @settings(max_examples=300)
    @given(st.one_of(
        st.binary(max_size=2 * QpStatement._LAYOUT.size),
        st.binary(min_size=QpStatement._LAYOUT.size, max_size=QpStatement._LAYOUT.size),
        edited_qp_bytes(),
    ))
    def test_any_bytes_parse_or_refuse(self, data):
        # any bytes either read as a statement the session can run, or
        # raise ValueError; what reads fixes a proof-vector shape and
        # round-trips
        try:
            qp = QpStatement.from_bytes(data)
        except ValueError:
            return
        assert isinstance(qp, QpStatement)
        assert qp.entry_unit is qp.entry_unit and qp.query_unit is qp.query_unit
        assert qp.to_bytes() == data
        assert QpStatement.from_bytes(qp.to_bytes()) == qp

    @pytest.mark.parametrize("statement", [QpStatement, CpStatement])
    @pytest.mark.parametrize("data", ["text", None, bytearray(88), memoryview(bytes(40))],
                             ids=["str", "none", "bytearray", "memoryview"])
    def test_statement_not_bytes_refused(self, statement, data):
        with pytest.raises(ValueError, match="not bytes"):
            statement.from_bytes(data)

    def test_prices_above_maxima_rejected(self):
        with pytest.raises(ValueError):
            CpStatement(o=6, o_max=5, l=2, l_max=2, z=3)


class TestSessionRules:
    """The rules ``SessionConfig``, ``PricePair`` and ``QpStatement`` hold at
    their edges."""

    @pytest.mark.parametrize("field", ["z", "phi", "payload"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_each_non_positive_field_refused(self, field, value):
        with pytest.raises(ValueError, match="must be positive"):
            make_config(**{field: value})

    def test_one_challenge_per_cycle_accepted(self):
        run = HonestRun(make_config(z=1, phi=1))
        assert run.client.qp.pp.phi == 1
        assert run.verdicts[1].accepted

    def test_one_byte_block_payload_runs(self):
        config = make_config(z=2, payload=1)
        run = HonestRun(config, file_size=64)
        qp = run.client.qp
        assert (qp.block_payload_len, qp.pp.m) == (1, 64)
        assert QpStatement.from_bytes(qp.to_bytes()) == qp
        assert run.a == 1
        assert all(v.accepted for v in run.verdicts.values())

    @pytest.mark.parametrize("o, l", [(-1, 0), (0, -1), (-1, -1)])
    def test_negative_price_refused(self, o, l):
        with pytest.raises(ValueError, match="non-negative"):
            PricePair(o, l)


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

    @pytest.mark.parametrize("pi_max", [protocol.MAX_ENTRY_SLOTS + 1, 100_000])
    def test_pi_max_above_largest_entry_refused(self, pi_max):
        # a 4-byte leaf index caps a path at 34 slots
        assert protocol.MAX_ENTRY_SLOTS == 34
        with pytest.raises(ValueError):
            make_config(pi_max=pi_max)
        assert make_config(pi_max=protocol.MAX_ENTRY_SLOTS).pi_max == 34


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
            _, _, _, handoff, _, _ = build_session(make_config(choice=choice))
            amounts.add(
                (
                    handoff.contract.params.client_deposit_required,
                    handoff.contract.params.server_deposit_required,
                )
            )
        assert amounts == {(21, 6)}

    def test_price_not_in_list(self):
        with pytest.raises(protocol.PriceNotInList):
            make_config(choice=PricePair(4, 2))


class TestClientInit:
    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_arbiter_address_makes_the_variant(self, variant):
        # the one statement of a session's variant is the contract's
        # arbiter address, which only the arbiter variant passes
        _, _, _, handoff, addr_r, _ = build_session(make_config(), variant=variant)
        params = handoff.contract.params
        assert params.addr_arbiter == addr_r
        assert params.arbiterless == (variant == ARBITERLESS) == (addr_r is None)

    def test_ill_formed_metadata_flips_the_honest_root(self, monkeypatch):
        # the bogus root is an edit of the file's own root, so set-up builds
        # one tree, the file's
        calls = []
        gen_tree = merkle.gen_tree
        monkeypatch.setattr(merkle, "gen_tree", lambda *a: calls.append(a) or gen_tree(*a))
        _, client, _, handoff, _, _ = build_session(
            make_config(), client_script=frozenset({("ill_formed_metadata", None)})
        )
        assert len(calls) == 1
        _, root = gen_tree(handoff.blocks, 16 + por.INDEX_LEN)
        assert client.qp.pp.sigma == bytes(b ^ 0xFF for b in root)


class TestServerInit:
    def test_honest_inputs_accepted(self):
        config = make_config()
        ledger, client, server, handoff, _, _ = build_session(config)
        goto(ledger, handoff.contract, "T1")
        assert server.init(handoff, ledger) == 1
        assert handoff.contract.server_deposited == 6
        assert handoff.contract.a_flag == 1
        assert server.tree.blocks is handoff.blocks

    def test_ill_formed_metadata_rejected(self):
        config = make_config()
        ledger, client, server, handoff, _, _ = build_session(
            config, client_script=frozenset({("ill_formed_metadata", None)})
        )
        goto(ledger, handoff.contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert handoff.contract.server_deposited == 0

    def hand_built(self, payload=16, file_size=512, client_deposit=21,
                   qp_server=None, refs=None, pad=0, qp_bytes=QpStatement.to_bytes,
                   variant=ARBITER):
        """Initiation done by hand instead of by Client.init, so the qp
        statement and the contract's agreement refs can carry what
        Client.init would refuse. ``qp_server`` names the server account
        the qp session is opened with (default: the contract's server);
        ``refs`` maps the (qp, cp) session ids to the contract's
        (``sap_qp``, ``sap_cp``);
        ``pad`` is the qp statement's pad count, and ``qp_bytes`` turns the
        statement into the bytes both parties commit to; only an ARBITER
        ``variant`` has an arbiter account."""
        config = make_config()
        ledger = Ledger()
        addr_c = ledger.create_account("client", 100)
        addr_s = ledger.create_account("server", 100)
        addr_qp = ledger.create_account(qp_server, 0) if qp_server else addr_s
        rng = random.Random(3)
        file = rng.randbytes(file_size)
        blocks, pp = por.setup(file, payload, config.phi)
        k_bar, _ = protocol.key_gen(rng, protocol.entry_real_units(pp.m),
                                    protocol.entry_real_units(pp.m))
        statement = qp_bytes(QpStatement(pad, k_bar, pp, payload))
        cp = CpStatement(5, 5, 2, 2, config.z)
        from porpay.sap import sap_init

        opening_qp, sid_qp = sap_init(ledger, addr_c, addr_qp, statement, rng)
        opening_cp, sid_cp = sap_init(ledger, addr_c, addr_s, cp.to_bytes(), rng)
        sap_qp, sap_cp = refs(sid_qp, sid_cp) if refs else (sid_qp, sid_cp)
        params = protocol.ContractParams(
            z=config.z,
            client_deposit_required=21,
            server_deposit_required=6,
            addr_client=addr_c,
            addr_server=addr_s,
            addr_arbiter=(ledger.create_account("arbiter", 0) if variant == ARBITER
                          else None),
            sap_qp=sap_qp,
            sap_cp=sap_cp,
        )
        contract = ledger.deploy_contract(addr_c, params)
        ledger.advance_time(Schedule(config.z).point("T0"))
        ledger.deposit(addr_c, contract, client_deposit)
        handoff = protocol.Handoff(blocks, opening_qp, opening_cp, contract)
        return ledger, addr_c, Server(addr_s, rng, PRICES), handoff

    def test_underfunded_client_rejected(self):
        # one coin less than coin* deposited
        ledger, _, server, handoff = self.hand_built(client_deposit=20)
        goto(ledger, handoff.contract, "T1")
        assert server.init(handoff, ledger) == 0

    def test_unframeable_block_payload_refunds(self):
        # a qp statement whose largest entry would overflow a unit's length
        # prefix: the server refuses before fixing a proof format, then T2
        # refunds
        payload = protocol.MAX_BLOCK_PAYLOAD_LEN + 1
        ledger, addr_c, server, handoff = self.hand_built(payload, 4 * payload)
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert contract.server_deposited == 0
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        protocol.payout_arbiter_variant(ledger, contract, handoff.opening_cp)
        assert ledger.balances() == {"client": 100, "server": 100, "arbiter": 0}

    @pytest.mark.parametrize(
        "qp_server, refs, same_opening",
        [
            # the qp session names another server than the contract's
            pytest.param("other server", None, False, id="foreign_session"),
            # both refs name the qp session, and both openings open it
            pytest.param(None, lambda qp, cp: (qp, qp), True, id="one_session_twice"),
            # list indexing would read -2 as the qp session, and agree
            pytest.param(None, lambda qp, cp: (-2, cp), False, id="negative_id"),
            pytest.param(None, lambda qp, cp: (qp, cp + 1), False, id="id_past_end"),
            # a missing ref is None, the default
            pytest.param(None, lambda qp, cp: (qp, None), False, id="one_ref"),
            pytest.param(None, lambda qp, cp: (None, None), False, id="no_refs"),
            # the qp session's id as text
            pytest.param(None, lambda qp, cp: (str(qp), cp), False, id="non_int_ref"),
        ],
    )
    def test_hostile_sap_refs_refund(self, qp_server, refs, same_opening):
        # the contract's agreement refs are the client's choice: a ref the
        # server cannot agree on is a failed agreement, answered with a = 0
        # and the T2 refund, never an exception before the answer is posted
        ledger, addr_c, server, handoff = self.hand_built(qp_server=qp_server, refs=refs)
        if same_opening:
            handoff = dataclasses.replace(handoff, opening_cp=handoff.opening_qp)
        contract = handoff.contract
        genesis_supply = ledger.total_supply()
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert contract.a_flag == 0
        assert contract.server_deposited == 0
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        protocol.payout_arbiter_variant(ledger, contract, handoff.opening_cp)
        balances = ledger.balances()
        assert (balances["client"], balances["server"], balances["arbiter"]) == (100, 100, 0)
        assert ledger.total_supply() == genesis_supply

    def test_tampered_opening_fails_agreement(self):
        config = make_config()
        ledger, client, server, handoff, _, _ = build_session(config)
        bad = protocol.Handoff(
            handoff.blocks,
            Opening(handoff.opening_qp.statement, bytes(16)),
            handoff.opening_cp,
            handoff.contract,
        )
        goto(ledger, handoff.contract, "T1")
        assert server.init(bad, ledger) == 0
        # the cp agreement still runs, so the ledger trace does not depend
        # on which agreement failed
        params = handoff.contract.params
        sid_qp, sid_cp = params.sap_qp, params.sap_cp
        assert ledger.session(sid_qp).g_server is None
        assert ledger.session(sid_cp).g_server is not None

    @pytest.mark.parametrize("cut", [1, 20, 1024])
    def test_short_block_buffer_rejected(self, cut):
        # the handed-off buffer must hold exactly m whole blocks; a short one
        # is refused rather than crashing the tree rebuild
        ledger, client, server, handoff, _, _ = build_session(make_config())
        short = handoff.blocks[:-cut]
        goto(ledger, handoff.contract, "T1")
        assert server.init(dataclasses.replace(handoff, blocks=short), ledger) == 0
        assert handoff.contract.server_deposited == 0

    def test_unsupported_prf_spec_refunds(self):
        # a client advertising a 64-bit PRF key in a statement that otherwise
        # agrees and matches the file: the server refuses, then T2 refunds
        ledger, addr_c, server, handoff = self.hand_built(qp_bytes=_other_prf)
        contract = handoff.contract
        # the statement carries psi = 64, and reading it refuses the triple
        with pytest.raises(ValueError, match="PRF triple"):
            QpStatement.from_bytes(handoff.opening_qp.statement)
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert contract.server_deposited == 0
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        protocol.payout_arbiter_variant(ledger, contract, handoff.opening_cp)
        assert ledger.balances() == {"client": 100, "server": 100, "arbiter": 0}

    @pytest.mark.parametrize(
        "pi_max, a", [(protocol.MAX_ENTRY_SLOTS, 1), (protocol.MAX_ENTRY_SLOTS + 1, 0),
                      (100_000, 0)]
    )
    def test_pad_budget_bounded(self, pi_max, a):
        # a 4-byte leaf index caps a path at 34 slots; a larger budget only
        # inflates what the server seals and posts, so it refuses the session.
        # SessionConfig refuses such a pi_max, so the statement is hand-built
        # (512 bytes in 16-byte payloads: m = 32)
        pad = pi_max - protocol.entry_real_units(32)
        ledger, addr_c, server, handoff = self.hand_built(pad=pad)
        contract = handoff.contract
        genesis_supply = ledger.total_supply()
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == a
        assert (contract.server_deposited > 0) == (a == 1)
        if a == 0:
            goto(ledger, contract, "T2")
            ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
            protocol.payout_arbiter_variant(ledger, contract, handoff.opening_cp)
            assert ledger.balances() == {"client": 100, "server": 100, "arbiter": 0}
            assert ledger.total_supply() == genesis_supply

    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    @pytest.mark.parametrize(
        "refused",
        [
            pytest.param(dict(payload=protocol.MAX_BLOCK_PAYLOAD_LEN + 1,
                              file_size=4 * (protocol.MAX_BLOCK_PAYLOAD_LEN + 1)),
                         id="payload_past_max"),
            # 512 bytes in 16-byte payloads: m = 32
            pytest.param(dict(pad=protocol.MAX_ENTRY_SLOTS - protocol.entry_real_units(32) + 1),
                         id="pad_past_max"),
            pytest.param(dict(qp_bytes=_other_prf), id="other_prf"),
        ],
    )
    def test_refused_statement_resolves_to_nothing(self, variant, refused):
        # both parties agree on a qp statement the server refuses: the T2
        # refund is exact, and resolution over the agreed opening filters
        # every complaint instead of raising
        ledger, addr_c, server, handoff = self.hand_built(variant=variant, **refused)
        contract, opening = handoff.contract, handoff.opening_qp
        genesis_supply = ledger.total_supply()
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert sap_verify(opening, addr_c, server.addr, contract.params.sap_qp, ledger)
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        PAYOUT[variant](ledger, contract, handoff.opening_cp)
        refunded = {"client": 100, "server": 100}
        if variant == ARBITER:
            refunded["arbiter"] = 0
        assert ledger.balances() == refunded

        server_items, client_items = [1, 2], [(1, 1), (3, 2)]
        server_post = protocol.pack_complaints(opening, server_items)
        client_post = protocol.pack_complaints(opening, [1, 1, 3, 2])
        if variant == ARBITER:
            arbiter = Arbiter(contract.params.addr_arbiter)
            goto(ledger, contract, "K2")
            arbiter.resolve_server(server_post, ledger, contract)
            goto(ledger, contract, "K5")
            arbiter.resolve_client(client_post, ledger, contract)
            goto(ledger, contract, "K6")
            arbiter.post_counters(ledger, contract)
            report = arbiter.report
        else:
            for label, addr, kind, post in (
                ("K1", server.addr, protocol.MsgKind.SERVER_COMPLAINTS, server_post),
                ("K4", addr_c, protocol.MsgKind.CLIENT_COMPLAINTS, client_post),
            ):
                goto(ledger, contract, label)
                ledger.post(contract, protocol.LedgerMessage(addr, kind, post))
            goto(ledger, contract, "K5")
            report = protocol.contract_resolve(ledger, contract)
        listed = report.as_dict()
        assert listed["server_admitted"] == listed["client_admitted"] == []
        assert listed["server_filtered"] == server_items
        assert listed["client_filtered"] == [list(c) for c in client_items]
        assert contract.counters == Counters()
        assert ledger.balances() == refunded
        assert ledger.total_supply() == genesis_supply

    @pytest.mark.parametrize("field", ["opening_qp", "opening_cp"])
    def test_statement_not_bytes_refunds(self, field):
        # a handoff whose opening carries its statement as text: the server
        # refuses to read it and to agree, answers a = 0, and T2 refunds
        ledger, addr_c, server, handoff = self.hand_built()
        opening = getattr(handoff, field)
        text = Opening(opening.statement.decode("latin-1"), opening.randomness)
        handoff = dataclasses.replace(handoff, **{field: text})
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert (contract.a_flag, contract.server_deposited) == (0, 0)
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        protocol.payout_arbiter_variant(ledger, contract, handoff.opening_cp)
        assert ledger.balances() == {"client": 100, "server": 100, "arbiter": 0}

    @pytest.mark.parametrize("field", ["opening_qp", "opening_cp"])
    @pytest.mark.parametrize(
        "replace",
        [
            pytest.param(lambda opening: None, id="none"),
            pytest.param(lambda opening: (opening.statement, opening.randomness),
                         id="tuple"),
            pytest.param(lambda opening: opening.statement + opening.randomness,
                         id="bytes"),
        ],
    )
    def test_opening_not_an_opening_refunds(self, field, replace):
        # the handoff's openings are the client's choice: one that is not an
        # Opening is refused before it is read, the other agreement still
        # runs, the server answers a = 0, and T2 refunds every deposit
        ledger, addr_c, server, handoff = self.hand_built()
        client_opening_cp = handoff.opening_cp
        handoff = dataclasses.replace(
            handoff, **{field: replace(getattr(handoff, field))}
        )
        contract = handoff.contract
        genesis_supply = ledger.total_supply()
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert (contract.a_flag, contract.server_deposited) == (0, 0)
        sid_qp, sid_cp = contract.params.sap_qp, contract.params.sap_cp
        other = sid_cp if field == "opening_qp" else sid_qp
        assert ledger.session(other).g_server is not None
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        protocol.payout_arbiter_variant(ledger, contract, client_opening_cp)
        assert ledger.balances() == {"client": 100, "server": 100, "arbiter": 0}
        assert ledger.total_supply() == genesis_supply

    @pytest.mark.parametrize(
        "convert",
        [
            pytest.param(lambda blocks: blocks.decode("latin-1"), id="str"),
            pytest.param(list, id="list"),
            pytest.param(bytearray, id="bytearray"),
            pytest.param(memoryview, id="memoryview"),
        ],
    )
    def test_block_buffer_not_bytes_refunds(self, convert):
        # m whole blocks of the agreed length, but not in one bytes buffer:
        # the server refuses before rebuilding the tree, answers a = 0, and
        # T2 refunds every deposit
        ledger, addr_c, server, handoff = self.hand_built()
        handoff = dataclasses.replace(handoff, blocks=convert(handoff.blocks))
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert (contract.a_flag, contract.server_deposited) == (0, 0)
        assert server.tree is None
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        protocol.payout_arbiter_variant(ledger, contract, handoff.opening_cp)
        assert ledger.balances() == {"client": 100, "server": 100, "arbiter": 0}

    def test_phi_above_m_refunds(self):
        # a qp statement whose bytes carry phi = m + 1 and that both parties
        # agree on: PublicParams refuses to parse it, so the server answers
        # a = 0 and T2 refunds every deposit
        def phi_past_m(qp):
            fields = qp_fields(qp)
            fields[3] = qp.pp.m + 1  # phi
            return QpStatement._LAYOUT.pack(*fields)

        ledger, addr_c, server, handoff = self.hand_built(qp_bytes=phi_past_m)
        contract = handoff.contract
        genesis_supply = ledger.total_supply()
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        assert (contract.a_flag, contract.server_deposited) == (0, 0)
        goto(ledger, contract, "T2")
        ledger.post(contract, protocol.LedgerMessage(addr_c, protocol.MsgKind.PAY, b"pay"))
        protocol.payout_arbiter_variant(ledger, contract, handoff.opening_cp)
        assert ledger.balances() == {"client": 100, "server": 100, "arbiter": 0}
        assert ledger.total_supply() == genesis_supply


class HonestRun:
    """Drive one session through the billing cycles, keeping the pieces."""

    def __init__(self, config, seed=1, file_size=1024,
                 client_script=frozenset(), server_script=frozenset(), variant=ARBITER):
        self.ledger, self.client, self.server, self.handoff, self.addr_r, self.file = (
            build_session(config, seed=seed, file_size=file_size,
                          client_script=client_script,
                          server_script=server_script, variant=variant)
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
                self.b[j] = self.server.prove_cycle(j, self.ledger)
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

    def test_prove_cycle_returns_b_and_files_each_complaint(self):
        # b is 1 for a proof and 0 for a complaint about the query, whether
        # the query is invalid or the server lies; each 0 files its cycle
        run = HonestRun(
            make_config(z=3), seed=21,
            client_script=frozenset({("invalid_query", 3)}),
            server_script=frozenset({("false_query_complaint", 2)}),
        )
        assert run.b == {1: 1, 2: 0, 3: 0}
        assert all(type(b) is int for b in run.b.values())
        assert run.server.complaints == [2, 3]

    def test_invalid_query_fails_the_cycle_unopened(self, monkeypatch):
        # the client reads its own query as the server does, and a key that
        # is not 16 bytes fails the cycle at entry 1 with no proof opened
        calls = []
        decode = protocol.decode_proof_vector
        monkeypatch.setattr(protocol, "decode_proof_vector",
                            lambda *a: calls.append(a) or decode(*a))
        run = HonestRun(make_config(z=2), client_script=frozenset({("invalid_query", 1)}))
        assert run.b == {1: 0, 2: 1}
        assert run.verdicts[1] == por.Verdict(1)
        assert run.client.complaints == [(1, 1)]
        assert len(calls) == 1  # cycle 2's proof alone

    @pytest.mark.parametrize("script", [
        frozenset({("invalid_query", 1)}),
        frozenset({("withhold_query", 1)}),
    ], ids=["invalid_query", "withhold_query"])
    def test_dummy_answered_cycle_hashes_nothing(self, script):
        # the query post, the server's dummy vector and its post, and the
        # client's check of it: the ledger hashes a payload only when its
        # trace is exported
        ledger, client, server, handoff, _, _ = build_session(
            make_config(z=1), seed=5, client_script=script
        )
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 1
        with count_hash_calls() as taken:
            goto(ledger, contract, "G1.1")
            client.post_query(1, ledger)
            goto(ledger, contract, "G1.2")
            assert server.prove_cycle(1, ledger) == 0
            client.verify_cycle(1, ledger)
        assert 1 in contract.proofs
        assert taken() == 0

    def test_query_units_decrypt_to_challenge_keys(self):
        config = make_config(z=2)
        run = HonestRun(config)
        for j, unit in run.contract.queries.items():
            key = dec_unit(run.client.qp.k_bar, unit, run.client.qp.query_unit)
            assert len(key) == 16


class TestWireShape:
    def test_vector_unit_count_and_length(self):
        config = make_config(z=1, phi=4, pi_max=None)
        run = HonestRun(config)
        m = run.client.qp.pp.m
        real = protocol.entry_real_units(m)
        payload = run.contract.proofs[1]
        qp = run.client.qp
        assert (qp.pp.phi, len(qp.lens)) == (config.phi, real)
        assert qp.entry_unit.unit_len == entry_len(20, real)
        assert len(payload) == config.phi * qp.entry_unit.unit_len

    def test_padded_vector_shape(self):
        # m=64 blocks -> height 6 -> 8 real slots; budget of 11 pads by 3
        config = make_config(z=1, phi=4, pi_max=11)
        run = HonestRun(config, file_size=1024)
        assert run.client.qp.pad_pi == 3
        payload = run.contract.proofs[1]
        assert run.client.qp.entry_unit.unit_len == entry_len(20, 11)
        assert len(payload) == config.phi * entry_len(20, 11)

    def test_largest_block_payload_fits_one_entry_unit(self):
        # the largest entry, 34 slots, is two blocks, the 4-byte index and
        # 31 digests or pads, and a unit's 2-byte prefix states at most
        # 65,535 bytes: (65,535 - 12 - 31 * 16) // 2 = 32,513
        assert protocol.MAX_BLOCK_PAYLOAD_LEN == 32_513
        payload = protocol.MAX_BLOCK_PAYLOAD_LEN
        run = HonestRun(make_config(z=1, phi=2, payload=payload,
                                    pi_max=protocol.MAX_ENTRY_SLOTS),
                        file_size=2 * payload)
        assert run.verdicts[1].accepted
        entry_unit = run.client.qp.entry_unit
        assert entry_unit.value_capacity == 2 * (payload + 4) + 4 + 31 * 16 <= 0xFFFF
        assert len(run.contract.proofs[1]) == 2 * entry_unit.unit_len
        # one byte more is refused by the config and by the statement, so a
        # server handed such a statement answers a = 0
        # (TestServerInit::test_unframeable_block_payload_refunds)
        with pytest.raises(ValueError):
            make_config(payload=payload + 1)
        qp = dataclasses.replace(run.client.qp, block_payload_len=payload + 1)
        with pytest.raises(ValueError, match="block payload"):
            QpStatement.from_bytes(qp.to_bytes())

    def test_dummy_matches_real_shape(self):
        rng = random.Random(0)
        tree, pp = setup_tree(rng, 512, 4)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        qp = QpStatement(2, b"\x01" * 16, pp)
        genuine = protocol.encode_proof_vector(pi, qp, rng)
        dummy = protocol.dummy_proof_vector(qp, rng)
        assert len(genuine) == len(dummy)

    def test_decode_recovers_vector(self):
        rng = random.Random(0)
        tree, pp = setup_tree(rng, 512, 4)
        key = por.gen_query(rng)
        pi = por.prove(tree, key, pp)
        qp = QpStatement(2, b"\x02" * 16, pp)
        payload = protocol.encode_proof_vector(pi, qp, rng)
        entries, failed = protocol.decode_proof_vector(payload, qp)
        assert failed is None
        assert entries == pi

    def test_entry_of_another_height_rejected(self):
        # m=32 paths carry 7 values; a format for m=64 expects 8
        rng = random.Random(0)
        tree, pp = setup_tree(rng, 512, 4)
        pi = por.prove(tree, por.gen_query(rng), pp)
        taller = QpStatement(2, b"\x01" * 16, por.PublicParams(pp.sigma, pp.phi, 64))
        with pytest.raises(ValueError):
            protocol.encode_proof_vector(pi, taller, rng)

    def test_dummy_fails_decode_at_first_entry(self):
        rng = random.Random(0)
        qp = QpStatement(0, b"\x03" * 16, por.PublicParams(bytes(16), phi=4, m=64))
        assert len(qp.lens) == 8
        dummy = protocol.dummy_proof_vector(qp, rng)
        entries, failed = protocol.decode_proof_vector(dummy, qp)
        assert entries is None
        assert failed == 1


class TestOneShapePerSession:
    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_shape_derived_once_from_the_statement(self, variant):
        # the client's, the server's and the resolvers' statements are one
        # statement, so they fix one proof-vector shape, and each statement
        # derives its geometry once
        run = HonestRun(make_config(z=2), variant=variant)
        client_qp, server_qp = run.client.qp, run.server.qp
        agreed = protocol._agreed(run.client.opening_qp, QpStatement,
                                  run.contract.params.sap_qp, run.contract, run.ledger)
        assert agreed == QpStatement.from_bytes(run.client.opening_qp.statement)
        assert client_qp == server_qp == agreed
        for name in ("lens", "query_unit", "entry_unit"):
            assert getattr(client_qp, name) == getattr(server_qp, name) == getattr(agreed, name)
        for qp in (client_qp, server_qp, agreed):
            for name in ("lens", "query_unit", "entry_unit", "split"):
                assert getattr(qp, name) is getattr(qp, name)
        assert all(v.accepted for v in run.verdicts.values())
        # derived on first use: a hand-built statement whose pad count admits
        # no shape still builds
        assert QpStatement(-1000, bytes(16), client_qp.pp).pad_pi == -1000


class TestEntryUnits:
    """One cipher unit per proof entry: layout, per-entry failure, and the
    tree height hidden behind pi_max."""

    K_BAR = b"\x04" * 16
    PAD = 2

    def vector(self):
        rng = random.Random(5)
        tree, pp = setup_tree(rng, 512, 6)
        pi = por.prove(tree, por.gen_query(rng), pp)
        qp = QpStatement(self.PAD, self.K_BAR, pp)
        payload = protocol.encode_proof_vector(pi, qp, rng)
        return pi, qp, qp.entry_unit, payload

    def decode(self, payload, qp):
        return protocol.decode_proof_vector(payload, QpStatement.from_bytes(qp.to_bytes()))

    def reseal(self, payload, g, value, efmt):
        """``payload`` with entry ``g`` resealed around ``value`` under the
        right key."""
        start = (g - 1) * efmt.unit_len
        sealed = enc_unit(self.K_BAR, value, efmt, random.Random(0))
        return payload[:start] + sealed + payload[start + efmt.unit_len :]

    @pytest.mark.parametrize("reshape", [
        lambda vector, phi: vector + b"\0",
        lambda vector, phi: vector[: len(vector) - len(vector) // phi],
    ], ids=["one-byte-long", "last-entry-cut"])
    def test_mis_shaped_vector_opens_nothing(self, reshape, monkeypatch):
        # the vector's shape is checked before any unit is opened, so an
        # entry that would open on its own is refused too
        pi, qp, efmt, payload = self.vector()
        assert protocol.open_entry(payload, 1, qp) == pi[0]
        opens = []

        def counting_dec_unit(*args):
            opens.append(args)
            return dec_unit(*args)

        monkeypatch.setattr(protocol, "dec_unit", counting_dec_unit)
        bad = reshape(payload, qp.pp.phi)
        for g in (1, qp.pp.phi):
            with pytest.raises(DecryptFailure, match="vector length"):
                protocol.open_entry(bad, g, qp)
        assert self.decode(bad, qp) == (None, 1)
        assert opens == []

    def test_entry_plaintext_layout(self):
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        pi, qp, efmt, payload = self.vector()
        assert len(payload) == qp.pp.phi * efmt.unit_len == qp.pp.phi * entry_len(20, 9)
        for g, path in enumerate(pi):
            unit = payload[g * efmt.unit_len : (g + 1) * efmt.unit_len]
            plain = AESGCM(self.K_BAR).decrypt(unit[:12], unit[12:], None)
            values = [path.leaf_block, path.sibling_block, *path.sibling_digests,
                      path.leaf_index.to_bytes(4, "big")]
            assert len(values) == len(qp.lens) == 7
            body = b"".join(values)
            assert plain == len(body).to_bytes(2, "big") + body + bytes(self.PAD * 16)

    @pytest.mark.parametrize("g", [1, 3, 6])
    def test_flipped_byte_fails_that_entry(self, g):
        pi, qp, efmt, payload = self.vector()
        bad = bytearray(payload)
        bad[(g - 1) * efmt.unit_len + efmt.unit_len // 2] ^= 0x01
        assert self.decode(bytes(bad), qp) == (None, g)

    @pytest.mark.parametrize(
        "slot, length",
        [(0, 21), (2, 0xFFFF), ("index", 3), ("index", 5)],
    )
    def test_bad_slot_fails_that_entry(self, slot, length):
        # entry 4 is resealed under the right key with one value at another
        # length (cut to what one unit carries), so only the value-length
        # check can reject it; its own values are resealed as a control
        pi, qp, efmt, payload = self.vector()
        g = 4
        path = pi[g - 1]
        values = [path.leaf_block, path.sibling_block, *path.sibling_digests,
                  path.leaf_index.to_bytes(4, "big")]
        good = self.reseal(payload, g, b"".join(values), efmt)
        assert self.decode(good, qp) == (pi, None)
        k = len(values) - 1 if slot == "index" else slot
        values[k] = (values[k] + bytes(length))[:length]
        bad = self.reseal(payload, g, b"".join(values)[: efmt.value_capacity], efmt)
        assert self.decode(bad, qp) == (None, g)

    def test_first_malformed_entry_fails(self):
        # entry 2 opens to a value one byte short, resealed under the right
        # key, and entry 5 does not open: entry 2 is the first failing entry
        pi, qp, efmt, payload = self.vector()
        value = dec_unit(self.K_BAR, payload[efmt.unit_len : 2 * efmt.unit_len], efmt)
        bad = bytearray(self.reseal(payload, 2, value[:-1], efmt))
        bad[4 * efmt.unit_len + efmt.unit_len // 2] ^= 0x01
        assert self.decode(bytes(bad), qp) == (None, 2)

    @pytest.mark.parametrize("g", [None, 1, 3, 6])
    def test_decode_opens_each_entry_once_in_order(self, g, monkeypatch):
        # the vector's shape is checked once; then one dec_unit per entry,
        # in order, up to and including the first that fails
        pi, qp, efmt, payload = self.vector()
        if g is not None:
            bad = bytearray(payload)
            bad[(g - 1) * efmt.unit_len + efmt.unit_len // 2] ^= 0x01
            payload = bytes(bad)
        opened = []

        def recording_dec_unit(key, unit, fmt):
            opened.append(payload.index(unit) // efmt.unit_len + 1)
            return dec_unit(key, unit, fmt)

        monkeypatch.setattr(protocol, "dec_unit", recording_dec_unit)
        entries, failed = protocol.decode_proof_vector(payload, qp)
        assert (entries, failed) == ((pi, None) if g is None else (None, g))
        assert opened == list(range(1, (g or qp.pp.phi) + 1))

    def test_short_plaintext_fails_that_entry(self):
        pi, qp, efmt, payload = self.vector()
        bad = self.reseal(payload, 2, b"\x00" * 40, efmt)
        assert self.decode(bad, qp) == (None, 2)

    def test_tree_height_hidden_behind_pi_max(self):
        # m=64 and m=256 need 8 and 10 real slots; both pad to 12
        lengths, reals = set(), []
        for file_size in (1024, 4096):
            run = HonestRun(make_config(z=2, phi=4, pi_max=12), file_size=file_size)
            assert all(v.accepted for v in run.verdicts.values())
            lengths.update(len(p) for p in run.contract.proofs.values())
            reals.append(protocol.entry_real_units(run.client.qp.pp.m))
        assert reals == [8, 10]
        assert lengths == {4 * entry_len(20, 12)}


class TestCompiledEntryLayout:
    """An entry's value is the path's values back to back at the agreed
    lengths: sealing lays the path out so, and opening returns the path iff
    the value is exactly that long, whatever the pad holds, for honest and
    hostile entries alike."""

    K_BAR = b"\x05" * 16

    def shape(self, data):
        """A statement under ``K_BAR`` and its expected value lengths: a
        payload of 1 to 64 bytes with 0 to 4 pad slots, or a 4,200-byte
        payload with 12 pad slots."""
        payload, pad = data.draw(
            st.one_of(
                st.tuples(st.integers(1, 64), st.integers(0, 4)),
                st.just((4200, 12)),
            )
        )
        m = data.draw(st.sampled_from([8, 715, 1 << 16]))
        qp = QpStatement(pad, self.K_BAR, por.PublicParams(bytes(16), phi=1, m=m), payload)
        real = protocol.entry_real_units(m)
        lens = [payload + 4, payload + 4] + [16] * (real - 3) + [4]
        assert qp.lens == tuple(lens)
        assert qp.entry_unit.value_capacity == sum(lens) + 16 * pad
        return qp, lens

    @staticmethod
    def path(values):
        return merkle.MerklePath(
            values[0], values[1], tuple(values[2:-1]), int.from_bytes(values[-1], "big")
        )

    @settings(max_examples=120)
    @given(st.data())
    def test_open_reads_only_the_agreed_lengths(self, data):
        qp, lens = self.shape(data)
        efmt = qp.entry_unit
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        values = [rng.randbytes(n) for n in lens]
        # the value cut or grown by up to 16 bytes, within the unit
        delta = data.draw(st.integers(-16, min(16, efmt.value_capacity - sum(lens))))
        value = b"".join(values)
        value = value[: len(value) + delta] if delta < 0 else value + rng.randbytes(delta)
        nonce = rng.randbytes(12)
        plain = bytearray(efmt.layout.pack(len(value), value))
        if data.draw(st.booleans()) and len(plain) > 2 + len(value):
            # a non-zero byte in the zero fill, which the pad slots are
            plain[data.draw(st.integers(2 + len(value), len(plain) - 1))] = 0xA5
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM
        sealed = nonce + AESGCM(self.K_BAR).encrypt(nonce, bytes(plain), None)
        if delta == 0:
            assert protocol.open_entry(sealed, 1, qp) == self.path(values)
        else:
            with pytest.raises(DecryptFailure, match="value length"):
                protocol.open_entry(sealed, 1, qp)

    @settings(max_examples=60)
    @given(st.data())
    def test_encode_frames_the_path_values(self, data):
        qp, lens = self.shape(data)
        efmt = qp.entry_unit
        seed = data.draw(st.integers(0, 2**32))
        rng = random.Random(seed)
        values = [rng.randbytes(n) for n in lens]
        path = self.path(values)
        got = protocol.encode_proof_vector((path,), qp, random.Random(seed))
        assert got == enc_unit(self.K_BAR, b"".join(values), efmt, random.Random(seed))
        assert protocol.open_entry(got, 1, qp) == path
        # a hand-built path carrying a block or digest of another length is
        # refused rather than sealed
        k = data.draw(st.integers(0, len(lens) - 2))
        values[k] = rng.randbytes(lens[k] + data.draw(st.sampled_from([-1, 1])))
        bad = merkle.MerklePath(
            values[0], values[1], tuple(values[2:-1]), path.leaf_index
        )
        with pytest.raises(ValueError):
            protocol.encode_proof_vector((bad,), qp, random.Random(seed))


class TestResolutionFilters:
    @staticmethod
    def split(items, admissible):
        """The items ``protocol._rule`` admits and those it filters; each
        admitted item is judged nobody's fault."""
        rulings = [*protocol._rule(items, admissible, lambda j, g: protocol.NOBODY)]
        assert [(j, g) for j, g, _ in rulings] == list(items)
        kept = [(j, g) for j, g, o in rulings if o == protocol.NOBODY]
        dropped = [(j, g) for j, g, o in rulings if o == protocol.FILTERED]
        return kept, dropped

    def server(self, cycles, z=3):
        kept, dropped = self.split([(j, None) for j in cycles], lambda j, g: 1 <= j <= z)
        return [j for j, _ in kept], [j for j, _ in dropped]

    def client(self, items, z=3, phi=4, v=()):
        return self.split(
            items, lambda j, g: 1 <= j <= z and 1 <= g <= phi and j not in v
        )

    def test_duplicate_server_complaints_collapse(self):
        kept, dropped = self.server([2, 2, 3])
        assert kept == [2, 3]
        assert dropped == [2]

    def test_out_of_range_server_complaints_dropped(self):
        kept, dropped = self.server([0, 1, 4])
        assert kept == [1]
        assert dropped == [0, 4]

    def test_client_complaints_dedupe_on_cycle(self):
        kept, dropped = self.client([(1, 2), (1, 3), (2, 1)])
        assert kept == [(1, 2), (2, 1)]
        assert dropped == [(1, 3)]

    def test_client_complaints_blocked_by_v(self):
        kept, dropped = self.client([(1, 2), (2, 1)], v={1})
        assert kept == [(2, 1)]
        assert dropped == [(1, 2)]

    def test_entry_index_out_of_range_dropped(self):
        kept, dropped = self.client([(1, 5)])
        assert kept == []
        assert dropped == [(1, 5)]


FILTERED, BAD_QUERY, BAD_PROOF, NOBODY = (
    protocol.FILTERED, protocol.BAD_QUERY, protocol.BAD_PROOF, protocol.NOBODY
)

# rulings, then their charges with an arbiter and without one; g is None on
# a server item and 1 on a client item
CHARGE_TABLE = {
    "server-filtered": ([(1, None, FILTERED)], [], []),
    "server-bad-query": ([(1, None, BAD_QUERY)],
                         [(1, "client_faults")], [(1, "client_faults")]),
    "server-bad-proof": ([(1, None, BAD_PROOF)],
                         [(1, "server_faults")], [(1, "server_faults")]),
    "server-nobody": ([(1, None, NOBODY)], [(1, "server_unneeded_disputes")], []),
    "client-filtered": ([(1, 1, FILTERED)], [], []),
    "client-bad-query": ([(1, 1, BAD_QUERY)],
                         [(1, "client_faults")], [(1, "client_faults")]),
    "client-bad-proof": ([(1, 1, BAD_PROOF)],
                         [(1, "server_faults")], [(1, "server_faults")]),
    "client-nobody": ([(1, 1, NOBODY)], [(1, "client_unneeded_disputes")], []),
    # a server complaint about a valid query, then the client's complaint
    # about the dummy proof: with an arbiter the server pays only the
    # unneeded dispute, so the honest client still pays o for the cycle.
    # ROADMAP item 1 flips this row to a server fault with an arbiter too
    "server-nobody-then-client-bad-proof": (
        [(2, None, NOBODY), (2, 1, BAD_PROOF)],
        [(2, "server_unneeded_disputes")], [(2, "server_faults")],
    ),
    # both parties disputed cycle 3 needlessly: with an arbiter, two charges
    # but one attribution entry, the client's
    "both-parties-nobody": (
        [(3, None, NOBODY), (3, 1, NOBODY)],
        [(3, "server_unneeded_disputes"), (3, "client_unneeded_disputes")], [],
    ),
}


class TestCharges:
    @pytest.mark.parametrize("rulings, with_arbiter, without", CHARGE_TABLE.values(),
                             ids=CHARGE_TABLE)
    def test_charges(self, rulings, with_arbiter, without):
        for arbiterless, want in ((False, with_arbiter), (True, without)):
            assert protocol.charges(rulings, arbiterless) == want
            report = protocol.ResolutionReport(arbiterless, list(rulings))
            assert report.increments == sum(
                (Counters(**{counter: 1}) for _, counter in want), Counters()
            )
            # one counter per cycle: the one charged last
            assert report.attribution == dict(want)


class DisputedRun(HonestRun):
    """Honest run plus the resolution phase with the parties' complaints."""

    def resolve(self):
        ledger, contract = self.ledger, self.contract
        arbiter = Arbiter(self.addr_r)
        goto(ledger, contract, "K2")
        arbiter.resolve_server(self.server.complaint_post(), ledger, contract)
        goto(ledger, contract, "K5")
        arbiter.resolve_client(self.client.complaint_post(), ledger, contract)
        goto(ledger, contract, "K6")
        arbiter.post_counters(ledger, contract)
        return arbiter


class TestArbiterResolution:
    def test_complaint_about_the_last_entry_charges_server(self, monkeypatch):
        # only entry g = phi of cycle 2 fails: the client names it, and the
        # complaint is admitted and charged to the server
        def corrupt_last_entry(pi):
            path = pi[-1]
            bad = bytes([path.leaf_block[0] ^ 0x01]) + path.leaf_block[1:]
            return pi[:-1] + (path._replace(leaf_block=bad),)

        monkeypatch.setattr(protocol, "_corrupt_first_entry", corrupt_last_entry)
        config = make_config(z=3, phi=4)
        run = DisputedRun(config, seed=5,
                          server_script=frozenset({("corrupt_block", 2)}))
        assert run.client.complaints == [(2, 4)]
        arbiter = run.resolve()
        assert arbiter.report.as_dict()["client_admitted"] == [[2, 4]]
        assert run.contract.counters == Counters(server_faults=1)

    def test_invalid_query_complaint_lands_in_v(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=5,
            client_script=frozenset({("invalid_query", 1)}),
        )
        arbiter = run.resolve()
        assert arbiter.report.v == [1]
        assert run.contract.counters == Counters(client_faults=1)
        assert [1, 1] in arbiter.report.as_dict()["client_filtered"]

    def test_false_query_complaint_charges_server_once(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=6,
            server_script=frozenset({("false_query_complaint", 2)}),
        )
        arbiter = run.resolve()
        # the server pre-paid with one unneeded invocation; the client's
        # complaint about the dummy must not also charge a server fault
        assert run.contract.counters == Counters(server_unneeded_disputes=1)
        assert arbiter.report.attribution == {2: "server_unneeded_disputes"}

    def test_corrupt_block_charges_server_fault(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=8,
            server_script=frozenset({("corrupt_block", 2)}),
        )
        arbiter = run.resolve()
        assert run.contract.counters == Counters(server_faults=1)
        assert arbiter.report.as_dict()["client_admitted"] == [[2, 1]]

    def test_false_accusation_charges_unneeded_dispute(self):
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=9,
            client_script=frozenset({("false_accusation", 3)}),
        )
        run.resolve()
        assert run.contract.counters == Counters(client_unneeded_disputes=1)

    def test_invalid_opening_discards_complaints(self):
        config = make_config(z=2)
        run = HonestRun(
            config, seed=7,
            server_script=frozenset({("corrupt_block", 1)}),
        )
        arbiter = Arbiter(run.addr_r)
        goto(run.ledger, run.contract, "K5")
        bogus = Opening(run.client.opening_qp.statement, bytes(16))
        post = protocol.pack_complaints(bogus, [1, 1])
        arbiter.resolve_client(post, run.ledger, run.contract)
        assert run.contract.counters == Counters()
        listed = arbiter.report.as_dict()
        assert listed["client_admitted"] == []
        assert listed["client_filtered"] == [[1, 1]]

    def test_verdict_agreement_on_admitted_complaints(self):
        # the single re-check settles each admitted complaint the same way
        # the client's full verification did
        config = make_config(z=4)
        run = DisputedRun(
            config, seed=10,
            server_script=frozenset({("corrupt_block", 1), ("corrupt_block", 3), ("corrupt_block", 4)}),
        )
        arbiter = run.resolve()
        admitted = arbiter.report.as_dict()["client_admitted"]
        assert sorted(j for j, _ in admitted) == [1, 3, 4]
        for j, _ in admitted:
            assert not run.verdicts[j].accepted
            assert arbiter.report.attribution[j] == "server_faults"
        assert run.contract.counters == Counters(server_faults=3)

    def test_cycle_both_parties_disputed_needlessly(self):
        # the server lists cycle 3 although it answered it honestly, and the
        # client falsely accuses the same cycle: neither complaint identifies
        # a fault, so each party pays one unneeded dispute
        config = make_config(z=3)
        run = DisputedRun(
            config, seed=9,
            client_script=frozenset({("false_accusation", 3)}),
        )
        run.server.complaints.append(3)
        arbiter = run.resolve()
        both = Counters(client_unneeded_disputes=1, server_unneeded_disputes=1)
        assert arbiter.report.increments == both
        assert run.contract.counters == both
        # the attribution names only the counter charged last
        assert arbiter.report.attribution == {3: "client_unneeded_disputes"}
        # o=5, l=2: the arbiter earns both fees
        assert self.pay(run)["arbiter"] == 4

    @staticmethod
    def pay(run):
        goto(run.ledger, run.contract, "L")
        run.client.request_payout(run.ledger)
        return protocol.payout_arbiter_variant(
            run.ledger, run.contract, run.client.opening_cp
        )

    def test_second_server_pass_is_refused(self):
        script = frozenset({("invalid_query", 1)})
        config = make_config(z=3)
        reference = DisputedRun(config, seed=5, client_script=script)
        reference.resolve()
        run = HonestRun(config, seed=5, client_script=script)
        arbiter = Arbiter(run.addr_r)
        goto(run.ledger, run.contract, "K2")
        args = (run.server.complaint_post(), run.ledger, run.contract)
        assert arbiter.resolve_server(*args) == [1]
        with pytest.raises(DuplicateSlot):
            arbiter.resolve_server(*args)
        assert arbiter.report.v == [1]
        goto(run.ledger, run.contract, "K5")
        arbiter.resolve_client(run.client.complaint_post(), run.ledger, run.contract)
        goto(run.ledger, run.contract, "K6")
        arbiter.post_counters(run.ledger, run.contract)
        assert run.contract.counters == Counters(client_faults=1)
        assert self.pay(run) == self.pay(reference)

    def test_second_client_pass_is_refused(self):
        script = frozenset({("corrupt_block", 2)})
        config = make_config(z=3)
        reference = DisputedRun(config, seed=8, server_script=script)
        reference.resolve()
        run = HonestRun(config, seed=8, server_script=script)
        arbiter = Arbiter(run.addr_r)
        goto(run.ledger, run.contract, "K5")
        args = (run.client.complaint_post(), run.ledger, run.contract)
        arbiter.resolve_client(*args)
        with pytest.raises(DuplicateSlot):
            arbiter.resolve_client(*args)
        goto(run.ledger, run.contract, "K6")
        arbiter.post_counters(run.ledger, run.contract)
        assert run.contract.counters == Counters(server_faults=1)
        assert self.pay(run) == self.pay(reference)


class TestArbiterlessResolution:
    def drive(self, client_script=frozenset(), server_script=frozenset(), seed=21):
        config = make_config(z=3)
        run = HonestRun(config, seed=seed, client_script=client_script,
                        server_script=server_script, variant=ARBITERLESS)
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
            client_script=frozenset({("invalid_query", 1)})
        )
        assert report.v == [1]
        assert run.contract.counters == Counters(client_faults=1)
        assert [1, 1] in report.as_dict()["client_filtered"]

    def test_corrupt_proof_charges_server(self):
        run, report = self.drive(
            server_script=frozenset({("corrupt_block", 2)})
        )
        assert run.contract.counters == Counters(server_faults=1)
        assert report.as_dict()["client_admitted"] == [[2, 1]]

    def test_false_accusation_changes_nothing(self):
        run, report = self.drive(
            client_script=frozenset({("false_accusation", 3)})
        )
        assert run.contract.counters == Counters()
        assert report.as_dict()["client_admitted"] == [[3, 1]]

    def test_unneeded_server_complaint_changes_nothing(self):
        run, report = self.drive(
            server_script=frozenset({("false_query_complaint", 2)})
        )
        # valid query: no counter in this variant; the client's complaint
        # about the dummy still charges the server fault
        assert run.contract.counters == Counters(server_faults=1)
        assert report.as_dict()["server_admitted"] == [2]

    def test_payout_applies_fee_transfers(self):
        run, _ = self.drive(
            server_script=frozenset({("corrupt_block", 2)})
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
            server_script=frozenset({("corrupt_block", 2)})
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


def _cut_last_entry(wire, phi):
    return wire[: len(wire) - len(wire) // phi]


def _one_byte_long(wire, phi):
    return wire + b"\x00"


class TestMisShapedProof:
    """A proof vector that is not phi entries of the agreed length is the
    server's fault, even when the entry the client names opens and verifies."""

    PHI = 4

    @pytest.mark.parametrize("reshape", [_cut_last_entry, _one_byte_long])
    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_server_is_charged(self, variant, reshape, monkeypatch):
        from porpay.scenario import expected_payout

        encode = protocol.encode_proof_vector
        reshaped = []

        def encode_first_reshaped(*args):
            wire = encode(*args)
            if not reshaped:  # cycle 1's vector only
                reshaped.append(wire)
                wire = reshape(wire, self.PHI)
            return wire

        monkeypatch.setattr(protocol, "encode_proof_vector", encode_first_reshaped)
        config = make_config(z=2, phi=self.PHI)
        run = HonestRun(config, seed=3, variant=variant)
        ledger, contract = run.ledger, run.contract
        start = ledger.total_supply()
        assert len(contract.proofs[1]) != len(reshaped[0])
        assert run.client.complaints == [(1, 1)]
        assert run.verdicts[2].accepted
        if variant == ARBITER:
            DisputedRun.resolve(run)
        else:
            goto(ledger, contract, "K4")
            run.client.post_complaints(ledger)
            goto(ledger, contract, "K5")
            protocol.contract_resolve(ledger, contract)
        assert contract.counters == Counters(server_faults=1)

        goto(ledger, contract, "L")
        run.client.request_payout(ledger)
        payout = PAYOUT[variant](ledger, contract, run.client.opening_cp)
        assert payout == expected_payout(
            variant, contract.counters, z=2, o=5, l=2,
            client_deposit=contract.client_deposited,
            server_deposit=contract.server_deposited,
        )
        assert ledger.total_supply() == start
        assert contract.escrow == 0
        assert sum(payout.values()) == (
            contract.client_deposited + contract.server_deposited
        )


_HEAD_LEN = QpStatement._LAYOUT.size + 16  # a complaint post's qp opening


class TestHostileComplaintPosts:
    """Resolution must survive any bytes a party posts at K1/K4, or hands
    the arbiter.

    The session has a corrupt proof in cycle 2; each post is a function of
    the run, so a test can build a post from the parties' real openings."""

    def resolve_and_pay(self, server_post=None, client_post=None):
        config = make_config(z=3)
        run = HonestRun(config, seed=21, variant=ARBITERLESS,
                        server_script=frozenset({("corrupt_block", 2)}))
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
        return run.client.complaint_post()

    @pytest.mark.parametrize("post", [
        pytest.param(lambda run: b"", id="empty"),
        # posts in the retired JSON form, each shorter than the opening
        pytest.param(lambda run: b"not json", id="not-json"),
        pytest.param(lambda run: b"\xff\xfe", id="not-utf8"),
        pytest.param(lambda run: b"[1, 2]", id="not-an-object"),
        pytest.param(lambda run: b'{"complaints": 5}', id="no-opening"),
        pytest.param(
            lambda run: b'{"complaints": [1], "opening": {"statement": 1, "randomness": ""}}',
            id="opening-not-hex",
        ),
        pytest.param(lambda run: run.server.complaint_post()[:-1],
                     id="opening-less-a-byte"),
        pytest.param(
            lambda run: protocol.pack_complaints(run.server.opening_qp, [1]) + bytes(2),
            id="partial-item",
        ),
    ])
    def test_unparseable_server_post_is_filtered(self, post):
        run, report, payout = self.resolve_and_pay(
            server_post=post, client_post=self.client_complains
        )
        listed = report.as_dict()
        assert listed["server_admitted"] == listed["server_filtered"] == []
        assert listed["client_admitted"] == [[2, 1]]
        assert run.contract.counters == Counters(server_faults=1)
        # z=3, o=5, l=2: client 21-10+2, server 6+10-2
        assert payout == {"client": 13, "server": 14}

    def test_unparseable_client_post_is_filtered(self):
        run, report, payout = self.resolve_and_pay(client_post=lambda run: b"not json")
        listed = report.as_dict()
        assert listed["client_admitted"] == listed["client_filtered"] == []
        assert run.contract.counters == Counters()
        # the unproven cycle is paid like the others: client 21-15, server 6+15
        assert payout == {"client": 6, "server": 21}

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda post: post[:_HEAD_LEN - 1], id="opening-less-a-byte"),
        # a whole server item is half a client item
        pytest.param(lambda post: post + bytes(4), id="half-item"),
        pytest.param(lambda post: post[:-1], id="item-less-a-byte"),
    ])
    def test_cut_client_post_is_filtered(self, cut):
        run, report, payout = self.resolve_and_pay(
            client_post=lambda run: cut(run.client.complaint_post())
        )
        listed = report.as_dict()
        assert listed["client_admitted"] == listed["client_filtered"] == []
        assert run.contract.counters == Counters()
        assert payout == {"client": 6, "server": 21}

    def test_out_of_range_and_duplicate_items_are_filtered(self):
        # z = 3 and phi = 4; the last field value a 4-byte item can carry
        top = 2**32 - 1
        server_items = [0, 4, top, 1, 1]
        client_items = [(0, 1), (4, 1), (top, 1), (2, 0), (2, 5), (2, top),
                        (2, 1), (2, 1)]
        run, report, payout = self.resolve_and_pay(
            server_post=lambda run: protocol.pack_complaints(
                run.server.opening_qp, server_items
            ),
            client_post=lambda run: protocol.pack_complaints(
                run.client.opening_qp, [n for c in client_items for n in c]
            ),
        )
        listed = report.as_dict()
        assert listed["server_admitted"] == [1]
        assert listed["server_filtered"] == [0, 4, top, 1]
        assert listed["client_admitted"] == [[2, 1]]
        assert listed["client_filtered"] == [list(c) for c in client_items[:-2] + [(2, 1)]]
        assert run.contract.counters == Counters(server_faults=1)
        assert payout == {"client": 13, "server": 14}

    @pytest.mark.parametrize("wrap", [
        lambda post: post.decode("latin-1"), lambda post: None, bytearray, memoryview,
    ], ids=["str", "none", "bytearray", "memoryview"])
    def test_post_not_bytes_is_filtered_by_arbiter(self, wrap):
        # the arbiter is handed each party's post off the ledger, which
        # refuses a payload that is not bytes; the arbiter refuses it too
        run = HonestRun(make_config(z=3), seed=21, server_script=frozenset(
            {("corrupt_block", 2), ("false_query_complaint", 1)}))
        assert run.server.complaints == [1] and (2, 1) in run.client.complaints
        ledger, contract = run.ledger, run.contract
        arbiter = Arbiter(run.addr_r)
        goto(ledger, contract, "K2")
        v = arbiter.resolve_server(wrap(run.server.complaint_post()), ledger, contract)
        assert v == []
        goto(ledger, contract, "K5")
        arbiter.resolve_client(wrap(run.client.complaint_post()), ledger, contract)
        goto(ledger, contract, "K6")
        arbiter.post_counters(ledger, contract)
        report = arbiter.report
        listed = report.as_dict()
        assert listed["server_admitted"] == listed["client_admitted"] == []
        assert report.increments == Counters() == contract.counters

    @pytest.mark.parametrize("width, fields", [
        (1, [1, 0, 2**32 - 1, 1]),
        (2, [3, 1, 2**32 - 1, 0, 3, 1]),
    ], ids=["server", "client"])
    def test_pack_unpack_round_trip(self, width, fields):
        opening = Opening(bytes(range(QpStatement._LAYOUT.size)), bytes(range(16)))
        post = protocol.pack_complaints(opening, fields)
        assert len(post) == _HEAD_LEN + 4 * len(fields)
        assert protocol.unpack_complaints(post, width) == (fields, opening)
        assert protocol.unpack_complaints(post[:_HEAD_LEN], width) == ([], opening)
        run = HonestRun(make_config(z=3), seed=21,
                        server_script=frozenset({("corrupt_block", 2)}))
        assert protocol.unpack_complaints(run.client.complaint_post(), 2) == (
            [2, 1], run.client.opening_qp
        )

    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    @pytest.mark.parametrize("hostile", ["server", "client"])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_any_post_resolves_within_bounds(self, hostile, variant, data):
        # one party posts (or hands the arbiter) arbitrary bytes, the other
        # is honest: resolution raises nothing, each item it reads is either
        # admitted or filtered, coins are conserved, and the honest party is
        # never charged
        # at most one cycle per per-cycle kind of the hostile party, drawn
        # in catalogue order
        cycles = st.frozensets(st.integers(1, 3), max_size=1)
        kinds = protocol.SERVER_KINDS if hostile == "server" else protocol.CLIENT_KINDS
        script = frozenset(
            (kind, j) for kind, per_cycle in kinds.items() if per_cycle
            for j in data.draw(cycles)
        )
        config = make_config(z=3)
        run = HonestRun(config, seed=data.draw(st.integers(0, 2**16)), variant=variant,
                        **{f"{hostile}_script": script})
        ledger, contract = run.ledger, run.contract
        start = ledger.total_supply()

        # the post: fewer bytes than an opening, or the party's own opening
        # or any 104 bytes, then items whose fields are mostly in the cycle
        # and entry ranges (z = 3, phi = 4), then maybe a cut item; ``read``
        # is what resolution must list: a cut of 4 bytes is one more server
        # item, (0,), but half a client item, and any other cut leaves none
        width = 1 if hostile == "server" else 2
        form = data.draw(st.sampled_from(["own", "own", "any", "short"]))
        if form == "short":
            post, read = data.draw(st.binary(max_size=_HEAD_LEN - 1)), []
        else:
            head = getattr(run, hostile).complaint_post()[:_HEAD_LEN]
            if form == "any":
                head = data.draw(st.binary(min_size=_HEAD_LEN, max_size=_HEAD_LEN))
            field = st.one_of(st.integers(1, 3), st.integers(0, 5),
                              st.integers(0, 2**32 - 1))
            items = data.draw(
                st.lists(st.tuples(*[field] * width), min_size=1, max_size=8)
            )
            fields = [n for item in items for n in item]
            cut = data.draw(st.sampled_from([0, 0, 0, 1, 3, 4]))
            post = head + struct.pack(f">{len(fields)}I", *fields) + bytes(cut)
            read = []
            if cut % (4 * width) == 0:
                read = items + [(0,) * width] * (cut // (4 * width))
        if hostile == "server":
            read = [j for (j,) in read]
        posts = {"server": run.server.complaint_post(),
                 "client": run.client.complaint_post()}
        posts[hostile] = post

        if variant == ARBITER:
            arbiter = Arbiter(run.addr_r)
            goto(ledger, contract, "K2")
            arbiter.resolve_server(posts["server"], ledger, contract)
            goto(ledger, contract, "K5")
            arbiter.resolve_client(posts["client"], ledger, contract)
            goto(ledger, contract, "K6")
            arbiter.post_counters(ledger, contract)
            report = arbiter.report
        else:
            for label, name in (("K1", "server"), ("K4", "client")):
                party = getattr(run, name)
                goto(ledger, contract, label)
                ledger.post(contract, protocol.LedgerMessage(
                    party.addr, party.COMPLAINTS, posts[name]))
            goto(ledger, contract, "K5")
            report = protocol.contract_resolve(ledger, contract)

        # every item read, admitted or filtered, as the tuples it was read as
        listed = {"server": [], "client": []}
        for j, g, _ in report.rulings:
            listed["server" if g is None else "client"].append(j if g is None else (j, g))
        honest = "client" if hostile == "server" else "server"
        assert sorted(listed[honest]) == sorted(getattr(run, honest).complaints)
        assert sorted(listed[hostile]) == sorted(read)

        c, z = contract.counters, config.z
        assert min(c.as_dict().values()) >= 0
        assert c.client_faults + c.client_unneeded_disputes <= z
        assert c.server_faults + c.server_unneeded_disputes <= z

        goto(ledger, contract, "L")
        run.client.request_payout(ledger)
        payout = PAYOUT[variant](ledger, contract, run.client.opening_cp)
        assert ledger.total_supply() == start
        assert contract.escrow == 0
        assert sum(payout.values()) == (
            contract.client_deposited + contract.server_deposited
        )
        if hostile == "server":
            assert c.client_faults == c.client_unneeded_disputes == 0
        else:
            assert c.server_faults == c.server_unneeded_disputes == 0
            # o per cycle; without an arbiter the client's l charges go to
            # the server
            o, l = config.price_choice.o, config.price_choice.l
            fees = l * c.client_faults if variant == ARBITERLESS else 0
            assert payout["server"] - contract.server_deposited == o * z + fees


class TestPayoutGuards:
    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_short_deposit_takes_the_refund_path(self, variant):
        # the server answers a = 1 but deposits one coin short: T2 returns
        # each deposit, and the L payout is refused
        ledger, client, server, handoff, _, _ = build_session(
            make_config(z=2), variant=variant,
            server_script=frozenset({("short_deposit", None)}))
        contract = handoff.contract
        genesis_supply = ledger.total_supply()
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 1
        assert contract.server_deposited == contract.params.server_deposit_required - 1
        assert protocol.refund_applies(contract)
        goto(ledger, contract, "T2")
        client.request_payout(ledger)
        payout = PAYOUT[variant](ledger, contract, client.opening_cp)
        assert payout == {"client": contract.client_deposited,
                          "server": contract.server_deposited}
        assert ledger.total_supply() == genesis_supply

    def test_refund_path_raises_on_normal_payout(self):
        config = make_config(z=2)
        ledger, client, server, handoff, _, _ = build_session(
            config, client_script=frozenset({("ill_formed_metadata", None)})
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

    @pytest.mark.parametrize("variant, name", [
        (ARBITER, "payout_arbiter_variant"),
        (ARBITERLESS, "payout_arbiterless_variant"),
    ])
    def test_payout_needs_pay_request(self, variant, name):
        payout = getattr(protocol, name)
        run = HonestRun(make_config(z=2), variant=variant)
        goto(run.ledger, run.contract, "L")
        with pytest.raises(protocol.PayNotRequested):
            payout(run.ledger, run.contract, run.client.opening_cp)
        assert run.contract.escrow > 0 and not run.contract.paid_out
        run.server.request_payout(run.ledger)
        payout(run.ledger, run.contract, run.client.opening_cp)
        assert run.contract.escrow == 0

    @staticmethod
    def assert_refused(run_payout, ledger, contract, error):
        """``run_payout`` raises ``error`` and nothing moves."""
        before = ledger.balances(), ledger.total_supply(), ledger.export_trace()
        escrow = contract.escrow
        with pytest.raises(error):
            run_payout()
        assert (ledger.balances(), ledger.total_supply(), ledger.export_trace()) == before
        assert contract.escrow == escrow and not contract.paid_out

    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_agreed_session_has_no_refund(self, variant):
        ledger, client, server, handoff, _, _ = build_session(
            make_config(z=2), variant=variant
        )
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 1
        goto(ledger, contract, "T2")
        client.request_payout(ledger)
        self.assert_refused(
            lambda: PAYOUT[variant](ledger, contract, client.opening_cp),
            ledger, contract, ValueError,
        )

    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_no_payout_before_l(self, variant):
        run = HonestRun(make_config(z=2), variant=variant)
        goto(run.ledger, run.contract, "K6")
        self.assert_refused(
            lambda: PAYOUT[variant](run.ledger, run.contract, run.client.opening_cp),
            run.ledger, run.contract, OutOfWindow,
        )

    @staticmethod
    def settle_corrupt_cycle(variant):
        """A z = 2 session whose server corrupts cycle 1, resolved the
        variant's way, at L with the client's pay request posted."""
        run = HonestRun(make_config(z=2), variant=variant,
                        server_script=frozenset({("corrupt_block", 1)}))
        ledger, contract = run.ledger, run.contract
        if variant == ARBITER:
            arbiter = Arbiter(run.addr_r)
            goto(ledger, contract, "K2")
            arbiter.resolve_server(run.server.complaint_post(), ledger, contract)
            goto(ledger, contract, "K5")
            arbiter.resolve_client(run.client.complaint_post(), ledger, contract)
            goto(ledger, contract, "K6")
            arbiter.post_counters(ledger, contract)
        else:
            goto(ledger, contract, "K4")
            run.client.post_complaints(ledger)
            goto(ledger, contract, "K5")
            protocol.contract_resolve(ledger, contract)
        goto(ledger, contract, "L")
        run.client.request_payout(ledger)
        return run

    def test_one_payout_under_both_names(self):
        assert protocol.payout_arbiter_variant is protocol.payout
        assert protocol.payout_arbiterless_variant is protocol.payout

    @pytest.mark.parametrize("name", PAYOUT)
    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_either_name_pays_by_the_contract_variant(self, variant, name):
        # the contract states the variant; the name called does not
        run = self.settle_corrupt_cycle(variant)
        assert run.contract.counters == Counters(server_faults=1)
        # deposits 14 and 4; the client pays o = 5 for the one honest cycle,
        # and the server's l = 2 goes to the arbiter, or without one to the
        # client
        want = {
            ARBITER: {"client": 9, "server": 7, "arbiter": 2},
            ARBITERLESS: {"client": 11, "server": 7},
        }[variant]
        assert PAYOUT[name](run.ledger, run.contract, run.client.opening_cp) == want

    @pytest.mark.parametrize("name", PAYOUT)
    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_either_name_refunds_at_t2(self, variant, name):
        ledger, client, server, handoff, _, _ = build_session(
            make_config(z=2), variant=variant,
            client_script=frozenset({("ill_formed_metadata", None)}),
        )
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        goto(ledger, contract, "T2")
        client.request_payout(ledger)
        assert PAYOUT[name](ledger, contract, client.opening_cp) == {
            "client": 14, "server": 0,
        }

    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    @pytest.mark.parametrize("opening", [
        Opening("text", bytes(16)), Opening(b"x", None),
    ], ids=["str-statement", "none-randomness"])
    def test_opening_not_bytes_rejected(self, variant, opening):
        run = HonestRun(make_config(z=2), variant=variant)
        goto(run.ledger, run.contract, "L")
        run.client.request_payout(run.ledger)
        self.assert_refused(
            lambda: PAYOUT[variant](run.ledger, run.contract, opening),
            run.ledger, run.contract, protocol.BadOpening,
        )

    @pytest.mark.parametrize("variant", [ARBITER, ARBITERLESS])
    def test_missing_opening_rejected(self, variant):
        run = HonestRun(make_config(z=2), variant=variant)
        goto(run.ledger, run.contract, "L")
        run.client.request_payout(run.ledger)
        self.assert_refused(
            lambda: PAYOUT[variant](run.ledger, run.contract, None),
            run.ledger, run.contract, protocol.BadOpening,
        )

    def test_refund_needs_pay_request(self):
        config = make_config(z=2)
        ledger, client, server, handoff, _, _ = build_session(
            config, client_script=frozenset({("ill_formed_metadata", None)})
        )
        contract = handoff.contract
        goto(ledger, contract, "T1")
        assert server.init(handoff, ledger) == 0
        goto(ledger, contract, "T2")
        with pytest.raises(protocol.PayNotRequested):
            protocol.payout_arbiter_variant(ledger, contract, client.opening_cp)
        client.request_payout(ledger)
        assert protocol.payout_arbiter_variant(ledger, contract, client.opening_cp) == {
            "client": 14, "server": 0,
        }


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
            a = expected_payout(
                ARBITER, counters, z=z, o=o, l=l,
                client_deposit=dep_c, server_deposit=dep_s,
            )
            f = expected_payout(
                ARBITERLESS, counters, z=z, o=o, l=l,
                client_deposit=dep_c, server_deposit=dep_s,
            )
            assert f.keys() == {"client", "server"}
            a_client, a_server, a_arb = a["client"], a["server"], a["arbiter"]
            f_client, f_server = f["client"], f["server"]
            assert f_client - a_client == l * y_s
            assert f_server - a_server == l * y_c
            assert a_arb == (f_client - a_client) + (f_server - a_server)
            assert a_client + a_server + a_arb == f_client + f_server
