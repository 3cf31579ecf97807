"""Accounts, schedule windows, escrow accounting, and determinism."""

import copy
import json
import random

import pytest

from porpay.hashing import count_hash_calls, digest
from porpay.ledger import (
    Address,
    AlreadyPaid,
    ContractParams,
    CounterOutOfBounds,
    Counters,
    DuplicateSlot,
    InsufficientBalance,
    Ledger,
    LedgerMessage,
    MalformedPayload,
    MsgKind,
    NonMonotonicTime,
    OutOfWindow,
    RcContract,
    Schedule,
    Unbalanced,
    UnknownAddress,
    UnknownContract,
    WrongSender,
)

# every refusal a post may raise; ValueError covers InsufficientBalance,
# MalformedPayload and CounterOutOfBounds
REFUSALS = (ValueError, OutOfWindow, WrongSender, DuplicateSlot)


def deposit(ledger, sender, contract, amount):
    """Escrow ``amount`` from ``sender``: a DEPOSIT post of it in 8 bytes."""
    msg = LedgerMessage(sender, MsgKind.DEPOSIT, amount.to_bytes(8, "big"))
    ledger.post(contract, msg)


def make_env(z=2, arbiterless=False, client_balance=100, server_balance=50):
    ledger = Ledger()
    client = ledger.create_account("client", client_balance)
    server = ledger.create_account("server", server_balance)
    arbiter = None if arbiterless else ledger.create_account("arbiter", 0)
    params = ContractParams(
        z=z,
        client_deposit_required=21,
        server_deposit_required=6,
        addr_client=client,
        addr_server=server,
        addr_arbiter=arbiter,
    )
    contract = ledger.deploy_contract(client, params)
    return ledger, contract, client, server, arbiter


def goto(ledger, contract, label):
    ledger.advance_time(Schedule(contract.params.z).point(label))


class TestSchedule:
    def test_standard_is_valid(self):
        sched = Schedule(3)
        assert sched.point("T0").ordinal < sched.point("G1.1").ordinal
        assert sched.point("G3.2").ordinal < sched.point("J").ordinal < sched.point("K1").ordinal
        assert sched.point("K6").ordinal < sched.point("L").ordinal

    def test_no_cycle_rejected(self):
        with pytest.raises(ValueError):
            Schedule(0)
        with pytest.raises(ValueError):
            make_env(z=0)


class TestDeployAndDeposit:
    def test_fresh_contract_counters_zero(self):
        _, contract, *_ = make_env()
        assert contract.counters == Counters()

    def test_two_deployments_independent(self):
        ledger, contract, client, server, arbiter = make_env()
        second = ledger.deploy_contract(client, contract.params)
        assert second.handle != contract.handle
        goto(ledger, contract, "T0")
        deposit(ledger, client, contract, 21)
        assert contract.escrow == 21
        assert second.escrow == 0

    def test_deposit_moves_balance_to_escrow(self):
        ledger, contract, client, *_ = make_env()
        goto(ledger, contract, "T0")
        deposit(ledger, client, contract, 21)
        assert ledger.balance(client) == 79
        assert contract.escrow == 21
        assert contract.client_deposited == 21

    def test_insufficient_balance_leaves_state_unchanged(self):
        ledger, contract, client, *_ = make_env(client_balance=10)
        goto(ledger, contract, "T0")
        with pytest.raises(InsufficientBalance):
            deposit(ledger, client, contract, 21)
        assert ledger.balance(client) == 10
        assert contract.escrow == 0

    def test_deposit_outside_window(self):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "T0")
        with pytest.raises(OutOfWindow):
            deposit(ledger, server, contract, 6)  # server deposits at T1
        goto(ledger, contract, "T1")
        deposit(ledger, server, contract, 6)
        assert contract.server_deposited == 6

    @pytest.mark.parametrize("balance", [1.5, -1, True, "5"],
                             ids=["float", "negative", "bool", "str"])
    def test_genesis_balance_must_be_coins(self, balance):
        ledger = Ledger()
        with pytest.raises(ValueError):
            ledger.create_account("client", balance)
        assert ledger.balances() == {}
        assert ledger.total_supply() == 0

    def test_no_deposit_after_payout(self):
        # coins deposited into a paid-out contract could never leave it
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "T0")
        deposit(ledger, client, contract, 21)
        ledger.execute_payout(contract, [(client, 21)])
        goto(ledger, contract, "T1")
        balances, trace = ledger.balances(), ledger.export_trace()
        with pytest.raises(AlreadyPaid):
            deposit(ledger, server, contract, 6)
        assert ledger.balances() == balances
        assert ledger.export_trace() == trace
        assert (contract.server_deposited, contract.escrow) == (0, 0)

    def test_conservation_across_deposits(self):
        ledger, contract, client, server, _ = make_env()
        start = ledger.total_supply()
        goto(ledger, contract, "T0")
        deposit(ledger, client, contract, 21)
        goto(ledger, contract, "T1")
        deposit(ledger, server, contract, 6)
        assert ledger.total_supply() == start


class TestAddresses:
    """A handle is the send capability: only the object the ledger issued
    acts as its account."""

    @pytest.mark.parametrize("sender", [Address("server"), "server"],
                             ids=["forged", "str"])
    def test_post_from_a_handle_not_issued_refused(self, sender):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "T1")
        trace = ledger.export_trace()
        with pytest.raises(UnknownAddress):
            ledger.post(contract, LedgerMessage(sender, MsgKind.SERVER_RESPONSE, b"\x01"))
        assert contract.a_flag is None
        assert ledger.export_trace() == trace

    @pytest.mark.parametrize("sender", [Address("server"), "server"],
                             ids=["forged", "str"])
    def test_deposit_from_a_handle_not_issued_refused(self, sender):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "T1")
        balances, trace = ledger.balances(), ledger.export_trace()
        with pytest.raises(UnknownAddress):
            deposit(ledger, sender, contract, 1)
        assert ledger.balances() == balances
        assert ledger.export_trace() == trace
        assert contract.server_deposited == 0
        assert ledger.balance(server) == 50

    def test_repeated_name_refused(self):
        ledger, contract, client, *_ = make_env()
        balances = ledger.balances()
        with pytest.raises(ValueError, match="already exists"):
            ledger.create_account("client", 7)
        assert ledger.balances() == balances
        assert ledger.has_address(client)

    def test_copy_is_the_same_handle(self):
        ledger, contract, client, *_ = make_env()
        assert copy.copy(client) is client
        assert copy.deepcopy(client) is client
        assert copy.deepcopy(contract.params) == contract.params
        assert client != Address("client")
        assert not ledger.has_address(Address("client"))


class TestCounters:
    def test_fieldwise_sum_and_packing(self):
        total = Counters(1, 0, 2, 0) + Counters(0, 3, 0, 1)
        assert total == Counters(1, 3, 2, 1)
        assert Counters.unpack(total.pack()) == total
        assert total.as_dict() == {
            "client_faults": 1,
            "server_faults": 3,
            "client_unneeded_disputes": 2,
            "server_unneeded_disputes": 1,
        }


class TestUndeployedContract:
    """Only a contract the ledger deployed can hold, take or pay coins."""

    @staticmethod
    def forgeries(contract):
        twin = RcContract(contract.handle, contract.params)  # same handle
        twin.client_deposited = 1000  # a payout from it would mint coins
        _, elsewhere, *_ = make_env()  # deployed by another ledger
        return twin, elsewhere, RcContract(5, contract.params)

    @pytest.mark.parametrize("label, operation", [
        ("T1", lambda ledger, c, client, server: deposit(ledger, server, c, 6)),
        ("G1.1", lambda ledger, c, client, server: ledger.post(
            c, LedgerMessage(client, MsgKind.QUERY, b"q", slot=1))),
        ("L", lambda ledger, c, client, server: ledger.execute_payout(
            c, [(client, 500), (server, 500)])),
    ], ids=["deposit", "post", "payout"])
    def test_refused_and_nothing_moves(self, label, operation):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, label)
        supply, balances = ledger.total_supply(), ledger.balances()
        for forged in self.forgeries(contract):
            with pytest.raises(UnknownContract):
                operation(ledger, forged, client, server)
        assert ledger.total_supply() == supply
        assert ledger.balances() == balances
        assert [e["kind"] for e in ledger.export_trace()] == ["deploy"]


class TestRefusedOperationChangesNothing:
    @pytest.mark.parametrize("label, paid, operation, error", [
        ("T0", False, lambda ledger, c, client, server, arbiter: ledger.post(
            c, LedgerMessage(client, MsgKind.DEPOSIT, bytes(7))), MalformedPayload),
        # the amount 2**64 needs a ninth byte
        ("T0", False, lambda ledger, c, client, server, arbiter: ledger.post(
            c, LedgerMessage(client, MsgKind.DEPOSIT, (2**64).to_bytes(9, "big"))),
         MalformedPayload),
        ("T0", False, lambda ledger, c, client, server, arbiter: deposit(
            ledger, client, c, 80), InsufficientBalance),  # it holds 79
        ("T0", False, lambda ledger, c, client, server, arbiter: deposit(
            ledger, arbiter, c, 1), WrongSender),
        ("T1", False, lambda ledger, c, client, server, arbiter: deposit(
            ledger, client, c, 21), OutOfWindow),
        ("T1", True, lambda ledger, c, client, server, arbiter: deposit(
            ledger, server, c, 6), AlreadyPaid),
        ("G1.1", False, lambda ledger, c, client, server, arbiter: ledger.post(
            c, LedgerMessage(client, MsgKind.QUERY, "q", slot=1)), MalformedPayload),
        ("G1.2", False, lambda ledger, c, client, server, arbiter: ledger.post(
            c, LedgerMessage(server, MsgKind.PROOF, bytearray(b"p"), slot=1)),
         MalformedPayload),
        ("T2", False, lambda ledger, c, client, server, arbiter: ledger.post(
            c, LedgerMessage(client, MsgKind.PAY, "pay")), MalformedPayload),
        ("G1.1", False, lambda ledger, c, client, server, arbiter: ledger.post(
            c, LedgerMessage(client, MsgKind.QUERY, b"q", slot="1")), OutOfWindow),
    ], ids=["deposit-7-bytes", "deposit-2**64", "deposit-above-balance",
            "deposit-from-arbiter", "client-deposit-at-T1", "deposit-after-payout",
            "str-payload", "bytearray-payload", "str-pay", "str-slot"])
    def test_no_state_changes(self, label, paid, operation, error):
        # ``paid``: the client's deposit is paid out at T0, before the operation
        ledger, contract, client, server, arbiter = make_env()
        goto(ledger, contract, "T0")
        deposit(ledger, client, contract, 21)
        if paid:
            ledger.execute_payout(contract, [(client, 21)])
        if label != "T0":
            goto(ledger, contract, label)
        balances, trace = ledger.balances(), ledger.export_trace()
        fields = copy.deepcopy(vars(contract))
        with pytest.raises(error):
            operation(ledger, contract, client, server, arbiter)
        assert ledger.balances() == balances
        assert ledger.export_trace() == trace
        assert vars(contract) == fields


class TestSlotOnlyOnCyclePosts:
    """Only a QUERY or PROOF names a cycle. A post of any other kind that
    names a slot is refused before anything is stored or logged, so no slot
    the contract ignores can reach the trace, JSON or not."""

    # (kind, arbiterless, time, sender role, payload, slot), one per kind;
    # the same post without its slot is accepted
    CASES = {
        "deposit": (MsgKind.DEPOSIT, False, "T0", "client", (21).to_bytes(8, "big"), 7),
        "server-response": (MsgKind.SERVER_RESPONSE, False, "T1", "server", b"\x01", 0),
        "server-complaints": (MsgKind.SERVER_COMPLAINTS, True, "K1", "server", b"{}", 1),
        "client-complaints": (MsgKind.CLIENT_COMPLAINTS, True, "K4", "client", b"{}", 1.0),
        "counters": (MsgKind.COUNTERS, False, "K6", "arbiter", Counters().pack(), object()),
        "pay": (MsgKind.PAY, False, "T2", "client", b"pay", "x"),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_refused_with_a_slot_accepted_without(self, case, tmp_path):
        kind, arbiterless, label, role, payload, slot = case
        ledger, contract, client, server, arbiter = make_env(arbiterless=arbiterless)
        sender = {"client": client, "server": server, "arbiter": arbiter}[role]
        goto(ledger, contract, label)
        balances, trace = ledger.balances(), ledger.export_trace()
        fields = copy.deepcopy(vars(contract))
        with pytest.raises(MalformedPayload, match="takes no slot"):
            ledger.post(contract, LedgerMessage(sender, kind, payload, slot=slot))
        assert ledger.balances() == balances
        assert ledger.export_trace() == trace
        assert vars(contract) == fields
        ledger.post(contract, LedgerMessage(sender, kind, payload))
        assert ledger.export_trace()[-1]["kind"] == kind.value
        assert "slot" not in ledger.export_trace()[-1]
        ledger.write_trace_jsonl(tmp_path / "trace.jsonl")


class TestPost:
    def test_query_stored_under_slot(self):
        ledger, contract, client, *_ = make_env()
        goto(ledger, contract, "G2.1")
        ledger.post(contract, LedgerMessage(client, MsgKind.QUERY, b"q2", slot=2))
        assert contract.queries == {2: b"q2"}

    def test_wrong_sender_rejected(self):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "G2.1")
        with pytest.raises(WrongSender):
            ledger.post(contract, LedgerMessage(server, MsgKind.QUERY, b"q", slot=2))

    def test_duplicate_slot_rejected(self):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "G2.2")
        ledger.post(contract, LedgerMessage(server, MsgKind.PROOF, b"p", slot=2))
        with pytest.raises(DuplicateSlot):
            ledger.post(contract, LedgerMessage(server, MsgKind.PROOF, b"pp", slot=2))

    def test_wrong_window_rejected(self):
        ledger, contract, client, *_ = make_env()
        goto(ledger, contract, "G2.1")
        with pytest.raises(OutOfWindow):
            ledger.post(contract, LedgerMessage(client, MsgKind.QUERY, b"q", slot=1))

    def test_skipped_window_forfeits_slot(self):
        ledger, contract, client, *_ = make_env()
        goto(ledger, contract, "G2.2")  # jumped past G1.1, G1.2, G2.1
        with pytest.raises(OutOfWindow):
            ledger.post(contract, LedgerMessage(client, MsgKind.QUERY, b"q", slot=1))
        assert contract.queries == {}

    def test_stored_payload_immutable(self):
        ledger, contract, client, *_ = make_env()
        goto(ledger, contract, "G1.1")
        payload = b"the query bytes"
        ledger.post(contract, LedgerMessage(client, MsgKind.QUERY, payload, slot=1))
        assert contract.queries[1] == b"the query bytes"
        assert contract.queries[1] == payload

    def test_counters_message_only_from_arbiter(self):
        ledger, contract, client, server, arbiter = make_env()
        goto(ledger, contract, "K6")
        with pytest.raises(WrongSender):
            ledger.post(
                contract,
                LedgerMessage(server, MsgKind.COUNTERS, Counters(1, 0, 0, 0).pack()),
            )
        ledger.post(
            contract,
            LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(1, 0, 0, 0).pack()),
        )
        assert contract.counters.client_faults == 1

    def test_second_counters_post_rejected(self):
        ledger, contract, client, server, arbiter = make_env(z=2)
        goto(ledger, contract, "K6")
        ledger.post(
            contract,
            LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(0, 1, 0, 0).pack()),
        )
        with pytest.raises(DuplicateSlot):
            ledger.post(
                contract,
                LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(0, 1, 0, 0).pack()),
            )
        assert contract.counters == Counters(0, 1, 0, 0)

    def test_counter_bounds_enforced(self):
        ledger, contract, client, server, arbiter = make_env(z=2)
        goto(ledger, contract, "K6")
        with pytest.raises(CounterOutOfBounds):
            ledger.post(
                contract,
                LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(2, 0, 1, 0).pack()),
            )

    def test_rejected_counters_post_changes_nothing(self):
        ledger, contract, client, server, arbiter = make_env(z=2)
        goto(ledger, contract, "K6")
        with pytest.raises(CounterOutOfBounds):
            ledger.post(
                contract,
                LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(2, 0, 1, 0).pack()),
            )
        assert contract.counters == Counters()
        assert not contract.resolved
        ledger.post(
            contract,
            LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(1, 0, 1, 0).pack()),
        )
        assert contract.counters == Counters(1, 0, 1, 0)

    @pytest.mark.parametrize("payload", [Counters(1, 0, 0, 0).pack(), bytes(31)],
                             ids=["packed", "wrong_length"])
    def test_counters_resolve_once(self, payload):
        # a second counters post is refused whatever its length, with nothing
        # stored: the counters, the trace and the escrow stay as they were
        ledger, contract, client, server, arbiter = make_env(z=2)
        goto(ledger, contract, "T0")
        deposit(ledger, client, contract, 21)
        goto(ledger, contract, "K6")
        ledger.post(
            contract,
            LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(0, 1, 0, 0).pack()),
        )
        trace, escrow = ledger.export_trace(), contract.escrow
        with pytest.raises((DuplicateSlot, MalformedPayload)):
            ledger.post(contract, LedgerMessage(arbiter, MsgKind.COUNTERS, payload))
        assert contract.counters == Counters(0, 1, 0, 0)
        assert ledger.export_trace() == trace
        assert contract.escrow == escrow == 21

    @pytest.mark.parametrize("label", ["K5", "L"])
    def test_counters_only_at_k6(self, label):
        # the contract holds the K6 rule: an arbiter post on either side of
        # it resolves nothing and logs nothing
        ledger, contract, client, server, arbiter = make_env(z=2)
        goto(ledger, contract, label)
        trace = ledger.export_trace()
        with pytest.raises(OutOfWindow):
            ledger.post(
                contract,
                LedgerMessage(arbiter, MsgKind.COUNTERS, Counters(0, 1, 0, 0).pack()),
            )
        assert contract.counters == Counters()
        assert not contract.resolved
        assert ledger.export_trace() == trace

    @pytest.mark.parametrize("payload", [b"", b"short", bytes(31), bytes(33)])
    def test_malformed_counters_payload_rejected(self, payload):
        ledger, contract, client, server, arbiter = make_env(z=2)
        goto(ledger, contract, "K6")
        with pytest.raises(MalformedPayload):
            ledger.post(contract, LedgerMessage(arbiter, MsgKind.COUNTERS, payload))
        assert contract.counters == Counters()
        assert not contract.resolved
        assert all(e["kind"] != "counters" for e in ledger.export_trace())

    @pytest.mark.parametrize("payload", [b"", b"\x02", b"\x01\x00"])
    def test_malformed_server_response_rejected(self, payload):
        ledger, contract, client, server, arbiter = make_env()
        goto(ledger, contract, "T1")
        with pytest.raises(MalformedPayload):
            ledger.post(contract, LedgerMessage(server, MsgKind.SERVER_RESPONSE, payload))
        assert contract.a_flag is None
        assert all(e["kind"] != "server_response" for e in ledger.export_trace())

    def test_complaint_posts_only_in_arbiterless_variant(self):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "K1")
        with pytest.raises(WrongSender):
            ledger.post(
                contract, LedgerMessage(server, MsgKind.SERVER_COMPLAINTS, b"{}")
            )


class TestTime:
    def test_forward_progress(self):
        ledger, contract, *_ = make_env()
        goto(ledger, contract, "T0")
        goto(ledger, contract, "T1")
        goto(ledger, contract, "T2")
        assert ledger.time.label == "T2"

    def test_backwards_rejected(self):
        ledger, contract, *_ = make_env()
        goto(ledger, contract, "T2")
        with pytest.raises(NonMonotonicTime):
            goto(ledger, contract, "T1")

    def test_same_point_rejected(self):
        ledger, contract, *_ = make_env()
        goto(ledger, contract, "T1")
        with pytest.raises(NonMonotonicTime):
            goto(ledger, contract, "T1")


class TestPayout:
    def fund(self, ledger, contract, client, server):
        goto(ledger, contract, "T0")
        deposit(ledger, client, contract, 21)
        goto(ledger, contract, "T1")
        deposit(ledger, server, contract, 6)

    def test_distribution_empties_escrow(self):
        ledger, contract, client, server, arbiter = make_env()
        self.fund(ledger, contract, client, server)
        ledger.execute_payout(contract, [(client, 6), (server, 21), (arbiter, 0)])
        assert contract.escrow == 0
        assert ledger.balance(client) == 85
        assert ledger.balance(server) == 65

    def test_unbalanced_rejected(self):
        ledger, contract, client, server, arbiter = make_env()
        self.fund(ledger, contract, client, server)
        with pytest.raises(Unbalanced):
            ledger.execute_payout(contract, [(client, 6), (server, 20)])

    def test_second_payout_rejected(self):
        ledger, contract, client, server, arbiter = make_env()
        self.fund(ledger, contract, client, server)
        ledger.execute_payout(contract, [(client, 27)])
        with pytest.raises(AlreadyPaid):
            ledger.execute_payout(contract, [(client, 0)])

    def test_negative_amount_rejected(self):
        ledger, contract, client, server, arbiter = make_env()
        self.fund(ledger, contract, client, server)
        with pytest.raises(Unbalanced):
            ledger.execute_payout(contract, [(client, -1), (server, 28)])

    @pytest.mark.parametrize("dist", [
        lambda client, server: [(client, 13.5), (server, 13.5)],
        lambda client, server: [(client, 27.0)],
        lambda client, server: [(client, True), (server, 26)],
    ], ids=["halves", "float", "bool"])
    def test_non_int_amount_rejected(self, dist):
        # every leg is a non-negative int; a float total such as 27.0 == 27
        # would otherwise pass the sum check
        ledger, contract, client, server, arbiter = make_env()
        self.fund(ledger, contract, client, server)
        supply, balances = ledger.total_supply(), ledger.balances()
        trace = ledger.export_trace()
        with pytest.raises(Unbalanced):
            ledger.execute_payout(contract, dist(client, server))
        assert ledger.total_supply() == supply and type(ledger.total_supply()) is int
        assert ledger.balances() == balances
        assert ledger.export_trace() == trace
        assert not contract.paid_out and contract.escrow == 27


class TestDeterminismAndTraces:
    def run_sequence(self) -> Ledger:
        ledger, contract, client, server, arbiter = make_env()
        goto(ledger, contract, "T0")
        ledger.log_session_event("sap_client", client, b"commitment")
        deposit(ledger, client, contract, 21)
        goto(ledger, contract, "T1")
        ledger.post(contract, LedgerMessage(server, MsgKind.SERVER_RESPONSE, b"\x01"))
        deposit(ledger, server, contract, 6)
        goto(ledger, contract, "G1.1")
        ledger.post(contract, LedgerMessage(client, MsgKind.QUERY, b"q1", slot=1))
        goto(ledger, contract, "G1.2")
        ledger.post(contract, LedgerMessage(server, MsgKind.PROOF, b"p1", slot=1))
        goto(ledger, contract, "L")
        ledger.execute_payout(contract, [(client, 6), (server, 21), (arbiter, 0)])
        return ledger

    # each payload run_sequence logs, in order
    PAYLOADS = (
        b"0", b"commitment", (21).to_bytes(8, "big"), b"\x01", (6).to_bytes(8, "big"),
        b"q1", b"p1", b'{"arbiter": 0, "client": 6, "server": 21}',
    )

    def test_replay_is_bit_identical(self):
        one, two = self.run_sequence(), self.run_sequence()
        assert one.export_trace() == two.export_trace()
        assert one.balances() == two.balances()

    def test_trace_shape(self):
        ledger = self.run_sequence()
        trace = ledger.export_trace()
        assert [e["seq"] for e in trace] == list(range(len(trace)))
        for entry in trace:
            assert set(entry) >= {"seq", "time", "sender", "kind", "payload_digest"}
        kinds = [e["kind"] for e in trace]
        assert kinds.count("deposit") == 2
        assert "query" in kinds and "proof" in kinds and "payout" in kinds

    def test_trace_records_the_slot_of_cycle_posts(self):
        # a QUERY and a PROOF entry carry the cycle they were posted for;
        # entries of other kinds carry no slot
        trace = self.run_sequence().export_trace()
        slots = {e["kind"]: e.get("slot") for e in trace}
        assert (slots["query"], slots["proof"]) == (1, 1)
        assert all("slot" not in e for e in trace if e["kind"] not in ("query", "proof"))

    def test_trace_jsonl_export(self, tmp_path):
        # each line is one exported entry, digest included, as sorted-key JSON
        ledger = self.run_sequence()
        target = tmp_path / "trace.jsonl"
        ledger.write_trace_jsonl(target)
        lines = target.read_text(encoding="utf-8").splitlines()
        trace = ledger.export_trace()
        assert [json.loads(line) for line in lines] == trace
        assert lines == [json.dumps(entry, sort_keys=True) for entry in trace]

    def test_logged_buffer_is_snapshot(self):
        # a caller that writes to its buffer after logging it cannot change
        # the digest the export reports
        ledger, _, client, _, _ = make_env()
        buffer = bytearray(b"statement commitment")
        ledger.log_session_event("sap_client", client, buffer)
        buffer[:] = b"X" * len(buffer)
        [entry] = [e for e in ledger.export_trace() if e["kind"] == "sap_client"]
        assert entry["payload_digest"] == digest(b"statement commitment").hex()

    def test_ledger_operations_hash_nothing(self):
        # deploy_contract, log_session_event, deposit, post and
        # execute_payout hash nothing; the export hashes each logged payload
        # once, as it was logged
        with count_hash_calls() as taken:
            ledger = self.run_sequence()
        assert taken() == 0
        with count_hash_calls() as taken:
            trace = ledger.export_trace()
        assert taken() == len(self.PAYLOADS)
        assert [e["payload_digest"] for e in trace] == [digest(p).hex() for p in self.PAYLOADS]


class TestConservationProperty:
    # besides well-formed operations, draws that are not: a deposit above the
    # sender's balance, a payload that is not bytes (or, for a DEPOSIT drawn
    # as a post, not 8 bytes), a slot that is not an int or that a kind other
    # than QUERY and PROOF names
    PAYLOADS = ("text", bytearray(b"mutable"))
    SLOTS = ("1", 1.0, None)

    def test_random_traces_conserve_supply(self):
        rng = random.Random(20250809)
        for _ in range(60):
            z = rng.randrange(1, 4)
            ledger, contract, client, server, arbiter = make_env(z=z)
            start = ledger.total_supply()
            for point in Schedule(z).points:
                if rng.random() < 0.25:
                    continue  # skip windows at random
                try:
                    ledger.advance_time(point)
                except NonMonotonicTime:
                    continue
                ops = rng.randrange(0, 3)
                for _ in range(ops):
                    actor = rng.choice([client, server])
                    odd = rng.random() < 0.2
                    try:
                        if rng.random() < 0.5:
                            amount = (rng.choice([ledger.balance(actor) + 1, 2**64 - 1])
                                      if odd else rng.randrange(0, 30))
                            deposit(ledger, actor, contract, amount)
                        else:
                            kind = rng.choice(list(MsgKind))
                            cycle_post = kind in (MsgKind.QUERY, MsgKind.PROOF)
                            slot = rng.randrange(0, z + 2) if cycle_post else None
                            payload = rng.randbytes(4)
                            if odd and rng.random() < 0.5:
                                payload = rng.choice(self.PAYLOADS)
                            elif odd:
                                slot = rng.choice(self.SLOTS)
                            ledger.post(
                                contract,
                                LedgerMessage(actor, kind, payload, slot=slot),
                            )
                    except REFUSALS:
                        pass  # rejected operations must not move coins
                assert ledger.total_supply() == start
            if not contract.paid_out and contract.escrow:
                ledger.execute_payout(contract, [(client, contract.escrow)])
            assert ledger.total_supply() == start
