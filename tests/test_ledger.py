"""Accounts, schedule windows, escrow accounting, and determinism."""

import random

import pytest

from porpay.ledger import (
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
    Schedule,
    Unbalanced,
    WrongSender,
)


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
        arbiterless=arbiterless,
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
        ledger.deposit(client, contract, 21)
        assert contract.escrow == 21
        assert second.escrow == 0

    def test_deposit_moves_balance_to_escrow(self):
        ledger, contract, client, *_ = make_env()
        goto(ledger, contract, "T0")
        ledger.deposit(client, contract, 21)
        assert ledger.balance(client) == 79
        assert contract.escrow == 21
        assert contract.client_deposited == 21

    def test_insufficient_balance_leaves_state_unchanged(self):
        ledger, contract, client, *_ = make_env(client_balance=10)
        goto(ledger, contract, "T0")
        with pytest.raises(InsufficientBalance):
            ledger.deposit(client, contract, 21)
        assert ledger.balance(client) == 10
        assert contract.escrow == 0

    def test_deposit_outside_window(self):
        ledger, contract, client, server, _ = make_env()
        goto(ledger, contract, "T0")
        with pytest.raises(OutOfWindow):
            ledger.deposit(server, contract, 6)  # server deposits at T1
        goto(ledger, contract, "T1")
        ledger.deposit(server, contract, 6)
        assert contract.server_deposited == 6

    def test_conservation_across_deposits(self):
        ledger, contract, client, server, _ = make_env()
        start = ledger.total_supply()
        goto(ledger, contract, "T0")
        ledger.deposit(client, contract, 21)
        goto(ledger, contract, "T1")
        ledger.deposit(server, contract, 6)
        assert ledger.total_supply() == start


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
        ledger.deposit(client, contract, 21)
        goto(ledger, contract, "T1")
        ledger.deposit(server, contract, 6)

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


class TestDeterminismAndTraces:
    def run_sequence(self) -> Ledger:
        ledger, contract, client, server, arbiter = make_env()
        goto(ledger, contract, "T0")
        ledger.deposit(client, contract, 21)
        goto(ledger, contract, "T1")
        ledger.post(contract, LedgerMessage(server, MsgKind.SERVER_RESPONSE, b"\x01"))
        ledger.deposit(server, contract, 6)
        goto(ledger, contract, "G1.1")
        ledger.post(contract, LedgerMessage(client, MsgKind.QUERY, b"q1", slot=1))
        goto(ledger, contract, "G1.2")
        ledger.post(contract, LedgerMessage(server, MsgKind.PROOF, b"p1", slot=1))
        goto(ledger, contract, "L")
        ledger.execute_payout(contract, [(client, 6), (server, 21), (arbiter, 0)])
        return ledger

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

    def test_trace_jsonl_export(self, tmp_path):
        import json

        ledger = self.run_sequence()
        target = tmp_path / "trace.jsonl"
        ledger.write_trace_jsonl(target)
        lines = target.read_text().splitlines()
        assert len(lines) == len(ledger.trace)
        assert json.loads(lines[0])["seq"] == 0


class TestConservationProperty:
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
                    try:
                        if rng.random() < 0.5:
                            ledger.deposit(actor, contract, rng.randrange(0, 30))
                        else:
                            kind = rng.choice(list(MsgKind))
                            slot = rng.randrange(0, z + 2)
                            ledger.post(
                                contract,
                                LedgerMessage(actor, kind, rng.randbytes(4), slot=slot),
                            )
                    except Exception:
                        pass  # rejected operations must not move coins
                assert ledger.total_supply() == start
            if not contract.paid_out and contract.escrow:
                ledger.execute_payout(contract, [(client, contract.escrow)])
            assert ledger.total_supply() == start
