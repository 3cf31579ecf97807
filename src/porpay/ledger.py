"""Deterministic in-process ledger: accounts, escrow contracts, and a
logical clock of named time points.

All mutation flows through explicit operations that check sender attribution
and the contract schedule, append to an ordered trace, and conserve the
total coin supply. Time is purely logical: the scenario driver advances the
clock through named points, and a message is accepted only when its kind is
permitted for its sender at the current point. Sender attribution stands in
for transaction signatures; a caller must present its own Address handle, so
impersonation is impossible in-process.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .hashing import digest


class UnknownAddress(KeyError):
    """Operation referenced an address this ledger has never issued."""


class UnknownSession(KeyError):
    """Operation referenced a session id this ledger has never registered."""


class InsufficientBalance(ValueError):
    pass


class OutOfWindow(RuntimeError):
    """Message or deposit arrived outside its scheduled time point."""


class WrongSender(PermissionError):
    """Message kind is not permitted for this sender."""


class DuplicateSlot(RuntimeError):
    """A second payload was offered for an already-filled slot."""


class NonMonotonicTime(RuntimeError):
    pass


class Unbalanced(ValueError):
    """Payout distribution does not sum to the escrow: a protocol-logic bug."""


class AlreadyPaid(RuntimeError):
    pass


class MissingQuery(KeyError):
    """No query ciphertext was posted for the requested cycle."""


class CounterOutOfBounds(ValueError):
    """Counter update would violate the per-session counter bounds."""


class MalformedPayload(ValueError):
    """Payload the contract must decode does not have the fixed wire shape."""


@dataclass(frozen=True)
class Address:
    """Opaque party identifier; the handle doubles as the send capability."""

    id: str


@dataclass(frozen=True)
class TimePoint:
    label: str
    ordinal: int


GENESIS = TimePoint("genesis", -1)


class Schedule:
    """The contract's named time points for z billing cycles, in order:
    T0 < T1 < T2 < G1.1 < G1.2 < ... < Gz.2 < J < K1 < ... < K6 < L."""

    def __init__(self, z: int):
        if z < 1:
            raise ValueError("need at least one billing cycle")
        labels = (
            ["T0", "T1", "T2"]
            + [f"G{j}.{p}" for j in range(1, z + 1) for p in (1, 2)]
            + ["J", "K1", "K2", "K3", "K4", "K5", "K6", "L"]
        )
        self.points = tuple(TimePoint(lab, i) for i, lab in enumerate(labels))
        self._by_label = {p.label: p for p in self.points}

    def point(self, label: str) -> TimePoint:
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"no time point labelled {label!r}") from None


def require_time(now: TimePoint, label: str) -> None:
    """Raise OutOfWindow unless the clock stands at ``label``."""
    if now.label != label:
        raise OutOfWindow(f"expected time {label}, ledger is at {now.label}")


class MsgKind(str, Enum):
    QUERY = "query"
    PROOF = "proof"
    SERVER_RESPONSE = "server_response"
    SERVER_COMPLAINTS = "server_complaints"
    CLIENT_COMPLAINTS = "client_complaints"
    COUNTERS = "counters"
    PAY = "pay"


@dataclass(frozen=True)
class LedgerMessage:
    sender: Address
    kind: MsgKind
    payload: bytes
    slot: int | None = None  # cycle number for QUERY / PROOF


@dataclass
class Counters:
    """Dispute tallies: faults are confirmed misbehaviour per cycle, the
    unneeded-dispute counts record complaints that identified no fault
    (third-party-arbiter variant only)."""

    client_faults: int = 0
    server_faults: int = 0
    client_unneeded_disputes: int = 0
    server_unneeded_disputes: int = 0

    _LAYOUT = struct.Struct(">QQQQ")
    PACKED_LEN = _LAYOUT.size

    def as_dict(self) -> dict:
        return {
            "client_faults": self.client_faults,
            "server_faults": self.server_faults,
            "client_unneeded_disputes": self.client_unneeded_disputes,
            "server_unneeded_disputes": self.server_unneeded_disputes,
        }

    def pack(self) -> bytes:
        return self._LAYOUT.pack(
            self.client_faults,
            self.server_faults,
            self.client_unneeded_disputes,
            self.server_unneeded_disputes,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Counters":
        return cls(*cls._LAYOUT.unpack(data))

    def check_bounds(self, z: int) -> None:
        """Raise CounterOutOfBounds unless no counter is negative and each
        party's faults plus unneeded disputes are at most z: one charge per
        cycle."""
        if (
            min(self.as_dict().values()) < 0
            or self.client_faults + self.client_unneeded_disputes > z
            or self.server_faults + self.server_unneeded_disputes > z
        ):
            raise CounterOutOfBounds(
                f"counters {self.as_dict()} outside the bounds for z={z}"
            )


@dataclass(frozen=True)
class ContractParams:
    z: int
    client_deposit_required: int
    server_deposit_required: int
    addr_client: Address
    addr_server: Address
    arbiterless: bool = False
    addr_arbiter: Address | None = None
    sap_refs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.z < 1:
            raise ValueError("need at least one billing cycle")
        if not self.arbiterless and self.addr_arbiter is None:
            raise ValueError("third-party variant needs an arbiter address")


class RcContract:
    """Escrow contract state for one recurring-payment session."""

    def __init__(self, handle: int, params: ContractParams):
        self.handle = handle
        self.params = params
        self.a_flag: int | None = None
        self.client_deposited = 0
        self.server_deposited = 0
        self.escrow = 0
        self.counters = Counters()
        self.resolved = False  # counters set once, by the arbiter or the contract
        self.queries: dict[int, bytes] = {}
        self.proofs: dict[int, bytes] = {}
        self.complaint_posts: dict[str, bytes] = {}
        self.pay_requests: list[str] = []
        self.paid_out = False
        self.payout: dict[str, int] | None = None

    def query(self, j: int) -> bytes:
        try:
            return self.queries[j]
        except KeyError:
            raise MissingQuery(f"no query posted for cycle {j}") from None

    def add_counters(self, delta: Counters) -> None:
        """Resolve the session's disputes by adding ``delta``, once.

        A second call raises DuplicateSlot; a sum outside the per-session
        bounds raises CounterOutOfBounds. Either leaves the counters as they
        were."""
        if self.resolved:
            raise DuplicateSlot("dispute counters already resolved")
        old = self.counters
        c = Counters(
            old.client_faults + delta.client_faults,
            old.server_faults + delta.server_faults,
            old.client_unneeded_disputes + delta.client_unneeded_disputes,
            old.server_unneeded_disputes + delta.server_unneeded_disputes,
        )
        c.check_bounds(self.params.z)
        self.counters = c
        self.resolved = True

    # message admission rules: (kind, sender role, time label) must line up
    def check_message(self, msg: LedgerMessage, now: TimePoint) -> None:
        p = self.params
        if msg.kind is MsgKind.QUERY:
            self._require(msg.sender, p.addr_client, msg.kind)
            self._require_slot_window(msg, now, part=1)
            if msg.slot in self.queries:
                raise DuplicateSlot(f"query already posted for cycle {msg.slot}")
        elif msg.kind is MsgKind.PROOF:
            self._require(msg.sender, p.addr_server, msg.kind)
            self._require_slot_window(msg, now, part=2)
            if msg.slot in self.proofs:
                raise DuplicateSlot(f"proof already posted for cycle {msg.slot}")
        elif msg.kind is MsgKind.SERVER_RESPONSE:
            self._require(msg.sender, p.addr_server, msg.kind)
            require_time(now, "T1")
            if self.a_flag is not None:
                raise DuplicateSlot("server already responded")
        elif msg.kind is MsgKind.SERVER_COMPLAINTS:
            if not p.arbiterless:
                raise WrongSender("complaints go to the arbiter in this variant")
            self._require(msg.sender, p.addr_server, msg.kind)
            require_time(now, "K1")
            if msg.kind.value in self.complaint_posts:
                raise DuplicateSlot("server complaints already posted")
        elif msg.kind is MsgKind.CLIENT_COMPLAINTS:
            if not p.arbiterless:
                raise WrongSender("complaints go to the arbiter in this variant")
            self._require(msg.sender, p.addr_client, msg.kind)
            require_time(now, "K4")
            if msg.kind.value in self.complaint_posts:
                raise DuplicateSlot("client complaints already posted")
        elif msg.kind is MsgKind.COUNTERS:
            if p.arbiterless:
                raise WrongSender("no arbiter counters in the arbiterless variant")
            self._require(msg.sender, p.addr_arbiter, msg.kind)
            require_time(now, "K6")
            if self.resolved:
                raise DuplicateSlot("arbiter counters already posted")
            if len(msg.payload) != Counters.PACKED_LEN:
                raise MalformedPayload(
                    f"counters payload of {len(msg.payload)} bytes, "
                    f"expected {Counters.PACKED_LEN}"
                )
        elif msg.kind is MsgKind.PAY:
            if msg.sender not in (p.addr_client, p.addr_server):
                raise WrongSender("pay must come from a session party")
            if now.label not in ("T2", "L"):
                raise OutOfWindow(f"pay not accepted at {now.label}")
        else:  # pragma: no cover - exhaustive over MsgKind
            raise WrongSender(f"unknown message kind {msg.kind}")

    def apply_message(self, msg: LedgerMessage, now: TimePoint) -> None:
        if msg.kind is MsgKind.QUERY:
            self.queries[msg.slot] = msg.payload
        elif msg.kind is MsgKind.PROOF:
            self.proofs[msg.slot] = msg.payload
        elif msg.kind is MsgKind.SERVER_RESPONSE:
            self.a_flag = msg.payload[0] if msg.payload else 0
        elif msg.kind in (MsgKind.SERVER_COMPLAINTS, MsgKind.CLIENT_COMPLAINTS):
            self.complaint_posts[msg.kind.value] = msg.payload
        elif msg.kind is MsgKind.COUNTERS:
            self.add_counters(Counters.unpack(msg.payload))
        elif msg.kind is MsgKind.PAY:
            self.pay_requests.append(now.label)

    def _require(self, sender: Address, expected: Address | None, kind: MsgKind) -> None:
        if sender != expected:
            raise WrongSender(f"{kind.value} not permitted for {sender.id}")

    def _require_slot_window(self, msg: LedgerMessage, now: TimePoint, part: int) -> None:
        if msg.slot is None or not 1 <= msg.slot <= self.params.z:
            raise OutOfWindow(f"cycle {msg.slot} outside [1, {self.params.z}]")
        require_time(now, f"G{msg.slot}.{part}")


class Ledger:
    """Single serialized state machine holding accounts, contracts, and time."""

    def __init__(self) -> None:
        self._balances: dict[Address, int] = {}
        self._contracts: list[RcContract] = []
        self._sessions: list = []  # SAP sessions and similar sub-contracts
        self.time: TimePoint = GENESIS
        self.trace: list[dict] = []

    # -- accounts ---------------------------------------------------------
    def create_account(self, name: str, balance: int = 0) -> Address:
        addr = Address(name)
        if addr in self._balances:
            raise ValueError(f"address {name!r} already exists")
        if balance < 0:
            raise ValueError("genesis balance must be non-negative")
        self._balances[addr] = balance
        return addr

    def has_address(self, addr: Address) -> bool:
        return addr in self._balances

    def balance(self, addr: Address) -> int:
        try:
            return self._balances[addr]
        except KeyError:
            raise UnknownAddress(addr.id) from None

    def balances(self) -> dict[str, int]:
        return {a.id: b for a, b in sorted(self._balances.items(), key=lambda kv: kv[0].id)}

    def total_supply(self) -> int:
        return sum(self._balances.values()) + sum(c.escrow for c in self._contracts)

    # -- clock ------------------------------------------------------------
    def advance_time(self, to: TimePoint) -> None:
        if to.ordinal <= self.time.ordinal:
            raise NonMonotonicTime(
                f"cannot move from {self.time.label} (#{self.time.ordinal}) "
                f"to {to.label} (#{to.ordinal})"
            )
        self.time = to

    # -- contracts ---------------------------------------------------------
    def deploy_contract(self, deployer: Address, params: ContractParams) -> RcContract:
        if not self.has_address(deployer):
            raise UnknownAddress(deployer.id)
        for addr in (params.addr_client, params.addr_server, params.addr_arbiter):
            if addr is not None and not self.has_address(addr):
                raise UnknownAddress(addr.id)
        contract = RcContract(len(self._contracts), params)
        self._contracts.append(contract)
        self._log("deploy", deployer, str(contract.handle).encode())
        return contract

    def deposit(self, sender: Address, contract: RcContract, amount: int) -> None:
        """Escrow ``amount`` from ``sender``; client deposits at T0, server at T1."""
        if amount < 0:
            raise ValueError("deposit must be non-negative")
        if sender == contract.params.addr_client:
            window = "T0"
        elif sender == contract.params.addr_server:
            window = "T1"
        else:
            raise WrongSender(f"{sender.id} is not a party to this contract")
        if self.time.label != window:
            raise OutOfWindow(f"deposit from {sender.id} only at {window}, now {self.time.label}")
        if self.balance(sender) < amount:
            raise InsufficientBalance(
                f"{sender.id} holds {self.balance(sender)}, needs {amount}"
            )
        self._balances[sender] -= amount
        contract.escrow += amount
        if sender == contract.params.addr_client:
            contract.client_deposited += amount
        else:
            contract.server_deposited += amount
        self._log("deposit", sender, amount.to_bytes(8, "big"))

    def post(self, contract: RcContract, msg: LedgerMessage) -> None:
        """Apply a message if the schedule permits it; accepted payloads are immutable."""
        if not self.has_address(msg.sender):
            raise UnknownAddress(msg.sender.id)
        contract.check_message(msg, self.time)
        contract.apply_message(msg, self.time)
        self._log(msg.kind.value, msg.sender, msg.payload, slot=msg.slot)

    def execute_payout(
        self, contract: RcContract, distribution: Iterable[tuple[Address, int]]
    ) -> dict[str, int]:
        """Distribute the whole escrow exactly once; conservation is enforced."""
        if contract.paid_out:
            raise AlreadyPaid("contract already paid out")
        dist = list(distribution)
        if any(amount < 0 for _, amount in dist):
            raise Unbalanced("negative amount in distribution")
        total = sum(amount for _, amount in dist)
        if total != contract.escrow:
            raise Unbalanced(f"distribution {total} != escrow {contract.escrow}")
        for addr, _ in dist:
            if not self.has_address(addr):
                raise UnknownAddress(addr.id)
        for addr, amount in dist:
            self._balances[addr] += amount
        contract.escrow = 0
        contract.paid_out = True
        contract.payout = {}
        for addr, amount in dist:
            contract.payout[addr.id] = contract.payout.get(addr.id, 0) + amount
        self._log("payout", contract.params.addr_client,
                  json.dumps(contract.payout, sort_keys=True).encode())
        return dict(contract.payout)

    # -- sub-contract sessions (e.g. statement agreements) ------------------
    def register_session(self, session) -> int:
        self._sessions.append(session)
        return len(self._sessions) - 1

    def session(self, session_id: int):
        if not isinstance(session_id, int) or not 0 <= session_id < len(self._sessions):
            raise UnknownSession(session_id)
        return self._sessions[session_id]

    def log_session_event(self, kind: str, sender: Address, payload: bytes) -> None:
        self._log(kind, sender, payload)

    # -- trace ---------------------------------------------------------------
    def _log(self, kind: str, sender: Address, payload: bytes, slot: int | None = None) -> None:
        entry = {
            "seq": len(self.trace),
            "time": self.time.label,
            "sender": sender.id,
            "kind": kind,
            "payload_digest": digest(payload).hex(),
        }
        if slot is not None:
            entry["slot"] = slot
        self.trace.append(entry)

    def export_trace(self) -> list[dict]:
        return [dict(e) for e in self.trace]

    def write_trace_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.trace:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
