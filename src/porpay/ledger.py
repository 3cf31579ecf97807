"""Deterministic in-process ledger: accounts, escrow contracts, and a
logical clock of named time points.

All mutation flows through explicit operations that check sender attribution
and the contract schedule, append to an ordered trace, and conserve the
total coin supply. Time is purely logical: the scenario driver advances the
clock through named points. Every party action on a contract, a deposit
included, is a post that ``RcContract.accept`` admits only when its kind is
permitted for its sender at the current point. Sender attribution stands in
for transaction signatures: a caller must present the Address handle the
ledger issued for its account. Handles compare by identity and the ledger
issues one per name, so a handle built elsewhere, even under a party's name,
is refused as an unknown address and impersonation is impossible in-process.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .hashing import digest


class UnknownAddress(KeyError):
    """Operation referenced an address this ledger has never issued."""


class UnknownContract(KeyError):
    """Operation named a contract object this ledger did not deploy."""


class UnknownSession(KeyError):
    """Operation referenced a session id this ledger has never registered."""


class InsufficientBalance(ValueError):
    pass


class OutOfWindow(RuntimeError):
    """Message arrived outside its scheduled time point."""


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


class CounterOutOfBounds(ValueError):
    """Counter update would violate the per-session counter bounds."""


class MalformedPayload(ValueError):
    """Payload the contract must decode does not have the fixed wire shape."""


@dataclass(frozen=True, eq=False)
class Address:
    """Opaque party identifier; the handle doubles as the send capability.

    Equal only to itself, and a copy is the same handle, so holding the
    object the ledger issued is the one way to act as its account."""

    id: str

    def __copy__(self) -> "Address":
        return self

    def __deepcopy__(self, memo: dict) -> "Address":
        return self


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


def _is_coins(amount: object) -> bool:
    """A whole, non-negative number of coins: an ``int``, not a float or bool."""
    return type(amount) is int and amount >= 0


def require_time(now: TimePoint, label: str) -> None:
    """Raise OutOfWindow unless the clock stands at ``label``."""
    if now.label != label:
        raise OutOfWindow(f"expected time {label}, ledger is at {now.label}")


class MsgKind(str, Enum):
    DEPOSIT = "deposit"  # the amount, 8 bytes big-endian
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
    slot: int | None = None  # cycle number for QUERY / PROOF, None otherwise


class Counters(NamedTuple):
    """Dispute tallies: faults are confirmed misbehaviour per cycle, the
    unneeded-dispute counts record complaints that identified no fault
    (third-party-arbiter variant only)."""

    client_faults: int = 0
    server_faults: int = 0
    client_unneeded_disputes: int = 0
    server_unneeded_disputes: int = 0

    _LAYOUT = struct.Struct(">QQQQ")
    PACKED_LEN = _LAYOUT.size

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(*(a + b for a, b in zip(self, other)))

    def as_dict(self) -> dict:
        return self._asdict()

    def pack(self) -> bytes:
        return self._LAYOUT.pack(*self)

    @classmethod
    def unpack(cls, data: bytes) -> "Counters":
        return cls(*cls._LAYOUT.unpack(data))

    def check_bounds(self, z: int) -> None:
        """Raise CounterOutOfBounds unless no counter is negative and each
        party's faults plus unneeded disputes are at most z: one charge per
        cycle."""
        if (
            min(self) < 0
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
    addr_arbiter: Address | None = None  # None: the arbiter-free variant
    sap_qp: int | None = None  # the qp agreement's session id
    sap_cp: int | None = None  # the cp agreement's session id

    def __post_init__(self) -> None:
        if self.z < 1:
            raise ValueError("need at least one billing cycle")

    @property
    def arbiterless(self) -> bool:
        return self.addr_arbiter is None


class RcContract:
    """Escrow contract state for one recurring-payment session."""

    def __init__(self, handle: int, params: ContractParams):
        self.handle = handle
        self.params = params
        self.a_flag: int | None = None
        self.client_deposited = 0
        self.server_deposited = 0
        self.counters = Counters()
        self.resolved = False  # counters set once, by the arbiter or the contract
        self.queries: dict[int, bytes] = {}
        self.proofs: dict[int, bytes] = {}
        self.complaint_posts: dict[str, bytes] = {}
        self.pay_requests: dict[str, list[bytes]] = {}  # PAY payloads by time label
        self.payout: dict[str, int] | None = None

    @property
    def paid_out(self) -> bool:
        return self.payout is not None

    @property
    def escrow(self) -> int:
        """Coins held: both deposits, less what the payout distributed."""
        paid = sum(self.payout.values()) if self.payout else 0
        return self.client_deposited + self.server_deposited - paid

    def add_counters(self, delta: Counters) -> None:
        """Resolve the session's disputes by adding ``delta``, once.

        A second call raises DuplicateSlot; a sum outside the per-session
        bounds raises CounterOutOfBounds. Either leaves the counters as they
        were."""
        if self.resolved:
            raise DuplicateSlot("dispute counters already resolved")
        total = self.counters + delta
        total.check_bounds(self.params.z)
        self.counters = total
        self.resolved = True

    def accept(self, msg: LedgerMessage, now: TimePoint, balance: int) -> int:
        """Admit ``msg`` at ``now`` from a sender holding ``balance``: its
        kind's checks, that (kind, sender, time) line up and the slot is
        free, then its store. Only a QUERY or PROOF names a slot. Returns the
        coins it escrows, a DEPOSIT's amount or 0. A refused message raises
        before anything is stored."""
        p, kind = self.params, msg.kind
        if not isinstance(msg.payload, bytes):
            raise MalformedPayload("payload must be bytes")
        slotted = kind is MsgKind.QUERY or kind is MsgKind.PROOF
        if not slotted and msg.slot is not None:
            raise MalformedPayload(f"{kind} takes no slot, got {msg.slot!r}")
        if kind is MsgKind.DEPOSIT:
            if self.paid_out:
                raise AlreadyPaid("contract already paid out")
            by_client = msg.sender == p.addr_client
            if not by_client and msg.sender != p.addr_server:
                raise WrongSender(f"{msg.sender.id} is not a party to this contract")
            require_time(now, "T0" if by_client else "T1")
            if len(msg.payload) != 8:
                raise MalformedPayload(f"deposit of {len(msg.payload)} bytes, expected 8")
            amount = int.from_bytes(msg.payload, "big")
            if balance < amount:
                raise InsufficientBalance(f"{msg.sender.id} holds {balance}, needs {amount}")
            if by_client:
                self.client_deposited += amount
            else:
                self.server_deposited += amount
            return amount
        if slotted:
            by_client = kind is MsgKind.QUERY
            self._require(msg.sender, p.addr_client if by_client else p.addr_server, kind)
            j = msg.slot
            if type(j) is not int or not 1 <= j <= p.z:
                raise OutOfWindow(f"cycle {j!r} outside [1, {p.z}]")
            require_time(now, f"G{j}.{1 if by_client else 2}")
            posted = self.queries if by_client else self.proofs
            if j in posted:
                raise DuplicateSlot(f"{kind.value} already posted for cycle {j}")
            posted[j] = msg.payload
        elif kind is MsgKind.SERVER_RESPONSE:
            self._require(msg.sender, p.addr_server, kind)
            require_time(now, "T1")
            if self.a_flag is not None:
                raise DuplicateSlot("server already responded")
            if msg.payload not in (b"\x00", b"\x01"):
                raise MalformedPayload("server response must be one byte, 0 or 1")
            self.a_flag = msg.payload[0]
        elif kind is MsgKind.SERVER_COMPLAINTS or kind is MsgKind.CLIENT_COMPLAINTS:
            if not p.arbiterless:
                raise WrongSender("complaints go to the arbiter in this variant")
            by_server = kind is MsgKind.SERVER_COMPLAINTS
            self._require(msg.sender, p.addr_server if by_server else p.addr_client, kind)
            require_time(now, "K1" if by_server else "K4")
            if kind.value in self.complaint_posts:
                raise DuplicateSlot(f"{kind.value.replace('_', ' ')} already posted")
            self.complaint_posts[kind.value] = msg.payload
        elif kind is MsgKind.COUNTERS:
            if p.arbiterless:
                raise WrongSender("no arbiter counters in the arbiterless variant")
            self._require(msg.sender, p.addr_arbiter, kind)
            require_time(now, "K6")
            if len(msg.payload) != Counters.PACKED_LEN:
                raise MalformedPayload(
                    f"counters payload of {len(msg.payload)} bytes, "
                    f"expected {Counters.PACKED_LEN}"
                )
            self.add_counters(Counters.unpack(msg.payload))
        elif kind is MsgKind.PAY:
            if msg.sender not in (p.addr_client, p.addr_server):
                raise WrongSender("pay must come from a session party")
            if now.label not in ("T2", "L"):
                raise OutOfWindow(f"pay not accepted at {now.label}")
            self.pay_requests.setdefault(now.label, []).append(msg.payload)
        else:
            raise WrongSender(f"unknown message kind {kind!r}")
        return 0

    def _require(self, sender: Address, expected: Address | None, kind: MsgKind) -> None:
        if sender != expected:
            raise WrongSender(f"{kind.value} not permitted for {sender.id}")


class Ledger:
    """Single serialized state machine holding accounts, contracts, and time."""

    def __init__(self) -> None:
        self._balances: dict[Address, int] = {}
        self._contracts: list[RcContract] = []
        self._sessions: list = []  # SAP sessions and similar sub-contracts
        self.time: TimePoint = GENESIS
        # (time label, sender id, kind, payload, slot) per logged entry
        self._trace: list[tuple[str, str, str, bytes, int | None]] = []

    # -- accounts ---------------------------------------------------------
    def create_account(self, name: str, balance: int = 0) -> Address:
        if any(addr.id == name for addr in self._balances):
            raise ValueError(f"address {name!r} already exists")
        if not _is_coins(balance):
            raise ValueError(f"genesis balance {balance!r} is not a non-negative int")
        addr = Address(name)
        self._balances[addr] = balance
        return addr

    def has_address(self, addr: object) -> bool:
        """Whether ``addr`` is a handle this ledger issued."""
        return isinstance(addr, Address) and addr in self._balances

    def balance(self, addr: Address) -> int:
        if not self.has_address(addr):
            raise UnknownAddress(addr)
        return self._balances[addr]

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
        for addr in (deployer, params.addr_client, params.addr_server, params.addr_arbiter):
            if addr is not None and not self.has_address(addr):
                raise UnknownAddress(addr)
        contract = RcContract(len(self._contracts), params)
        self._contracts.append(contract)
        self._log("deploy", deployer, str(contract.handle).encode())
        return contract

    def _require_deployed(self, contract: RcContract) -> None:
        """Raise UnknownContract unless this ledger deployed ``contract``."""
        try:
            deployed = self._contracts[contract.handle] is contract
        except (IndexError, TypeError):
            deployed = False
        if not deployed:
            raise UnknownContract(contract.handle)

    def post(self, contract: RcContract, msg: LedgerMessage) -> None:
        """Admit ``msg`` by ``RcContract.accept``, debit its sender what it
        escrows, and log it; a refused message moves and logs nothing."""
        self._require_deployed(contract)
        if not self.has_address(msg.sender):
            raise UnknownAddress(msg.sender)
        self._balances[msg.sender] -= contract.accept(msg, self.time, self.balance(msg.sender))
        self._log(msg.kind.value, msg.sender, msg.payload, slot=msg.slot)

    def execute_payout(
        self, contract: RcContract, distribution: Iterable[tuple[Address, int]]
    ) -> dict[str, int]:
        """Distribute the whole escrow exactly once; conservation is enforced."""
        self._require_deployed(contract)
        if contract.paid_out:
            raise AlreadyPaid("contract already paid out")
        dist = list(distribution)
        # no upper bound: a leg may carry both deposits, up to 2 * (2**64 - 1)
        if not all(_is_coins(amount) for _, amount in dist):
            raise Unbalanced("distribution amount is not a non-negative int")
        total = sum(amount for _, amount in dist)
        if total != contract.escrow:
            raise Unbalanced(f"distribution {total} != escrow {contract.escrow}")
        for addr, _ in dist:
            if not self.has_address(addr):
                raise UnknownAddress(addr)
        payout: dict[str, int] = {}
        for addr, amount in dist:
            self._balances[addr] += amount
            payout[addr.id] = payout.get(addr.id, 0) + amount
        contract.payout = payout
        self._log("payout", contract.params.addr_client,
                  json.dumps(payout, sort_keys=True).encode())
        return dict(payout)

    # -- sub-contract sessions (e.g. statement agreements) ------------------
    def register_session(self, session) -> int:
        self._sessions.append(session)
        return len(self._sessions) - 1

    def session(self, session_id: int):
        """The session registered under ``session_id``; UnknownSession for
        anything but an ``int`` (not a bool) in [0, n)."""
        if type(session_id) is not int or not 0 <= session_id < len(self._sessions):
            raise UnknownSession(session_id)
        return self._sessions[session_id]

    def log_session_event(self, kind: str, sender: Address, payload: bytes) -> None:
        self._log(kind, sender, payload)

    # -- trace ---------------------------------------------------------------
    def _log(self, kind: str, sender: Address, payload: bytes, slot: int | None = None) -> None:
        # bytes() is the object itself for bytes and a snapshot of any other
        # buffer, so a caller's later write cannot change the exported digest
        self._trace.append((self.time.label, sender.id, kind, bytes(payload), slot))

    def export_trace(self) -> list[dict]:
        """The trace, one dict per entry in order. Each payload is hashed
        here, one ``digest`` per entry: logging an entry hashes nothing."""
        trace = []
        for seq, (time, sender, kind, payload, slot) in enumerate(self._trace):
            entry = {
                "seq": seq,
                "time": time,
                "sender": sender,
                "kind": kind,
                "payload_digest": digest(payload).hex(),
            }
            if slot is not None:
                entry["slot"] = slot
            trace.append(entry)
        return trace

    def write_trace_jsonl(self, path: str) -> None:
        """Write ``export_trace()``, one sorted-key JSON line per entry."""
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.export_trace():
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
