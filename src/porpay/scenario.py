"""Declarative scenario runner.

A scenario file names the session parameters, a file source, a seed, and a
list of per-role misbehaviours to inject. The runner owns the ledger and
all roles, drives the clock through the schedule, runs dispute resolution
when anyone complained, executes the payout, and emits a JSON report.

The report carries two independently computed payouts: the amounts the
ledger actually distributed and the closed-form amounts implied by the
final counters. A report is VALID only if they match and the total coin
supply was conserved exactly.

Scenario schema::

    {
      "session": {
        "z": 3, "phi": 16, "block_payload_len": 16,
        "price_list": [[5, 2], [3, 1]],
        "price_choice": [5, 2],
        "pi_max": null,                  # optional per-entry slot budget, <= 34
        "variant": "arbiter",            # or "arbiterless"
        "codec": "identity"              # or "xor-parity"
      },
      "file": {"size": 4096},            # or {"path": "data.bin"}
      "behaviors": {
        "client": [{"kind": "invalid_query", "j": 1}],
        "server": [{"kind": "corrupt_block", "j": 2}]
      },
      "seed": 7,
      "suppress_dummy_complaints": false
    }
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import crypto, protocol
from .ledger import CounterOutOfBounds, Counters, Ledger, Schedule
from .protocol import (
    ARBITER,
    Arbiter,
    Client,
    ClientBehavior,
    PriceList,
    PricePair,
    Server,
    ServerBehavior,
    SessionConfig,
)


def _kinds(behavior_cls) -> dict[str, bool]:
    """The misbehaviour kinds a behaviour class offers, each mapped to
    whether it targets one cycle: a frozenset field holds the cycles it
    targets, a bool field switches a session-wide kind on. The one policy
    field is not a misbehaviour."""
    return {
        f.name: isinstance(f.default, frozenset)
        for f in dataclasses.fields(behavior_cls)
        if f.name != "suppress_dummy_complaints"
    }


CLIENT_BEHAVIOR_KINDS = _kinds(ClientBehavior)
SERVER_BEHAVIOR_KINDS = _kinds(ServerBehavior)


class SpecInvalid(ValueError):
    """Scenario file failed validation."""


@dataclass(frozen=True)
class Behavior:
    kind: str
    j: int | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    config: SessionConfig
    file_size: int | None
    file_path: str | None
    client_behaviors: tuple[Behavior, ...]
    server_behaviors: tuple[Behavior, ...]
    seed: int
    suppress_dummy_complaints: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        try:
            return cls._parse(raw)
        except SpecInvalid:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SpecInvalid(f"malformed scenario: {exc}") from exc

    @classmethod
    def _parse(cls, raw: dict) -> "ScenarioSpec":
        session = raw["session"]
        pairs = tuple(PricePair(int(o), int(l)) for o, l in session["price_list"])
        choice = PricePair(*(int(x) for x in session["price_choice"]))
        config = SessionConfig(
            z=int(session["z"]),
            phi=int(session["phi"]),
            price_list=PriceList(pairs),
            price_choice=choice,
            block_payload_len=int(session.get("block_payload_len", 16)),
            pi_max=None if session.get("pi_max") is None else int(session["pi_max"]),
            variant=session.get("variant", ARBITER),
            codec_name=session.get("codec", "identity"),
        )

        file_spec = raw["file"]
        size = file_spec.get("size")
        path = file_spec.get("path")
        if (size is None) == (path is None):
            raise SpecInvalid("file source must give exactly one of size or path")
        if size is not None and int(size) < 1:
            raise SpecInvalid("file size must be positive")

        behaviors = raw.get("behaviors", {})
        client = cls._parse_behaviors(
            behaviors.get("client", []), CLIENT_BEHAVIOR_KINDS, config.z, "client"
        )
        server = cls._parse_behaviors(
            behaviors.get("server", []), SERVER_BEHAVIOR_KINDS, config.z, "server"
        )
        return cls(
            config=config,
            file_size=None if size is None else int(size),
            file_path=path,
            client_behaviors=client,
            server_behaviors=server,
            seed=int(raw.get("seed", 0)),
            suppress_dummy_complaints=bool(raw.get("suppress_dummy_complaints", False)),
        )

    @staticmethod
    def _parse_behaviors(
        raw: list, kinds: dict[str, bool], z: int, role: str
    ) -> tuple[Behavior, ...]:
        out: list[Behavior] = []
        used: set[object] = set()
        for item in raw:
            kind = item["kind"]
            if kind not in kinds:
                raise SpecInvalid(f"unknown {role} behavior {kind!r}")
            j = item.get("j")
            if kinds[kind]:
                if j is None or not 1 <= int(j) <= z:
                    raise SpecInvalid(f"{kind} needs a cycle target in [1, {z}]")
                j = key = int(j)
            else:
                if j is not None:
                    raise SpecInvalid(f"{kind} takes no cycle target")
                key = (kind, None)
            if key in used:
                raise SpecInvalid(f"more than one {role} behavior for {key!r}")
            used.add(key)
            out.append(Behavior(kind, j))
        return tuple(out)

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "session": {
                "z": cfg.z,
                "phi": cfg.phi,
                "block_payload_len": cfg.block_payload_len,
                "price_list": [[p.o, p.l] for p in cfg.price_list.pairs],
                "price_choice": [cfg.price_choice.o, cfg.price_choice.l],
                "pi_max": cfg.pi_max,
                "variant": cfg.variant,
                "codec": cfg.codec_name,
            },
            "file": {"size": self.file_size} if self.file_path is None
            else {"path": self.file_path},
            "behaviors": {
                "client": [
                    {"kind": b.kind} | ({} if b.j is None else {"j": b.j})
                    for b in self.client_behaviors
                ],
                "server": [
                    {"kind": b.kind} | ({} if b.j is None else {"j": b.j})
                    for b in self.server_behaviors
                ],
            },
            "seed": self.seed,
            "suppress_dummy_complaints": self.suppress_dummy_complaints,
        }


def expected_payout(
    variant: str,
    counters: Counters,
    *,
    z: int,
    o: int,
    l: int,
    client_deposit: int,
    server_deposit: int,
) -> tuple[int, int, int | None]:
    """Closed-form final amounts for (client, server, arbiter).

    Kept deliberately separate from the ledger payout path so reports can
    cross-check the two.
    """
    c = counters
    values = (
        c.client_faults,
        c.server_faults,
        c.client_unneeded_disputes,
        c.server_unneeded_disputes,
    )
    if min(values) < 0:
        raise CounterOutOfBounds("negative counter")
    if (
        c.client_faults + c.client_unneeded_disputes > z
        or c.server_faults + c.server_unneeded_disputes > z
    ):
        raise CounterOutOfBounds(f"counters {values} exceed z={z}")
    paid_cycles = z - c.server_faults
    if variant == ARBITER:
        client = (
            client_deposit
            - o * paid_cycles
            - l * (c.client_faults + c.client_unneeded_disputes)
        )
        server = (
            server_deposit
            + o * paid_cycles
            - l * (c.server_faults + c.server_unneeded_disputes)
        )
        arbiter = l * sum(values)
        return client, server, arbiter
    client = client_deposit - o * paid_cycles + l * (c.server_faults - c.client_faults)
    server = server_deposit + o * paid_cycles + l * (c.client_faults - c.server_faults)
    return client, server, None


def _behavior(behavior_cls, behaviors: tuple[Behavior, ...], **policy):
    """``behavior_cls`` with every listed kind switched on: a session-wide
    kind set to True, a per-cycle kind holding all the cycles it targets."""
    values: dict[str, object] = {}
    for b in behaviors:
        cycles = values.get(b.kind, frozenset())
        values[b.kind] = True if b.j is None else cycles | {b.j}
    return behavior_cls(**values, **policy)


def _goto(ledger: Ledger, schedule, label: str) -> None:
    target = schedule.point(label)
    if ledger.time.ordinal < target.ordinal:
        ledger.advance_time(target)


def run(spec: ScenarioSpec) -> dict:
    """Execute one scenario end to end and return its report dict."""
    cfg = spec.config
    master = random.Random(spec.seed)
    if spec.file_path is not None:
        file_bytes = Path(spec.file_path).read_bytes()
        if not file_bytes:
            raise SpecInvalid("file at path is empty")
    else:
        file_bytes = master.randbytes(spec.file_size)

    client_behavior = _behavior(
        ClientBehavior,
        spec.client_behaviors,
        suppress_dummy_complaints=spec.suppress_dummy_complaints,
    )
    server_behavior = _behavior(ServerBehavior, spec.server_behaviors)

    cp = cfg.cp
    ledger = Ledger()
    addr_client = ledger.create_account("client", cp.client_deposit)
    addr_server = ledger.create_account("server", cp.server_deposit)
    addr_arbiter = (
        ledger.create_account("arbiter", 0) if cfg.variant == ARBITER else None
    )
    genesis = ledger.balances()
    genesis_supply = ledger.total_supply()

    client = Client(
        addr_client, random.Random(master.getrandbits(64)), cfg, client_behavior
    )
    server = Server(
        addr_server, random.Random(master.getrandbits(64)), cfg.price_list,
        server_behavior,
    )
    arbiter = Arbiter(addr_arbiter) if addr_arbiter is not None else None

    cycles: list[dict] = []
    resolution = None
    refund_path = False

    # phases 1-2 at T0, phase 3 at T1
    schedule = Schedule(cfg.z)
    _goto(ledger, schedule, "T0")
    try:
        handoff = client.init(file_bytes, ledger, addr_server, addr_arbiter)
    except ValueError as exc:  # e.g. phi above m, or pi_max below the entry size
        raise SpecInvalid(f"session cannot start: {exc}") from exc
    contract = handoff.contract
    _goto(ledger, schedule, "T1")
    server.init(handoff, ledger)

    if protocol.refund_applies(contract):
        refund_path = True
        _goto(ledger, schedule, "T2")
        client.request_payout(ledger)
        actual = protocol.refund_deposits(ledger, contract)
        expected = {
            addr_client.id: contract.client_deposited,
            addr_server.id: contract.server_deposited,
        }
    else:
        for j in range(1, cfg.z + 1):
            _goto(ledger, schedule, f"G{j}.1")
            client.post_query(j, ledger)
            _goto(ledger, schedule, f"G{j}.2")
            b_j, _ = server.prove_cycle(j, ledger)
            verdict, complaint = client.verify_cycle(j, ledger)
            cycles.append(
                {
                    "j": j,
                    "b": b_j,
                    "d": None
                    if verdict is None
                    else [int(verdict.accepted), verdict.failing_index],
                    "client_complaint": None if complaint is None else list(complaint),
                }
            )

        disputed = bool(server.complaints or client.complaints)
        if disputed and cfg.variant == ARBITER:
            _goto(ledger, schedule, "K2")
            arbiter.resolve_server(server.complaints, server.opening_qp, ledger, contract)
            _goto(ledger, schedule, "K5")
            arbiter.resolve_client(client.complaints, client.opening_qp, ledger, contract)
            _goto(ledger, schedule, "K6")
            arbiter.post_counters(ledger, contract)
            resolution = arbiter.report
        elif disputed:
            if server.complaints:
                _goto(ledger, schedule, "K1")
                server.post_complaints(ledger)
            if client.complaints:
                _goto(ledger, schedule, "K4")
                client.post_complaints(ledger)
            _goto(ledger, schedule, "K5")
            resolution = protocol.contract_resolve(ledger, contract)

        _goto(ledger, schedule, "L")
        client.request_payout(ledger)
        if cfg.variant == ARBITER:
            actual = protocol.payout_arbiter_variant(ledger, contract, client.opening_cp)
        else:
            actual = protocol.payout_arbiterless_variant(
                ledger, contract, client.opening_cp
            )
        exp_client, exp_server, exp_arbiter = expected_payout(
            cfg.variant,
            contract.counters,
            z=cfg.z,
            o=cfg.price_choice.o,
            l=cfg.price_choice.l,
            client_deposit=contract.client_deposited,
            server_deposit=contract.server_deposited,
        )
        expected = {addr_client.id: exp_client, addr_server.id: exp_server}
        if exp_arbiter is not None:
            expected[addr_arbiter.id] = exp_arbiter

    final = ledger.balances()
    final_supply = ledger.total_supply()
    payout_match = actual == expected
    conserved = final_supply == genesis_supply

    report = {
        "format": "porpay-report/1",
        "valid": bool(payout_match and conserved),
        "spec": spec.to_dict(),
        "pp": client.pp.to_json(),
        "unit_format": {
            "nonce_len": crypto.NONCE_LEN,
            "payload_len": client.pf.slot.payload_len,
            "tag_len": crypto.TAG_LEN,
            "unit_len": client.pf.slot.unit_len,
        },
        "pad_pi": client.pad_pi,
        "deposits": {
            "client_required": contract.params.client_deposit_required,
            "client_actual": contract.client_deposited,
            "server_required": contract.params.server_deposit_required,
            "server_actual": contract.server_deposited,
        },
        "a": contract.a_flag,
        "refund_path": refund_path,
        "cycles": cycles,
        "disputes": {
            "invoked": resolution is not None,
            "server_complaints_filed": list(server.complaints),
            "client_complaints_filed": [list(c) for c in client.complaints],
            "resolution": None if resolution is None else resolution.as_dict(),
        },
        "counters": contract.counters.as_dict(),
        "payout": {"actual": actual, "expected": expected, "match": payout_match},
        "balances": {
            "genesis": genesis,
            "final": final,
            "delta": {k: final[k] - genesis[k] for k in genesis},
        },
        "conservation": {
            "genesis_supply": genesis_supply,
            "final_supply": final_supply,
            "exact": conserved,
        },
        "seed": spec.seed,
    }
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def verify_report(report: dict) -> tuple[bool, list[str]]:
    """Re-check a report's conservation and payout arithmetic from scratch."""
    problems: list[str] = []
    session = report["spec"]["session"]
    o, l = (int(x) for x in session["price_choice"])
    z = int(session["z"])

    genesis = report["balances"]["genesis"]
    final = report["balances"]["final"]
    if sum(final.values()) != sum(genesis.values()):
        problems.append("balance totals differ between genesis and final state")
    if report["conservation"]["genesis_supply"] != sum(genesis.values()):
        problems.append("recorded genesis supply does not match balances")
    if report["conservation"]["final_supply"] != sum(final.values()):
        problems.append("recorded final supply does not match balances")
    for name, delta in report["balances"]["delta"].items():
        if final[name] - genesis[name] != delta:
            problems.append(f"delta for {name} is inconsistent")

    deposits = report["deposits"]
    if report["refund_path"]:
        expected = {
            "client": deposits["client_actual"],
            "server": deposits["server_actual"],
        }
    else:
        counters = Counters(**report["counters"])
        try:
            exp_client, exp_server, exp_arbiter = expected_payout(
                session["variant"],
                counters,
                z=z,
                o=o,
                l=l,
                client_deposit=deposits["client_actual"],
                server_deposit=deposits["server_actual"],
            )
        except CounterOutOfBounds as exc:
            problems.append(str(exc))
            exp_client = exp_server = exp_arbiter = None
        expected = None
        if exp_client is not None:
            expected = {"client": exp_client, "server": exp_server}
            if exp_arbiter is not None:
                expected["arbiter"] = exp_arbiter
    if expected is not None and report["payout"]["actual"] != expected:
        problems.append(
            f"payout {report['payout']['actual']} does not match "
            f"recomputed {expected}"
        )
    if expected is not None and report["payout"]["expected"] != expected:
        problems.append("recorded expected payout disagrees with recomputation")
    should_be_valid = (
        not problems
        and report["payout"]["match"]
        and report["conservation"]["exact"]
    )
    if bool(report["valid"]) != should_be_valid:
        problems.append("validity flag inconsistent with report contents")
    return not problems, problems
