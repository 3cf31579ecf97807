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
      "seed": 7
    }

The parse refuses any key the schema does not name, at every level, with
``SpecInvalid``: a misspelt key does not run with its default.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import crypto, por, protocol
from .ledger import CounterOutOfBounds, Counters, Ledger, Schedule
from .protocol import (
    CLIENT_KINDS,
    SERVER_KINDS,
    Arbiter,
    Client,
    PriceList,
    PricePair,
    Script,
    Server,
    SessionConfig,
)


# the dispute variants a file names; ``run`` gives only ARBITER an arbiter
ARBITER = "arbiter"
VARIANTS = (ARBITER, "arbiterless")
# the file pre-encodings a file names; only XOR_PARITY sets the session's parity
CODECS = IDENTITY, XOR_PARITY = ("identity", "xor-parity")


class SpecInvalid(ValueError):
    """Scenario file failed validation."""


def _known(given: dict, keys: tuple | dict, where: str) -> dict:
    """``given``; SpecInvalid for a key not in ``keys``, AttributeError if not a dict."""
    for key in given.keys():
        if key not in keys:
            raise SpecInvalid(f"unknown key {key!r} in {where}")
    return given


def json_int(value: object, name: str) -> int:
    """``value`` if it is a JSON integer, an ``int`` that is not a ``bool``;
    SpecInvalid for anything else, so a float, a boolean or a numeric string
    is refused rather than truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecInvalid(f"{name} must be an integer, not {value!r}")
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """A parsed scenario: ``raw`` is the normalized file (every default
    filled in, every number an int, behaviours in file order), the
    session config built from it, and each party's script of (kind, j)
    pairs."""

    raw: dict
    config: SessionConfig
    client: Script
    server: Script

    @property
    def seed(self) -> int:
        return self.raw["seed"]

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
        _known(raw, ("session", "file", "behaviors", "seed"), "the scenario")
        given = raw["session"]
        pi_max = given.get("pi_max")
        session = {
            "z": json_int(given["z"], "z"),
            "phi": json_int(given["phi"], "phi"),
            "block_payload_len": json_int(
                given.get("block_payload_len", por.DEFAULT_BLOCK_PAYLOAD_LEN),
                "block_payload_len",
            ),
            "price_list": [
                [json_int(o, "price"), json_int(l, "price")] for o, l in given["price_list"]
            ],
            "price_choice": [json_int(x, "price") for x in given["price_choice"]],
            "pi_max": None if pi_max is None else json_int(pi_max, "pi_max"),
            "variant": given.get("variant", ARBITER),
            "codec": given.get("codec", IDENTITY),
        }
        _known(given, session, "session")
        if session["variant"] not in VARIANTS:
            raise SpecInvalid(f"unknown variant {session['variant']!r}")
        if session["codec"] not in CODECS:
            raise SpecInvalid(f"unknown codec {session['codec']!r}")
        config = SessionConfig(
            z=session["z"],
            phi=session["phi"],
            price_list=PriceList(tuple(PricePair(*p) for p in session["price_list"])),
            price_choice=PricePair(*session["price_choice"]),
            block_payload_len=session["block_payload_len"],
            pi_max=session["pi_max"],
            parity=session["codec"] == XOR_PARITY,
        )

        source = _known(raw["file"], ("size", "path"), "file")
        size, path = source.get("size"), source.get("path")
        if (size is None) == (path is None):
            raise SpecInvalid("file source must give exactly one of size or path")
        if path is not None and not isinstance(path, str):
            raise SpecInvalid("file path must be a string")
        if size is not None and json_int(size, "file size") < 1:
            raise SpecInvalid("file size must be positive")

        behaviors = _known(raw.get("behaviors", {}), ("client", "server"), "behaviors")
        client_items, client = cls._parse_behaviors(
            behaviors.get("client", []), CLIENT_KINDS, config.z, "client"
        )
        server_items, server = cls._parse_behaviors(
            behaviors.get("server", []), SERVER_KINDS, config.z, "server"
        )
        normalized = {
            "session": session,
            "file": {"path": path} if size is None else {"size": size},
            "behaviors": {"client": client_items, "server": server_items},
            "seed": json_int(raw.get("seed", 0), "seed"),
        }
        return cls(normalized, config, client, server)

    @staticmethod
    def _parse_behaviors(
        items: list, kinds: dict[str, bool], z: int, role: str
    ) -> tuple[list[dict], Script]:
        """The listed behaviours, normalized, and the party's script: one
        (kind, j) pair each, j None for a session-wide kind. A role has at
        most one per-cycle kind per cycle."""
        out: list[dict] = []
        used: set[object] = set()
        for n, item in enumerate(items, 1):
            kind = _known(item, ("kind", "j"), f"{role} behavior {n}")["kind"]
            if kind not in kinds:
                raise SpecInvalid(f"unknown {role} behavior {kind!r}")
            j = item.get("j")
            if kinds[kind]:
                if j is None or not 1 <= json_int(j, f"{kind} cycle") <= z:
                    raise SpecInvalid(f"{kind} needs a cycle target in [1, {z}]")
                key = j
                out.append({"kind": kind, "j": j})
            else:
                if j is not None:
                    raise SpecInvalid(f"{kind} takes no cycle target")
                key = (kind, None)
                out.append({"kind": kind})
            if key in used:
                raise SpecInvalid(f"more than one {role} behavior for {key!r}")
            used.add(key)
        return out, frozenset((b["kind"], b.get("j")) for b in out)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)


def expected_payout(
    variant: str,
    counters: Counters,
    *,
    z: int,
    o: int,
    l: int,
    client_deposit: int,
    server_deposit: int,
    refund: bool = False,
) -> dict[str, int]:
    """Closed-form final amounts by account name: each deposit back when
    ``refund`` is set, else the L payout, with an ``arbiter`` entry only in
    its variant. ValueError for a ``variant`` not in VARIANTS.

    Kept deliberately separate from the ledger payout path so reports can
    cross-check the two.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if refund:
        return {"client": client_deposit, "server": server_deposit}
    c = counters
    c.check_bounds(z)
    paid_cycles = z - c.server_faults
    if variant == ARBITER:
        client_l = l * (c.client_faults + c.client_unneeded_disputes)
        server_l = l * (c.server_faults + c.server_unneeded_disputes)
        return {
            "client": client_deposit - o * paid_cycles - client_l,
            "server": server_deposit + o * paid_cycles - server_l,
            "arbiter": l * sum(c.as_dict().values()),
        }
    fee_transfer = l * (c.server_faults - c.client_faults)
    return {
        "client": client_deposit - o * paid_cycles + fee_transfer,
        "server": server_deposit + o * paid_cycles - fee_transfer,
    }


def _goto(ledger: Ledger, schedule, label: str) -> None:
    ledger.advance_time(schedule.point(label))


def run(spec: ScenarioSpec) -> dict:
    """Execute one scenario end to end and return its report dict."""
    cfg, variant = spec.config, spec.raw["session"]["variant"]
    master = random.Random(spec.seed)
    source = spec.raw["file"]
    if "path" in source:
        file_bytes = Path(source["path"]).read_bytes()
    else:
        file_bytes = master.randbytes(source["size"])

    cp = cfg.cp
    ledger = Ledger()
    addr_client = ledger.create_account("client", cp.client_deposit)
    addr_server = ledger.create_account("server", cp.server_deposit)
    addr_arbiter = ledger.create_account("arbiter", 0) if variant == ARBITER else None
    genesis = ledger.balances()
    genesis_supply = ledger.total_supply()

    client = Client(addr_client, random.Random(master.getrandbits(64)), cfg, spec.client)
    server = Server(
        addr_server, random.Random(master.getrandbits(64)), cfg.price_list,
        spec.server,
    )
    cycles: list[dict] = []
    resolution = None

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

    refund_path = protocol.refund_applies(contract)
    if refund_path:
        _goto(ledger, schedule, "T2")
    else:
        for j in range(1, cfg.z + 1):
            _goto(ledger, schedule, f"G{j}.1")
            client.post_query(j, ledger)
            _goto(ledger, schedule, f"G{j}.2")
            b_j = server.prove_cycle(j, ledger)
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
        if disputed and variant == ARBITER:
            arbiter = Arbiter(addr_arbiter)
            _goto(ledger, schedule, "K2")
            arbiter.resolve_server(server.complaint_post(), ledger, contract)
            _goto(ledger, schedule, "K5")
            arbiter.resolve_client(client.complaint_post(), ledger, contract)
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
    if variant == ARBITER:
        actual = protocol.payout_arbiter_variant(ledger, contract, client.opening_cp)
    else:
        actual = protocol.payout_arbiterless_variant(
            ledger, contract, client.opening_cp
        )
    expected = expected_payout(
        variant,
        contract.counters,
        z=cfg.z,
        o=cfg.price_choice.o,
        l=cfg.price_choice.l,
        client_deposit=contract.client_deposited,
        server_deposit=contract.server_deposited,
        refund=refund_path,
    )

    final = ledger.balances()
    final_supply = ledger.total_supply()
    payout_match = actual == expected
    conserved = final_supply == genesis_supply

    report = {
        "format": "porpay-report/1",
        "valid": bool(payout_match and conserved),
        "spec": spec.to_dict(),
        "pp": client.qp.pp.to_json(),
        "unit_format": {
            "nonce_len": crypto.NONCE_LEN,
            "payload_len": client.qp.query_unit.payload_len,
            "tag_len": crypto.TAG_LEN,
            "unit_len": client.qp.query_unit.unit_len,
        },
        "pad_pi": client.qp.pad_pi,
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
    o, l = (json_int(x, "price") for x in session["price_choice"])
    z = json_int(session["z"], "z")

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
    refund = bool(report["refund_path"])
    # a refund report's counters play no part in its payout
    counters = {} if refund else report["counters"]
    try:
        expected = expected_payout(
            session["variant"],
            Counters(**{name: json_int(v, name) for name, v in counters.items()}),
            z=z,
            o=o,
            l=l,
            client_deposit=json_int(deposits["client_actual"], "client_actual"),
            server_deposit=json_int(deposits["server_actual"], "server_actual"),
            refund=refund,
        )
    except CounterOutOfBounds as exc:
        problems.append(str(exc))
        expected = None
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
