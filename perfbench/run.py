"""porpay benchmark: whole scenario sessions, checked, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload audit-64k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The loop is closed: one ``scenario.run`` call at a time, in this process, no
threads. The seed is turned into scenario spec dicts; porpay sees only those.
Every session is checked (report validity, per-cycle verdicts, counters,
uniform proof size, the 1/phi re-check bound) and any failure makes the run
exit 1. The last stdout line is one JSON object: end-to-end metrics with
``--trace 0``, their times scaled to a fixed host speed by the probe of
``speed.py``; per-layer metrics from the spans of ``spans.py`` with
``--trace 1``. The line before it carries run details: the tail percentile
and its sample count, the metrics printed but not gated (``settle_ms``,
``failed_ratio`` with its base), and the machine. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import cryptography
    from porpay import scenario
except ImportError as exc:
    sys.exit(f"perfbench: cannot import porpay from {SRC}: {exc}")
if not Path(scenario.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: porpay was imported from {scenario.__file__}, not {SRC}")

import spans  # noqa: E402  (perfbench/spans.py needs porpay importable first)
import speed  # noqa: E402

PHI = 460
PAYLOAD = 16
RECHECK_BOUND = 1.05  # x 1/phi: the paper's single-check cost claim
CLIENT_KINDS = ("invalid_query", "withhold_query", "false_accusation")

# (b, d) each cycle of a kind must report; None is an honest cycle
EXPECTED_CYCLE = {
    None: (1, [1, None]),
    "false_accusation": (1, [1, None]),
    "corrupt_block": (1, [0, 1]),
    "withhold_proof": (1, [0, 1]),
    "false_query_complaint": (0, [0, 1]),
    "invalid_query": (0, [0, 1]),
    "withhold_query": (0, None),
}


@dataclass(frozen=True)
class Workload:
    m: int  # blocks of PAYLOAD bytes
    z: int  # billing cycles per session
    pi_max: int | None
    variants: tuple[str, ...]  # sessions per round, one per variant, same mix
    mix: dict[str, int]  # cycles per behaviour kind; the seed permutes them
    tail_pct: int  # highest percentile with >= 10 cycles beyond it at min_rounds
    min_rounds: int


WORKLOADS = {
    # storage onboarding: set-up (encode + two 2^20-leaf trees) dominates
    "onboard-1m": Workload(2**20, 4, None, ("arbiter",), {}, 60, 7),
    # steady-state auditing: prove, seal/open and verify every cycle
    "audit-64k": Workload(2**16, 48, 22, ("arbiterless",), {}, 90, 4),
    # disputes: dummy vectors, failed opens, the K1..L settlement, both variants
    "dispute-64k": Workload(
        2**16,
        48,
        22,
        ("arbiter", "arbiterless"),
        {
            "false_query_complaint": 11,
            "invalid_query": 11,
            "withhold_query": 10,
            "corrupt_block": 6,
            "withhold_proof": 5,
            "false_accusation": 5,
        },
        95,
        4,
    ),
}


def rounds(name: str, seed: int):
    """Endless seeded rounds; a round is one spec per variant over one mix."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    while True:
        kinds = [k for k, n in w.mix.items() for _ in range(n)]
        kinds += [None] * (w.z - len(kinds))
        rng.shuffle(kinds)
        behaviors = {"client": [], "server": []}
        for j, kind in enumerate(kinds, start=1):
            if kind is not None:
                role = "client" if kind in CLIENT_KINDS else "server"
                behaviors[role].append({"kind": kind, "j": j})
        session_seed = rng.getrandbits(32)
        yield [
            {
                "session": {
                    "z": w.z,
                    "phi": PHI,
                    "block_payload_len": PAYLOAD,
                    "price_list": [[5, 2], [3, 1]],
                    "price_choice": [5, 2],
                    "pi_max": w.pi_max,
                    "variant": variant,
                    "codec": "identity",
                },
                "file": {"size": w.m * PAYLOAD},
                "behaviors": behaviors,
                "seed": session_seed,
            }
            for variant in w.variants
        ]


def cycle_kinds(spec: dict) -> dict[int, str]:
    return {
        b["j"]: b["kind"]
        for role in ("client", "server")
        for b in spec["behaviors"][role]
    }


def expected_counters(variant: str, n: Counter) -> dict[str, int]:
    """Counters the injected mix implies, one kind per cycle, no suppression."""
    if variant == "arbiter":
        return {
            "client_faults": n["invalid_query"] + n["withhold_query"],
            "server_faults": n["corrupt_block"] + n["withhold_proof"],
            "client_unneeded_disputes": n["false_accusation"],
            "server_unneeded_disputes": n["false_query_complaint"],
        }
    return {
        "client_faults": n["invalid_query"] + n["withhold_query"],
        "server_faults": n["corrupt_block"]
        + n["withhold_proof"]
        + n["false_query_complaint"],
        "client_unneeded_disputes": 0,
        "server_unneeded_disputes": 0,
    }


# ---------------------------------------------------------------------------
# one session: run, summarise its spans, check it
# ---------------------------------------------------------------------------

HOT = frozenset(
    {
        "crypto.enc_unit",
        "crypto.dec_unit",
        "crypto.sample_unit",
        "crypto.prf",
        "merkle.prove",
        "merkle.verify",
    }
)
PER_CYCLE = ("merkle.prove", "merkle.verify")


def wall(start: int, end: int) -> int:
    return end - start


def summarise(t: spans.Tracer, lo: int, hi: int, scale=wall) -> dict:
    """One reverse pass over a session's spans: self time, counts, cycles.

    ``scale(start, end)`` times the session, set-up, cycle and settlement
    intervals: wall time, or ``speed.Probe.scaled`` in untraced runs.
    """
    names = spans.SPAN_NAMES
    ids = t.ids
    n = len(names)
    calls, total, self_ns, raised, hashes = ([0] * n for _ in range(5))
    hot = [name in HOT for name in names]
    resolver = [name in spans.RESOLVE_NAMES for name in names]
    per_cycle_ids = {ids[name]: name for name in PER_CYCLE}
    child = [0] * (hi - lo)
    coarse: dict[str, list] = {}
    per_cycle: Counter = Counter()
    cycle_start: dict[int, int] = {}
    cycle_end: dict[int, int] = {}
    cycle_hashes: Counter = Counter()
    settle = [None, None]
    recheck_parts = []  # (index, parent, name, hashes, flags) under resolvers
    verify_full = []  # hashes of accepting key-query verifies
    verify_calls = verify_accepted = resolve_opens = 0
    post_query, verify_cycle = ids["protocol.Client.post_query"], ids["protocol.Client.verify_cycle"]
    inits = (ids["protocol.Client.init"], ids["protocol.Server.init"])
    setup_ns = 0.0
    prf_id, verify_id, open_id = ids["crypto.prf"], ids["por.verify"], ids["crypto.dec_unit"]
    for i in range(hi - 1, lo - 1, -1):
        k, p, s, e, h, j, f = (
            t.name[i], t.parent[i], t.start[i], t.end[i], t.hashes[i], t.cycle[i], t.flags[i]
        )
        d = e - s
        own = d - child[i - lo]
        calls[k] += 1
        total[k] += d
        self_ns[k] += own
        hashes[k] += h
        if f & spans.RAISED:
            raised[k] += 1
        if p >= 0:
            child[p - lo] += d
            if resolver[t.name[p]]:
                if k == open_id:
                    resolve_opens += 1
                elif k == prf_id or k == verify_id:
                    recheck_parts.append((i, p, k, h, f))
        if k in per_cycle_ids:
            per_cycle[(k, j)] += d
        if hot[k]:
            continue
        if k == verify_id:
            if f & spans.RECHECK:
                continue
            verify_calls += 1
            if f & spans.ACCEPTED:
                verify_accepted += 1
                verify_full.append(h)
        coarse.setdefault(names[k], []).append((d, own))
        if k in inits:
            setup_ns += scale(s, e)
        if p == lo:  # a top-level step of scenario.run
            if j:
                cycle_hashes[j] += h
            if k == post_query:
                cycle_start[j] = s
            elif k == verify_cycle:
                cycle_end[j] = e
            elif names[k] in spans.SETTLE_NAMES:
                settle[0] = s if settle[0] is None else min(settle[0], s)
                if names[k].startswith("protocol.payout_"):
                    settle[1] = e
    rechecks, last_prf = [], {}
    for i, p, k, h, f in sorted(recheck_parts):
        if k == prf_id:
            last_prf[p] = h
        elif f & spans.RECHECK:
            rechecks.append(h + last_prf.pop(p, 0))
    layer_self: Counter = Counter()
    for k, name in enumerate(names):
        layer_self[spans.layer_of(name)] += self_ns[k]
    setup_hashes = hashes[ids["protocol.Client.init"]] + hashes[ids["protocol.Server.init"]]
    return {
        "spans": hi - lo,
        "session_s": scale(t.start[lo], t.end[lo]) / 1e9,
        "setup_s": setup_ns / 1e9,
        "setup_hashes": setup_hashes,
        "settle_ms": scale(*settle) / 1e6,
        "cycle_ms": [scale(cycle_start[j], cycle_end[j]) / 1e6 for j in sorted(cycle_start)],
        "wall_session_s": (t.end[lo] - t.start[lo]) / 1e9,
        "wall_cycle_ms": [(cycle_end[j] - cycle_start[j]) / 1e6 for j in sorted(cycle_start)],
        "cycle_hashes": [cycle_hashes[j] for j in sorted(cycle_hashes)],
        "rechecks": rechecks,
        "verify_full": verify_full,
        "verify_calls": verify_calls,
        "verify_accepted": verify_accepted,
        "resolve_opens": resolve_opens,
        "calls": dict(zip(names, calls)),
        "total_ns": dict(zip(names, total)),
        "hashes": dict(zip(names, hashes)),
        "raised": dict(zip(names, raised)),
        "layer_self_ms": {layer: ns / 1e6 for layer, ns in layer_self.items()},
        "per_cycle_ms": {
            name: [ns / 1e6 for (k, _), ns in per_cycle.items() if k == kid]
            for kid, name in per_cycle_ids.items()
        },
        "coarse": coarse,
    }


def check_session(spec: dict, report: dict, summary: dict, proofs: list[bytes]) -> tuple[int, list[str]]:
    """Failed cycles and the problems found; a problem fails the settlement."""
    problems = []
    ok, why = scenario.verify_report(report)
    if not ok or not report["valid"]:
        problems.append(f"report invalid: {why}")
    kinds = cycle_kinds(spec)
    failed_cycles = 0
    for cycle in report["cycles"]:
        want = EXPECTED_CYCLE[kinds.get(cycle["j"])]
        if (cycle["b"], cycle["d"]) != want:
            failed_cycles += 1
            problems.append(
                f"cycle {cycle['j']} ({kinds.get(cycle['j']) or 'honest'}): "
                f"b, d = {cycle['b']}, {cycle['d']}, expected {want}"
            )
    variant = spec["session"]["variant"]
    want = expected_counters(variant, Counter(kinds.values()))
    if report["counters"] != want:
        problems.append(f"{variant} counters {report['counters']} != {want}")
    if len({len(p) for p in proofs}) > 1:
        problems.append(f"proof posts differ in length: {sorted({len(p) for p in proofs})}")
    if summary["rechecks"] and summary["verify_full"]:
        base = statistics.median(summary["verify_full"])
        worst = max(summary["rechecks"])
        if worst > base * RECHECK_BOUND / PHI:
            problems.append(f"re-check used {worst} hashes, bound {RECHECK_BOUND}/phi of {base}")
    return failed_cycles, problems


class Run:
    """Sessions of one benchmark run and their outcome counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.next_id = 1
        self.scale = wall  # how summarise() times intervals

    def session(self, tracer: spans.Tracer, spec: dict) -> dict:
        z = spec["session"]["z"]
        parsed = scenario.ScenarioSpec.from_dict(spec)
        gc.collect()
        lo = len(tracer)
        sid, self.next_id = self.next_id, self.next_id + 1
        self.attempted += z + 1  # billing cycles plus the settlement
        try:
            with tracer.session_span(sid):
                report = scenario.run(parsed)
        except Exception as exc:  # a crash fails the whole session; keep measuring
            self.failed += z + 1
            self.problems.append(f"session {sid}: {type(exc).__name__}: {exc}")
            return None
        summary = summarise(tracer, lo, len(tracer), self.scale)
        proofs = list(tracer.contract.proofs.values())
        queries = list(tracer.contract.queries.values())
        summary["bytes_per_cycle"] = (sum(map(len, proofs)) + sum(map(len, queries))) / z
        summary["post_bytes"] = dict(tracer.post_bytes)
        summary["report"] = report
        failed_cycles, problems = check_session(spec, report, summary, proofs)
        self.failed += failed_cycles + (1 if problems else 0)
        self.problems += [f"session {sid}: {p}" for p in problems]
        return summary


def timed_loop(name: str, seed: int, seconds: float, min_rounds: int, step):
    """Closed loop over seeded rounds; no round starts that would overrun."""
    deadline = perf_counter() + seconds
    last = 0.0
    for r, specs in enumerate(rounds(name, seed)):
        now = perf_counter()
        if r >= min_rounds and now + last > deadline:
            return
        step(specs)
        last = perf_counter() - now


def warm_up() -> None:
    """One tiny session so imports and cipher back-end set-up are not timed."""
    spec = next(rounds("audit-64k", 0))[0]
    spec["session"].update(z=1, pi_max=None)
    spec["file"]["size"] = 1024 * PAYLOAD
    scenario.run(scenario.ScenarioSpec.from_dict(spec))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(name: str, sessions: list[dict]) -> tuple[dict, dict]:
    w = WORKLOADS[name]
    cycles = [c for s in sessions for c in s["cycle_ms"]]
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
        "session_s": (statistics.median(s["session_s"] for s in sessions), "s"),
        "cycle_ms_p50": (percentile(cycles, 50), "ms"),
        "cycle_ms_tail": (percentile(cycles, w.tail_pct), "ms"),
        "ledger_bytes_per_cycle": (
            statistics.median(s["bytes_per_cycle"] for s in sessions),
            "bytes",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tail = values["cycle_ms_tail"][0]
    info = {
        "cycle_ms_tail": {
            "percentile": w.tail_pct,
            "samples": len(cycles),
            "beyond": sum(c > tail for c in cycles),
        },
        # raw wall-clock medians, beside the host-speed scaled values above
        "wall": {
            "session_s": statistics.median(s["wall_session_s"] for s in sessions),
            "cycle_ms_p50": statistics.median(c for s in sessions for c in s["wall_cycle_ms"]),
        },
        # printed, but not in BENCHMARK.json: too unsteady on a shared host to gate
        "settle_ms": {
            "value": statistics.median(s["settle_ms"] for s in sessions),
            "unit": "ms",
            "samples": len(sessions),
        },
    }
    return values, info


def _median_or_none(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def per_layer(sessions: list[dict], overhead_s: list[float]) -> dict:
    """Per-layer values; None where the workload gives no sample."""

    def med(key):
        return _median_or_none(s[key] for s in sessions)

    def calls(span):
        return _median_or_none(s["calls"][span] for s in sessions)

    def per_call(span, scale, own=False):
        return _median_or_none(
            x[1 if own else 0] / scale for s in sessions for x in s["coarse"].get(span, ())
        )

    def mean_us(span):
        return _ratio(
            sum(s["total_ns"][span] for s in sessions) / 1e3,
            sum(s["calls"][span] for s in sessions),
        )

    def pooled(key, sub=None):
        return _median_or_none(
            v for s in sessions for v in (s[key] if sub is None else s[key][sub])
        )

    def session_sum(names, scale):
        return _median_or_none(
            sum(s["total_ns"][n] for n in names) / scale
            for s in sessions
            if any(s["calls"][n] for n in names)
        )

    def posted(*kinds):
        return _median_or_none(sum(s["post_bytes"].get(k, 0) for k in kinds) for s in sessions)

    def resolution(field):
        return sum(
            len(s["report"]["disputes"]["resolution"][field])
            for s in sessions
            if s["report"]["disputes"]["resolution"]
        )

    admitted = resolution("server_admitted") + resolution("client_admitted")
    filed = sum(
        len(s["report"]["disputes"]["server_complaints_filed"])
        + len(s["report"]["disputes"]["client_complaints_filed"])
        for s in sessions
    )
    attributed = sum(
        s["report"]["counters"]["client_faults"] + s["report"]["counters"]["server_faults"]
        for s in sessions
        if s["report"]["disputes"]["invoked"]
    )
    recheck = pooled("rechecks")
    verify = pooled("verify_full")
    payouts = ("protocol.payout_arbiter_variant", "protocol.payout_arbiterless_variant")
    values = {
        "hashing.calls_setup": (med("setup_hashes"), "count"),
        "hashing.calls_per_cycle": (pooled("cycle_hashes"), "count"),
        "hashing.calls_per_verify": (verify, "count"),
        "hashing.calls_per_recheck": (recheck, "count"),
        "hashing.recheck_ratio": (_ratio(recheck, verify) if recheck else None, "ratio"),
        "merkle.gen_tree_calls": (calls("merkle.gen_tree"), "count"),
        "merkle.gen_tree_s": (per_call("merkle.gen_tree", 1e9), "s"),
        "merkle.prove_ms": (pooled("per_cycle_ms", "merkle.prove"), "ms"),
        "merkle.verify_ms": (pooled("per_cycle_ms", "merkle.verify"), "ms"),
        "por.setup_s": (per_call("por.setup", 1e9), "s"),
        "por.encode_s": (per_call("por.setup", 1e9, own=True), "s"),
        "por.prove_ms": (per_call("por.prove", 1e6), "ms"),
        "por.verify_ms": (per_call("por.verify", 1e6), "ms"),
        "por.verify_accept_ratio": (
            _ratio(sum(s["verify_accepted"] for s in sessions), sum(s["verify_calls"] for s in sessions)),
            "ratio",
        ),
        "crypto.seal_calls": (calls("crypto.enc_unit"), "count"),
        "crypto.seal_us": (mean_us("crypto.enc_unit"), "us"),
        "crypto.open_calls": (calls("crypto.dec_unit"), "count"),
        "crypto.open_us": (mean_us("crypto.dec_unit"), "us"),
        "crypto.open_fail_ratio": (
            _ratio(sum(s["raised"]["crypto.dec_unit"] for s in sessions), sum(s["calls"]["crypto.dec_unit"] for s in sessions)),
            "ratio",
        ),
        "crypto.sample_calls": (calls("crypto.sample_unit"), "count"),
        "crypto.sample_us": (mean_us("crypto.sample_unit"), "us"),
        "crypto.prf_calls": (calls("crypto.prf"), "count"),
        "protocol.client_init_s": (per_call("protocol.Client.init", 1e9), "s"),
        "protocol.server_init_s": (per_call("protocol.Server.init", 1e9), "s"),
        "protocol.encode_vector_ms": (per_call("protocol.encode_proof_vector", 1e6), "ms"),
        "protocol.decode_vector_ms": (per_call("protocol.decode_proof_vector", 1e6), "ms"),
        "protocol.dummy_vector_ms": (per_call("protocol.dummy_proof_vector", 1e6), "ms"),
        "protocol.resolve_ms": (session_sum(spans.RESOLVE_NAMES, 1e6), "ms"),
        "protocol.opens_per_complaint": (
            _ratio(sum(s["resolve_opens"] for s in sessions), admitted),
            "count",
        ),
        "protocol.complaints_admitted_ratio": (_ratio(admitted, filed), "ratio"),
        "protocol.complaints_attributed_ratio": (_ratio(attributed, admitted), "ratio"),
        "protocol.payout_ms": (session_sum(payouts, 1e6), "ms"),
        "sap.init_ms": (per_call("sap.sap_init", 1e6), "ms"),
        "sap.agree_ms": (per_call("sap.sap_agree", 1e6), "ms"),
        "sap.verify_calls": (calls("sap.sap_verify"), "count"),
        "sap.verify_ms": (per_call("sap.sap_verify", 1e6), "ms"),
        "ledger.post_calls": (calls("ledger.Ledger.post"), "count"),
        "ledger.post_us": (mean_us("ledger.Ledger.post"), "us"),
        "ledger.bytes.query": (posted("query"), "bytes"),
        "ledger.bytes.proof": (posted("proof"), "bytes"),
        "ledger.bytes.complaints": (posted("server_complaints", "client_complaints"), "bytes"),
        "ledger.execute_payout_ms": (per_call("ledger.Ledger.execute_payout", 1e6), "ms"),
    }
    for layer in ("scenario", "protocol", "por", "merkle", "crypto", "sap", "ledger"):
        values[f"{layer}.self_ms"] = (
            _median_or_none(s["layer_self_ms"].get(layer, 0.0) for s in sessions),
            "ms",
        )
    values["trace.spans_per_session"] = (med("spans"), "count")
    values["trace.overhead_s"] = (_median_or_none(overhead_s), "s")
    return values


def exact_counts(summary: dict) -> dict:
    """The counts that must repeat exactly for the same seed."""
    return {
        "setup_hashes": summary["setup_hashes"],
        "cycle_hashes": summary["cycle_hashes"],
        "rechecks": summary["rechecks"],
        "calls": summary["calls"],
        "hashes": summary["hashes"],
        "raised": summary["raised"],
        "post_bytes": summary["post_bytes"],
        "bytes_per_cycle": summary["bytes_per_cycle"],
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[name]
    run = Run()
    phase = spans.Tracer(spans.PHASE_TARGETS)
    warm_up()
    measured: list[dict] = []
    overhead: list[float] = []

    if trace:
        full = spans.Tracer(spans.FULL_TARGETS)

        def step(specs):
            for spec in specs:
                untraced = run.session(phase, spec)
                traced = run.session(full, spec)
                if traced is None:
                    continue
                if not measured:  # the same spec once more: every count must repeat
                    again = run.session(full, spec)
                    if again is not None and exact_counts(again) != exact_counts(traced):
                        run.failed += 1
                        run.problems.append("counts differ between two runs of the same spec")
                measured.append(traced)
                if untraced is not None:
                    overhead.append(traced["session_s"] - untraced["session_s"])

        timed_loop(name, seed, seconds, 1, step)
        values = per_layer(measured, overhead)
        no_samples = sorted(k for k, (v, _) in values.items() if v is None)
        extra = {"no_samples": no_samples, "spans": len(full)}
        values = {k: (0 if v is None else v, unit) for k, (v, unit) in values.items()}
        full.write(
            ROOT / ".perfbench" / f"{name}.spans",
            {"workload": name, "seed": seed, "seconds": seconds},
        )
    else:

        def step(specs):
            for spec in specs:
                summary = run.session(phase, spec)
                if summary is not None:
                    measured.append(summary)

        with speed.Probe() as probe:
            run.scale = probe.scaled
            timed_loop(name, seed, seconds, w.min_rounds, step)
        values, extra = end_to_end(name, measured) if measured else ({}, {})
        extra["probe"] = {
            "count": len(probe.speeds),
            "speed_p10_p50_p90": statistics.quantiles(probe.speeds, n=10)[::4],
        }

    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "sessions": len(measured),
        "failed_ratio": {
            "value": run.failed / run.attempted,
            "unit": "ratio",
            "base": "billing cycles plus session settlements attempted",
            "attempted": run.attempted,
        },
        **extra,
        "problems": run.problems[:20],
        "machine": machine(),
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            }
        )
    )
    return 0 if run.failed == 0 and measured else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status, attempted, failed = 0, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(f"== {name}")
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"attempted": 0, "failed": 0}
        for metric, v in result.get("metrics", {}).items():
            print(f"   {metric:36} {v['value']:>14.6g} {v['unit']}")
        attempted += result["attempted"]
        failed += result["failed"]
        status = status or proc.returncode
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
