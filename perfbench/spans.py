"""Spans around porpay's public entry points, recorded from outside the package.

A ``Tracer`` rebinds each target function wherever porpay looks it up (a
module attribute, a name imported into another module, or a method on its
class) with a wrapper that records one span per call: name, parent span,
start and end in nanoseconds, session id, billing cycle j, the number of
``hashing.digest`` calls made inside it, and a few outcome flags. Spans are
kept in compact arrays and written out once, at the end of a run.

``hashing.digest`` itself is never wrapped (an m = 2^20 session makes about
2M calls); hash work is read from ``hashing.count_hash_calls`` at the span
boundaries instead.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from porpay import hashing, ledger, merkle, por, protocol

# span flags
RAISED = 1  # the call raised (for crypto.dec_unit: the open failed)
RECHECK = 2  # por.verify with an explicit index list: the dispute re-check
ACCEPTED = 4  # por.verify returned an accepting verdict

SETTLE_NAMES = frozenset(
    {
        "protocol.Arbiter.resolve_server",
        "protocol.Arbiter.resolve_client",
        "protocol.Arbiter.post_counters",
        "protocol.contract_resolve",
        "protocol.payout_arbiter_variant",
        "protocol.payout_arbiterless_variant",
    }
)
RESOLVE_NAMES = SETTLE_NAMES - {
    "protocol.payout_arbiter_variant",
    "protocol.payout_arbiterless_variant",
}


def _enter_cycle(tracer: "Tracer", args: tuple) -> None:
    tracer.j = args[1]  # Client.post_query(self, j, ledger) opens cycle j


def _enter_settlement(tracer: "Tracer", args: tuple) -> None:
    tracer.j = 0


def _keep_contract(tracer: "Tracer", args: tuple, result) -> int:
    tracer.contract = result.contract  # Client.init returns the Handoff
    return 0


def _verify_flags(tracer: "Tracer", args: tuple, result) -> int:
    query = args[1]
    recheck = 0 if isinstance(query, (bytes, bytearray)) else RECHECK
    return recheck | (ACCEPTED if result.accepted else 0)


def _count_post_bytes(tracer: "Tracer", args: tuple, result) -> int:
    msg = args[2]  # Ledger.post(self, contract, msg)
    kind = msg.kind.value
    tracer.post_bytes[kind] = tracer.post_bytes.get(kind, 0) + len(msg.payload)
    return 0


# (owner, attribute, span name, enter hook, leave hook). A function imported
# by name into several modules is listed once per importing module.
PHASE_TARGETS = (
    (protocol.Client, "init", "protocol.Client.init", None, _keep_contract),
    (protocol.Server, "init", "protocol.Server.init", None, None),
    (protocol.Client, "post_query", "protocol.Client.post_query", _enter_cycle, None),
    (protocol.Client, "verify_cycle", "protocol.Client.verify_cycle", None, None),
    (protocol.Arbiter, "resolve_server", "protocol.Arbiter.resolve_server", _enter_settlement, None),
    (protocol.Arbiter, "resolve_client", "protocol.Arbiter.resolve_client", _enter_settlement, None),
    (protocol.Arbiter, "post_counters", "protocol.Arbiter.post_counters", _enter_settlement, None),
    (protocol, "contract_resolve", "protocol.contract_resolve", _enter_settlement, None),
    (protocol, "payout_arbiter_variant", "protocol.payout_arbiter_variant", _enter_settlement, None),
    (protocol, "payout_arbiterless_variant", "protocol.payout_arbiterless_variant", _enter_settlement, None),
    # the dispute re-check: q_g derivation plus the single-entry verify
    (protocol, "prf", "crypto.prf", None, None),
    (por, "verify", "por.verify", None, _verify_flags),
)

LAYER_TARGETS = (
    (protocol.Server, "prove_cycle", "protocol.Server.prove_cycle", None, None),
    (protocol, "encode_proof_vector", "protocol.encode_proof_vector", None, None),
    (protocol, "dummy_proof_vector", "protocol.dummy_proof_vector", None, None),
    (protocol, "decode_proof_vector", "protocol.decode_proof_vector", None, None),
    (por, "setup", "por.setup", None, None),
    (por, "prove", "por.prove", None, None),
    (por, "prf", "crypto.prf", None, None),
    (merkle, "gen_tree", "merkle.gen_tree", None, None),
    (merkle, "prove", "merkle.prove", None, None),
    (merkle, "verify", "merkle.verify", None, None),
    (protocol, "enc_unit", "crypto.enc_unit", None, None),
    (protocol, "dec_unit", "crypto.dec_unit", None, None),
    (protocol, "sample_unit", "crypto.sample_unit", None, None),
    (protocol, "sap_init", "sap.sap_init", None, None),
    (protocol, "sap_agree", "sap.sap_agree", None, None),
    (protocol, "sap_verify", "sap.sap_verify", None, None),
    (ledger.Ledger, "post", "ledger.Ledger.post", None, _count_post_bytes),
    (ledger.Ledger, "execute_payout", "ledger.Ledger.execute_payout", None, None),
)

FULL_TARGETS = PHASE_TARGETS + LAYER_TARGETS

SPAN_NAMES = ("scenario.run",) + tuple(dict.fromkeys(t[2] for t in FULL_TARGETS))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span store plus the wrappers that fill it; one per tracing mode."""

    COLUMNS = (
        ("name", "B"),
        ("parent", "i"),
        ("start", "q"),
        ("end", "q"),
        ("hashes", "q"),
        ("session", "H"),
        ("cycle", "H"),
        ("flags", "B"),
    )

    def __init__(self, targets) -> None:
        self.targets = targets
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        for column, code in self.COLUMNS:
            setattr(self, column, array(code))
        self.sessions: list[tuple[int, int]] = []  # [lo, hi) span index ranges
        self._stack: list[int] = []
        self._hash_count = None
        self.session_id = 0
        self.j = 0
        self.contract = None
        self.post_bytes: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.hashes.append(self._hash_count())
        self.session.append(self.session_id)
        self.cycle.append(self.j)
        self.flags.append(RAISED)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, flags: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        self.hashes[idx] = self._hash_count() - self.hashes[idx]
        self.flags[idx] = flags

    def _wrap(self, fn, name: str, enter, leave):
        name_id = self.ids[name]
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(self, args)
            idx = open_span(name_id)
            flags = RAISED
            try:
                result = fn(*args, **kwargs)
                flags = 0 if leave is None else leave(self, args, result)
                return result
            finally:
                close_span(idx, flags)

        return traced

    @contextmanager
    def session_span(self, session_id: int):
        """Install the wrappers for one ``scenario.run`` call and span it."""
        self.session_id, self.j = session_id, 0
        self.contract, self.post_bytes = None, {}
        saved = []
        for owner, attr, name, enter, leave in self.targets:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, enter, leave))
        lo = len(self)
        try:
            with hashing.count_hash_calls() as hash_count:
                self._hash_count = hash_count
                idx = self._open(self.ids["scenario.run"])
                flags = RAISED
                try:
                    yield
                    flags = 0
                finally:
                    self._close(idx, flags)
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._hash_count = None
            self.sessions.append((lo, len(self)))

    def write(self, path: Path, meta: dict) -> None:
        """Write every span: a JSON header line, then the raw columns in order."""
        header = dict(
            meta,
            span_names=list(SPAN_NAMES),
            columns=[[c, code, getattr(self, c).itemsize] for c, code in self.COLUMNS],
            spans=len(self),
            sessions=self.sessions,
            byteorder=sys.byteorder,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column, _ in self.COLUMNS:
                getattr(self, column).tofile(fh)
