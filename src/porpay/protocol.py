"""Recurring retrievability-audit payments between a client and a server.

One session runs eight phases over the ledger clock:

1. key generation: fresh proof-encryption key and the pad budget;
2. client-side initiation: encode the file, agree on the two private
   statements, deploy the escrow contract, deposit masked coins at T0;
3. server-side initiation: re-check everything and deposit at T1, or walk
   away and trigger the T2 refund path;
4. query: the client posts an encrypted challenge key at each G(j,1);
5. prove: the server answers at G(j,2) with an encrypted padded proof
   vector, or a complaint plus an identically shaped dummy. Each of the phi
   entries is sealed as one cipher unit whose value is the path's values
   back to back (block, sibling block, sibling digests, leaf index) and
   whose zero fill is the pad, 16 bytes per slot up to pi_max, so the
   vector is phi equal units whatever the tree height;
6. verify: the client checks each cycle locally and records complaints;
7. dispute resolution at K1..K6 over both parties' complaint posts;
8. coin transfer at L (or the refund at T2).

Both dispute variants are provided: a third-party arbiter that tallies four
counters (faults plus unnecessary invocations, the latter paying the
arbiter's fee), and an arbiter-free variant where the contract itself
resolves disputes, keeps only the two fault counters, and folds dispute
compensation into the payout formulas. A party's dispute query is the same
complaint post in both: its qp opening, then fixed-width complaint items.
The arbiter is handed it, the contract reads it off the ledger, and both
read it with one parse. Both resolve it with one core, whose passes rule
on each item; only ``charges``, the payment rule, reads the variant.

Each role takes a script of the misbehaviours the dispute machinery exists
to punish, drawn from ``CLIENT_KINDS`` and ``SERVER_KINDS``; the empty
script gives the honest protocol.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import dataclass, field
from typing import Iterator

from . import merkle, por
from .crypto import (
    LAMBDA_BITS,
    MAX_VALUE_LEN,
    PSI_BITS,
    SYM_KEY_LEN,
    DecryptFailure,
    Opening,
    UnitFormat,
    dec_unit,
    enc_unit,
    gen_sym_key,
    prf,
    sample_unit,
)
from .hashing import HASH_LEN
from .ledger import (
    Address,
    ContractParams,
    Counters,
    DuplicateSlot,
    Ledger,
    LedgerMessage,
    MsgKind,
    RcContract,
    require_time,
)
from .sap import sap_agree, sap_init, sap_verify


class PriceNotInList(ValueError):
    """Chosen (o, l) pair is not in the public price list."""


class RefundPath(RuntimeError):
    """Normal payout requested although the T2 refund conditions hold."""


class BadOpening(RuntimeError):
    """Payout requested with a statement opening the ledger rejects."""


class PayNotRequested(RuntimeError):
    """Payout or refund attempted with no PAY post at the current time."""


# ---------------------------------------------------------------------------
# prices and agreed statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PricePair:
    o: int  # coins per accepted verification
    l: int  # coins per resolved dispute

    def __post_init__(self) -> None:
        if self.o < 0 or self.l < 0:
            raise ValueError("prices must be non-negative integers")


@dataclass(frozen=True)
class PriceList:
    pairs: tuple[PricePair, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("price list must not be empty")

    @property
    def o_max(self) -> int:
        return max(p.o for p in self.pairs)

    @property
    def l_max(self) -> int:
        return max(p.l for p in self.pairs)

    def __contains__(self, pair: object) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class QpStatement:
    """Query/proof secret parameters: pad count, proof key, public params,
    and the block payload length that fixes the cipher-unit geometry.

    It is also the one shape of its session's proof vectors, derived on
    first use: ``pp.phi`` entries, each one ``entry_unit`` whose value is the
    path's values back to back at the ``lens`` lengths (block, sibling block,
    one digest per upper tree level, leaf index) and whose zero fill, 16
    bytes per pad slot up to pi_max, is the pad. Real, dummy and sampled
    vectors thus have one length whatever the tree height.

    Its bytes are one fixed layout: the pad count, ``k_bar``, sigma, then
    phi, m, the PRF triple (psi, eta, iota) and the payload length, each
    integer 8 bytes big-endian.
    """

    pad_pi: int
    k_bar: bytes
    pp: por.PublicParams
    block_payload_len: int = por.DEFAULT_BLOCK_PAYLOAD_LEN

    _LAYOUT = struct.Struct(f">Q{SYM_KEY_LEN}s{HASH_LEN}s6Q")

    @property
    def block_len(self) -> int:
        """Length of each encoded block: the payload, then its index."""
        return self.block_payload_len + por.INDEX_LEN

    @functools.cached_property
    def lens(self) -> tuple[int, ...]:
        real = entry_real_units(self.pp.m)
        return (self.block_len, self.block_len, *[HASH_LEN] * (real - 3), por.INDEX_LEN)

    @functools.cached_property
    def query_unit(self) -> UnitFormat:
        """A challenge key's unit keeps the capacity of a block, at least a key."""
        return UnitFormat(max(self.block_len, PSI_BITS // 8))

    @functools.cached_property
    def entry_unit(self) -> UnitFormat:
        # a pad slot stands in for the digest of one more tree level
        return UnitFormat(sum(self.lens) + HASH_LEN * self.pad_pi)

    @functools.cached_property
    def split(self):
        """Cut an entry's value at the ``lens`` boundaries in one call;
        ``struct.error`` for a value of any other length."""
        return struct.Struct("".join([f"{n}s" for n in self.lens])).unpack

    def to_bytes(self) -> bytes:
        pp = self.pp
        if len(self.k_bar) != SYM_KEY_LEN or len(pp.sigma) != HASH_LEN:
            raise ValueError("proof key or root of the wrong length")
        return self._LAYOUT.pack(
            self.pad_pi, self.k_bar, pp.sigma, pp.phi, pp.m,
            *por.PRF_TRIPLE, self.block_payload_len,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "QpStatement":
        """Read an agreed statement. Raises ValueError for any the session
        cannot run: not ``bytes``, another length, phi outside [1, m], a PRF
        triple other than ``por.PRF_TRIPLE``, a block payload outside
        [1, MAX_BLOCK_PAYLOAD_LEN], or entries past MAX_ENTRY_SLOTS."""
        pad, k_bar, sigma, phi, m, *prf, payload = _unpack(cls._LAYOUT, data, "qp")
        pp = por.PublicParams(sigma, phi, m)
        if tuple(prf) != por.PRF_TRIPLE:
            raise ValueError(f"unsupported PRF triple {tuple(prf)}")
        if not 1 <= payload <= MAX_BLOCK_PAYLOAD_LEN:
            raise ValueError(f"block payload {payload} outside [1, MAX_BLOCK_PAYLOAD_LEN]")
        if entry_real_units(m) + pad > MAX_ENTRY_SLOTS:
            raise ValueError(f"pad count {pad} takes entries past MAX_ENTRY_SLOTS")
        return cls(pad, k_bar, pp, payload)


def _unpack(layout: struct.Struct, data: bytes, name: str) -> tuple:
    """The fields of a statement's bytes; ValueError for anything that is not
    ``bytes`` of the ``name`` layout."""
    if not isinstance(data, bytes):
        raise ValueError(f"{name} statement is not bytes")
    try:
        return layout.unpack(data)
    except struct.error as exc:
        raise ValueError(f"statement does not have the {name} layout") from exc


@dataclass(frozen=True)
class CpStatement:
    """Coin secret parameters: the private price pair, list maxima, and z,
    laid out as five 8-byte big-endian integers in that order."""

    o: int
    o_max: int
    l: int
    l_max: int
    z: int

    _LAYOUT = struct.Struct(">5Q")

    def __post_init__(self) -> None:
        if self.o > self.o_max or self.l > self.l_max:
            raise ValueError("chosen prices exceed the list maxima")

    @property
    def client_deposit(self) -> int:
        """The client's masked deposit: it covers every price in the list,
        so it reveals neither o nor l."""
        return self.z * (self.o_max + self.l_max)

    @property
    def server_deposit(self) -> int:
        """The server's masked deposit, l_max per cycle."""
        return self.z * self.l_max

    def to_bytes(self) -> bytes:
        return self._LAYOUT.pack(self.o, self.o_max, self.l, self.l_max, self.z)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CpStatement":
        return cls(*_unpack(cls._LAYOUT, data, "cp"))


def _read(opening: object, kind: type) -> QpStatement | CpStatement | None:
    """The one reader of an agreed statement: ``kind.from_bytes`` of the
    opening's statement, or None for anything it refuses or that has none."""
    try:
        return kind.from_bytes(opening.statement)
    except (AttributeError, ValueError):
        return None


def _agreed(
    opening: object, kind: type, sid: int | None, contract: RcContract, ledger: Ledger
) -> QpStatement | CpStatement | None:
    """The statement ``_read`` reads off ``opening``, or None unless it also
    opens both commitments of the contract's agreement ``sid``."""
    statement = _read(opening, kind)
    p = contract.params
    if statement is None or not sap_verify(opening, p.addr_client, p.addr_server, sid, ledger):
        return None
    return statement


# ---------------------------------------------------------------------------
# session geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    z: int
    phi: int
    price_list: PriceList
    price_choice: PricePair
    block_payload_len: int
    pi_max: int | None  # per-entry slot budget; None means no padding
    parity: bool  # pre-encode the file with por.xor_parity

    def __post_init__(self) -> None:
        if self.z < 1 or self.phi < 1 or self.block_payload_len < 1:
            raise ValueError("z, phi and block_payload_len must be positive")
        if self.block_payload_len > MAX_BLOCK_PAYLOAD_LEN:
            raise ValueError(
                f"block_payload_len {self.block_payload_len} above "
                f"{MAX_BLOCK_PAYLOAD_LEN}: its largest entry would not fit one unit"
            )
        if self.pi_max is not None and self.pi_max > MAX_ENTRY_SLOTS:
            raise ValueError(
                f"pi_max={self.pi_max} above the largest entry size {MAX_ENTRY_SLOTS}"
            )
        if self.price_choice not in self.price_list:
            raise PriceNotInList(f"{self.price_choice} not offered")

    @property
    def cp(self) -> CpStatement:
        """The client's coin statement: its price choice, the list maxima, z."""
        choice, prices = self.price_choice, self.price_list
        return CpStatement(choice.o, prices.o_max, choice.l, prices.l_max, self.z)


def entry_real_units(m: int) -> int:
    """Value slots per proof entry: block, sibling block, one digest per
    upper level, and the leaf index."""
    height = merkle.padded_leaf_count(m).bit_length() - 1
    return height + 2


# The 4-byte leaf index caps m at 2**32, so no entry needs more slots than
# this; a larger pad budget would only make the server seal and post more.
MAX_ENTRY_SLOTS = entry_real_units(1 << 8 * por.INDEX_LEN)


# An entry is sealed as one unit, whose length prefix states at most
# MAX_VALUE_LEN bytes: the largest entry, two blocks, the index and
# MAX_ENTRY_SLOTS - 3 digests or pads, must fit it.
MAX_BLOCK_PAYLOAD_LEN = (
    MAX_VALUE_LEN - 3 * por.INDEX_LEN - HASH_LEN * (MAX_ENTRY_SLOTS - 3)
) // 2


def key_gen(rng: random.Random, pi_max: int, pi_act: int) -> tuple[bytes, int]:
    """Fresh proof-encryption key and the per-entry pad count pi_max - pi_act."""
    if pi_max < pi_act:
        raise ValueError(
            f"configured maximum entry size {pi_max} is below the actual {pi_act}"
        )
    return gen_sym_key(rng), pi_max - pi_act


# ---------------------------------------------------------------------------
# proof vector wire format
# ---------------------------------------------------------------------------


def encode_proof_vector(
    pi: por.ProofVector, qp: QpStatement, rng: random.Random
) -> bytes:
    """Seal every proof entry, its values back to back, as one
    ``qp.entry_unit`` under ``qp.k_bar``.

    Raises ValueError for a path whose value lengths are not ``qp.lens``.
    """
    k_bar, entry, lens = qp.k_bar, qp.entry_unit, [*qp.lens]
    units = []
    for leaf_block, sibling_block, sibling_digests, leaf_index in pi:
        # a list, not a tuple: CPython keeps no free list for tuples past 20
        # items, and at m = 2^20 a new tuple per entry left freed memory pinned
        values = [
            leaf_block,
            sibling_block,
            *sibling_digests,
            leaf_index.to_bytes(por.INDEX_LEN, "big"),
        ]
        if list(map(len, values)) != lens:
            raise ValueError("proof entry path does not match the proof format")
        units.append(enc_unit(k_bar, b"".join(values), entry, rng))
    return b"".join(units)


def dummy_proof_vector(qp: QpStatement, rng: random.Random) -> bytes:
    """All-sampled vector with exactly the shape of a real one."""
    return b"".join([sample_unit(qp.entry_unit, rng) for _ in range(qp.pp.phi)])


def _entry_unit_len(payload: bytes, qp: QpStatement) -> int:
    """The vector-shape rule: the entry unit length, if ``payload`` is
    ``qp.pp.phi`` entry units; DecryptFailure otherwise."""
    n = qp.entry_unit.unit_len
    if len(payload) != qp.pp.phi * n:
        raise DecryptFailure("proof vector length differs from the proof format")
    return n


def _parse_entry(unit: bytes, qp: QpStatement) -> merkle.MerklePath:
    """Open one entry unit; DecryptFailure when it fails to open or its value
    is not the ``qp.lens`` values back to back."""
    value = dec_unit(qp.k_bar, unit, qp.entry_unit)
    try:
        fields = qp.split(value)
    except struct.error as exc:
        raise DecryptFailure("entry value length differs from the proof format") from exc
    return merkle.MerklePath(
        fields[0], fields[1], fields[2:-1], int.from_bytes(fields[-1], "big")
    )


def open_entry(payload: bytes, g: int, qp: QpStatement) -> merkle.MerklePath:
    """Open the 1-based ``g``-th entry of a proof vector, the dispute
    re-check's one entry.

    Raises DecryptFailure, before any unit is opened, when the vector is not
    ``qp.pp.phi`` entry units; and when the unit fails to open, or its value
    is not the ``qp.lens`` values back to back.
    """
    n = _entry_unit_len(payload, qp)
    return _parse_entry(payload[(g - 1) * n : g * n], qp)


def decode_proof_vector(
    payload: bytes, qp: QpStatement
) -> tuple[por.ProofVector | None, int | None]:
    """Open every entry, checking the vector's shape once first.

    Returns (entries, None) on success or (None, g) where g is the first
    entry that failed to open or whose value length is not the format's;
    a mis-shaped vector fails at entry 1, with no unit opened.
    """
    try:
        n = _entry_unit_len(payload, qp)
    except DecryptFailure:
        return None, 1
    entries = []
    for g, at in enumerate(range(0, len(payload), n), 1):
        try:
            entries.append(_parse_entry(payload[at : at + n], qp))
        except DecryptFailure:
            return None, g
    return tuple(entries), None


# ---------------------------------------------------------------------------
# misbehaviour scripts (fault injection)
# ---------------------------------------------------------------------------


# The misbehaviour catalogue: each kind a party's script can name, mapped
# to whether it targets one cycle. A script is a set of (kind, j) pairs,
# j None for a session-wide kind.
CLIENT_KINDS = {"ill_formed_metadata": False, "invalid_query": True,
                "false_accusation": True, "withhold_query": True}
SERVER_KINDS = {"corrupt_block": True, "withhold_proof": True,
                "false_query_complaint": True, "short_deposit": False}
Script = frozenset[tuple[str, int | None]]


@dataclass(frozen=True)
class Handoff:
    """Out-of-band package the client hands the server after initiation:
    the encoded file's block buffer, whose block length the agreed qp
    statement fixes, the two openings and the deployed contract."""

    blocks: bytes
    opening_qp: Opening
    opening_cp: Opening
    contract: RcContract


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------


class _Party:
    """Settlement posts a client and a server make alike: the complaint post
    of its ``COMPLAINTS`` kind, and the pay request."""

    COMPLAINTS: MsgKind

    def post_complaints(self, ledger: Ledger) -> None:
        """Arbiter-free phase 7: the complaint post, at K1 from the server
        and at K4 from the client."""
        ledger.post(
            self.contract,
            LedgerMessage(self.addr, self.COMPLAINTS, self.complaint_post()),
        )

    def request_payout(self, ledger: Ledger) -> None:
        ledger.post(self.contract, LedgerMessage(self.addr, MsgKind.PAY, b"pay"))


class Client(_Party):
    """The data owner. It reads its own posted query as the server and the
    resolvers do (``_query_key``), and files a complaint for every cycle it
    rejects, one its own invalid query provoked included: the server's
    complaint has already put that cycle in v, so resolution filters it."""

    COMPLAINTS = MsgKind.CLIENT_COMPLAINTS

    def __init__(
        self,
        addr: Address,
        rng: random.Random,
        config: SessionConfig,
        script: Script = frozenset(),
    ):
        self.addr = addr
        self.rng = rng
        self.config = config
        self.script = script
        self.qp: QpStatement | None = None
        self.contract: RcContract | None = None
        self.opening_qp: Opening | None = None
        self.opening_cp: Opening | None = None
        self.complaints: list[tuple[int, int]] = []

    def init(
        self,
        file: bytes,
        ledger: Ledger,
        addr_server: Address,
        addr_arbiter: Address | None = None,
    ) -> Handoff:
        """Phase 2: encode, agree on qp and cp, deploy, and deposit at T0.
        An ``addr_arbiter`` makes the contract of the arbiter variant;
        without one the contract resolves its own disputes."""
        cfg = self.config
        blocks, pp = por.setup(file, cfg.block_payload_len, cfg.phi, cfg.parity)
        if ("ill_formed_metadata", None) in self.script:
            # advertise a root other than the file's: every bit flipped
            pp = por.PublicParams(bytes(b ^ 0xFF for b in pp.sigma), pp.phi, pp.m)

        pi_act = entry_real_units(pp.m)
        pi_max = cfg.pi_max if cfg.pi_max is not None else pi_act
        k_bar, pad_pi = key_gen(self.rng, pi_max, pi_act)

        qp = self.qp = QpStatement(pad_pi, k_bar, pp, cfg.block_payload_len)
        cp = cfg.cp
        self.opening_qp, sid_qp = sap_init(
            ledger, self.addr, addr_server, qp.to_bytes(), self.rng
        )
        self.opening_cp, sid_cp = sap_init(
            ledger, self.addr, addr_server, cp.to_bytes(), self.rng
        )

        params = ContractParams(
            z=cfg.z,
            client_deposit_required=cp.client_deposit,
            server_deposit_required=cp.server_deposit,
            addr_client=self.addr,
            addr_server=addr_server,
            addr_arbiter=addr_arbiter,
            sap_qp=sid_qp,
            sap_cp=sid_cp,
        )
        self.contract = ledger.deploy_contract(self.addr, params)
        ledger.deposit(self.addr, self.contract, cp.client_deposit)
        return Handoff(
            blocks=blocks,
            opening_qp=self.opening_qp,
            opening_cp=self.opening_cp,
            contract=self.contract,
        )

    def post_query(self, j: int, ledger: Ledger) -> bytes | None:
        """Phase 4 at G(j,1): encrypt a fresh challenge key into slot j."""
        if ("withhold_query", j) in self.script:
            return None
        if ("invalid_query", j) in self.script:
            k_hat = self.rng.randbytes(8)  # truncated key, outside the key universe
        else:
            k_hat = por.gen_query(self.rng)
        unit = enc_unit(self.qp.k_bar, k_hat, self.qp.query_unit, self.rng)
        ledger.post(
            self.contract, LedgerMessage(self.addr, MsgKind.QUERY, unit, slot=j)
        )
        return unit

    def verify_cycle(
        self, j: int, ledger: Ledger
    ) -> tuple[por.Verdict | None, tuple[int, int] | None]:
        """Phase 6: unpad, decrypt, verify; a rejection yields complaint [j, g],
        and so does an accepted cycle the script falsely accuses. A withheld
        query gives (None, None); one ``_query_key`` refuses, or a missing
        proof, fails the cycle at entry 1 with no entry opened."""
        if j not in self.contract.queries:  # withheld
            return None, None
        qp = self.qp
        k_hat = _query_key(self.contract, j, qp)
        payload = self.contract.proofs.get(j)
        if k_hat is None or payload is None:
            verdict = por.Verdict(1)
        else:
            entries, failed_at = decode_proof_vector(payload, qp)
            if entries is None:
                verdict = por.Verdict(failed_at)
            else:
                verdict = por.verify(entries, k_hat, qp.pp)

        if not verdict.accepted:
            complaint = (j, verdict.failing_index)
        elif ("false_accusation", j) in self.script:
            complaint = (j, 1)
        else:
            return verdict, None
        self.complaints.append(complaint)
        return verdict, complaint

    def complaint_post(self) -> bytes:
        """The dispute query: the qp opening, then each complaint's j and g."""
        return pack_complaints(self.opening_qp, [n for c in self.complaints for n in c])


class Server(_Party):
    COMPLAINTS = MsgKind.SERVER_COMPLAINTS

    def __init__(
        self,
        addr: Address,
        rng: random.Random,
        price_list: PriceList,
        script: Script = frozenset(),
    ):
        self.addr = addr
        self.rng = rng
        self.price_list = price_list
        self.script = script
        self.contract: RcContract | None = None
        self.tree: merkle.MerkleTree | None = None
        self.qp: QpStatement | None = None
        self.complaints: list[int] = []
        self.opening_qp: Opening | None = None

    def init(self, handoff: Handoff, ledger: Ledger) -> int:
        """Phase 3: re-check statements, deposits, and metadata; answer at T1.

        An opening ``_read`` refuses (the qp rules live in ``from_bytes``),
        mismatched counts or prices, wrong deposits, a block buffer that is
        not m whole blocks in one ``bytes``, an advertised root other than
        the buffer's, or a failed agreement all end in a = 0 and no deposit,
        which later triggers the T2 refund path. Both agreements run whatever
        the checks say, so the ledger trace does not tell which one failed.
        """
        contract = handoff.contract
        params = contract.params
        self.contract = contract
        self.opening_qp = handoff.opening_qp

        # the openings are the client's choice, as the session ids below are
        qp = _read(handoff.opening_qp, QpStatement)
        cp = _read(handoff.opening_cp, CpStatement)
        checks_ok = (
            qp is not None
            and cp is not None
            and params.z == cp.z
            and contract.client_deposited >= params.client_deposit_required
            and params.client_deposit_required == cp.client_deposit
            and params.server_deposit_required == cp.server_deposit
            and PricePair(cp.o, cp.l) in self.price_list
            and cp.o_max == self.price_list.o_max
            and cp.l_max == self.price_list.l_max
            and contract.counters == Counters()
            # exactly m whole blocks of the agreed length in one bytes
            # buffer, so the tree rebuild below cannot raise
            and isinstance(handoff.blocks, bytes)
            and len(handoff.blocks) == qp.pp.m * qp.block_len
        )

        # a missing or foreign session id is no agreement; a list, not
        # ``and``, so both agreements run, whatever the first one's outcome
        agreed = all([
            sap_agree(ledger, handoff.opening_qp, params.addr_client, params.sap_qp, self.addr),
            sap_agree(ledger, handoff.opening_cp, params.addr_client, params.sap_cp, self.addr),
        ])

        a = 0
        if checks_ok and agreed:
            tree, root = merkle.gen_tree(handoff.blocks, qp.block_len)
            if root == qp.pp.sigma:
                a = 1
                self.tree = tree
                self.qp = qp

        ledger.post(
            contract, LedgerMessage(self.addr, MsgKind.SERVER_RESPONSE, bytes([a]))
        )
        if a == 1:
            amount = params.server_deposit_required
            if ("short_deposit", None) in self.script:
                amount = max(0, amount - 1)
            ledger.deposit(self.addr, contract, amount)
        return a

    def prove_cycle(self, j: int, ledger: Ledger) -> int:
        """Phase 5 at G(j,2): decrypt the query, answer or complain, post;
        returns b, 1 for a proof and 0 for a complaint about the query.

        Valid and invalid cycles post vectors of identical shape, so the
        proof status stays hidden until resolution time.
        """
        qp = self.qp
        k_hat = _query_key(self.contract, j, qp)
        b = 0 if k_hat is None or ("false_query_complaint", j) in self.script else 1

        if b == 1:
            pi = por.prove(self.tree, k_hat, qp.pp)
            if ("corrupt_block", j) in self.script:
                pi = _corrupt_first_entry(pi)
            payload = encode_proof_vector(pi, qp, self.rng)
        else:
            self.complaints.append(j)
            payload = dummy_proof_vector(qp, self.rng)
        if ("withhold_proof", j) not in self.script:
            ledger.post(
                self.contract, LedgerMessage(self.addr, MsgKind.PROOF, payload, slot=j)
            )
        return b

    def complaint_post(self) -> bytes:
        """The dispute query: the qp opening, then each complaint's cycle."""
        return pack_complaints(self.opening_qp, self.complaints)


def _corrupt_first_entry(pi: por.ProofVector) -> por.ProofVector:
    """Flip one payload byte of the first challenged block."""
    path = pi[0]
    bad = bytearray(path.leaf_block)
    bad[0] ^= 0x01
    return (path._replace(leaf_block=bytes(bad)),) + pi[1:]


# ---------------------------------------------------------------------------
# dispute resolution
# ---------------------------------------------------------------------------

Y_CLIENT = "client_faults"
Y_SERVER = "server_faults"
Y_CLIENT_UNNEEDED = "client_unneeded_disputes"
Y_SERVER_UNNEEDED = "server_unneeded_disputes"

# the ruling on each complaint item a pass reads
FILTERED, BAD_QUERY, BAD_PROOF, NOBODY = "filtered", "bad_query", "bad_proof", "nobody"
Ruling = tuple[int, int | None, str]  # (j, g or None for a server item, outcome)


def charges(rulings: list[Ruling], arbiterless: bool) -> list[tuple[int, str]]:
    """The payment rule, and the one place the variants differ: each
    ruling's charge as (j, counter), in order. A bad query charges the
    client a fault. A bad proof charges the server one, except on a cycle
    whose valid query the server already paid for as an unneeded dispute:
    its dummy proof is not charged again. Nobody at fault charges its
    poster an unneeded dispute, and only with an arbiter."""
    out: list[tuple[int, str]] = []
    for j, g, outcome in rulings:
        if outcome == BAD_QUERY:
            out.append((j, Y_CLIENT))
        elif outcome == BAD_PROOF and (j, Y_SERVER_UNNEEDED) not in out:
            out.append((j, Y_SERVER))
        elif outcome == NOBODY and not arbiterless:
            out.append((j, Y_SERVER_UNNEEDED if g is None else Y_CLIENT_UNNEEDED))
    return out


@dataclass
class ResolutionReport:
    """Resolution's ruling on each complaint item it read, in posted order,
    under its variant. The rest is read off the rulings: ``v``, the cycles
    whose query a server complaint showed bad; ``increments``, the sum of
    the ``charges``; ``attribution``, the counter charged last per cycle.
    With an arbiter a cycle can be charged twice, by a server complaint
    about a valid query and a client complaint that identifies nobody, and
    ``attribution`` keeps only the client's charge."""

    arbiterless: bool
    rulings: list[Ruling] = field(default_factory=list)

    @property
    def v(self) -> list[int]:
        return [j for j, g, outcome in self.rulings if g is None and outcome == BAD_QUERY]

    @property
    def increments(self) -> Counters:
        ones = [Counters(**{c: 1}) for _, c in charges(self.rulings, self.arbiterless)]
        return sum(ones, Counters())

    @property
    def attribution(self) -> dict[int, str]:
        return dict(charges(self.rulings, self.arbiterless))

    def as_dict(self) -> dict:
        def items(server: bool, admitted: bool) -> list:
            return [
                j if server else [j, g]
                for j, g, outcome in self.rulings
                if (g is None) == server and (outcome != FILTERED) == admitted
            ]

        return {
            "server_admitted": items(True, True),
            "server_filtered": items(True, False),
            "client_admitted": items(False, True),
            "client_filtered": items(False, False),
            "v": self.v,
            "attribution": {str(j): c for j, c in sorted(self.attribution.items())},
        }


# A complaint post is one party's dispute query, the same bytes in both
# variants: the contract reads it off the ledger at K1/K4, and the arbiter is
# handed it. It is the qp opening (statement, then commitment randomness),
# then each complaint as 4-byte big-endian fields: cycle j for a server item,
# j then entry g for a client item. Four bytes, the width of the leaf index,
# hold any entry of a file that index can address and any cycle a schedule
# of 2z + 11 time points can reach.
_QP_LEN = QpStatement._LAYOUT.size
_HEAD_LEN = _QP_LEN + LAMBDA_BITS // 8
_FIELD_LEN = 4


def pack_complaints(opening: Opening, fields: list[int]) -> bytes:
    """A complaint post: ``opening``, then the items' ``fields`` in order."""
    items = struct.pack(f">{len(fields)}I", *fields)
    return opening.statement + opening.randomness + items


def unpack_complaints(post: bytes, width: int) -> tuple[list[int], Opening | None]:
    """The fields and the opening of a post whose items are ``width``
    fields each. A post that is not ``bytes``, is shorter than the opening,
    or ends partway through an item unpacks to no fields and no opening, so
    resolution filters it whole."""
    if not isinstance(post, bytes):
        return [], None
    size = len(post) - _HEAD_LEN
    if size < 0 or size % (width * _FIELD_LEN):
        return [], None
    fields = [*struct.unpack(f">{size // _FIELD_LEN}I", post[_HEAD_LEN:])]
    return fields, Opening(post[:_QP_LEN], post[_QP_LEN:_HEAD_LEN])


def _rule(items, admissible, judge) -> Iterator[Ruling]:
    """One ruling per complaint item (j, g), in posted order: ``judge``'s
    outcome for the first admissible item of each cycle j, FILTERED for
    every other."""
    seen: set[int] = set()
    for j, g in items:
        if admissible(j, g) and j not in seen:
            seen.add(j)
            yield j, g, judge(j, g)
        else:
            yield j, g, FILTERED


def _query_key(contract: RcContract, j: int, qp: QpStatement) -> bytes | None:
    """The one reader of a posted query, for the client, the server and the
    re-check: the challenge key, or None when none is posted for cycle ``j``
    or it is not a 16-byte key in a unit that opens."""
    unit = contract.queries.get(j)
    if unit is None:
        return None
    try:
        k_hat = dec_unit(qp.k_bar, unit, qp.query_unit)
    except DecryptFailure:
        return None
    return k_hat if len(k_hat) == PSI_BITS // 8 else None


def _judge_client_complaint(
    contract: RcContract, j: int, g: int, qp: QpStatement
) -> str:
    """Rule on complaint [j, g]: BAD_QUERY, BAD_PROOF (missing, mis-shaped,
    or entry g fails), or NOBODY when the single re-checked entry verifies.
    """
    k_hat = _query_key(contract, j, qp)
    if k_hat is None:
        return BAD_QUERY
    q_g = (int.from_bytes(prf(k_hat, g), "big") % qp.pp.m) + 1
    try:
        # a missing proof is read as an empty, so mis-shaped, vector
        entry = open_entry(contract.proofs.get(j, b""), g, qp)
    except DecryptFailure:
        return BAD_PROOF
    verdict = por.verify((entry,), [q_g], qp.pp)
    return NOBODY if verdict.accepted else BAD_PROOF


def _server_pass(
    rep: ResolutionReport, post: bytes | None, ledger: Ledger, contract: RcContract
) -> None:
    """Server complaints: a cycle whose posted query ``_query_key`` refuses
    is a bad query, and lands in v; any other, nobody's fault."""
    cycles, opening = unpack_complaints(post, 1)
    qp = _agreed(opening, QpStatement, contract.params.sap_qp, contract, ledger)
    z = contract.params.z
    rep.rulings += _rule(
        [(j, None) for j in cycles],
        lambda j, g: qp is not None and 1 <= j <= z,
        lambda j, g: BAD_QUERY if _query_key(contract, j, qp) is None else NOBODY,
    )


def _client_pass(
    rep: ResolutionReport, post: bytes | None, ledger: Ledger, contract: RcContract
) -> None:
    """Client complaints, minus those the filters drop (cycles in v among
    them), each ruled on by re-checking the one entry it names."""
    fields, opening = unpack_complaints(post, 2)
    qp = _agreed(opening, QpStatement, contract.params.sap_qp, contract, ledger)
    z, v = contract.params.z, set(rep.v)
    rep.rulings += _rule(
        zip(fields[0::2], fields[1::2]),
        lambda j, g: qp is not None and 1 <= j <= z and 1 <= g <= qp.pp.phi and j not in v,
        lambda j, g: _judge_client_complaint(contract, j, g, qp),
    )


class Arbiter:
    """Third-party resolver: is handed each party's complaint post
    off-ledger at K1/K4, rules on it at K2/K5, and posts the charges of its
    rulings, unneeded disputes among them, at K6. Each pass runs once: a
    second run would rule on the same complaints again."""

    def __init__(self, addr: Address):
        self.addr = addr
        self.report = ResolutionReport(arbiterless=False)
        self._passes_run: set[str] = set()

    def _run_once(self, name: str) -> None:
        if name in self._passes_run:
            raise DuplicateSlot(f"arbiter {name} pass already run")
        self._passes_run.add(name)

    def resolve_server(
        self, post: bytes, ledger: Ledger, contract: RcContract
    ) -> list[int]:
        """Phase 7 server pass at K2 over the server's complaint post;
        returns v."""
        require_time(ledger.time, "K2")
        self._run_once("server")
        _server_pass(self.report, post, ledger, contract)
        return self.report.v

    def resolve_client(self, post: bytes, ledger: Ledger, contract: RcContract) -> None:
        """Phase 7 client pass at K5 over the client's complaint post."""
        require_time(ledger.time, "K5")
        self._run_once("client")
        _client_pass(self.report, post, ledger, contract)

    def post_counters(self, ledger: Ledger, contract: RcContract) -> None:
        ledger.post(
            contract,
            LedgerMessage(
                self.addr, MsgKind.COUNTERS, self.report.increments.pack()
            ),
        )


# -- arbiter-free: the contract resolves its own disputes -------------------


def contract_resolve(ledger: Ledger, contract: RcContract) -> ResolutionReport:
    """Contract-run dispute resolution for the arbiter-free variant.

    Runs the two passes over the complaint payloads posted at K1/K4 and adds
    the charges of their rulings, faults only, to the contract in one step.
    The contract resolves once: a second call raises DuplicateSlot.
    """
    if not contract.params.arbiterless:
        raise ValueError("contract_resolve only runs in the arbiter-free variant")
    require_time(ledger.time, "K5")
    rep = ResolutionReport(arbiterless=True)
    # a party that posted nothing is read as a post that is not bytes: no items
    posts = contract.complaint_posts
    _server_pass(rep, posts.get(MsgKind.SERVER_COMPLAINTS.value), ledger, contract)
    _client_pass(rep, posts.get(MsgKind.CLIENT_COMPLAINTS.value), ledger, contract)
    # without an arbiter at most one counter moves per cycle, so the sum
    # stays within bounds
    contract.add_counters(rep.increments)
    return rep


# ---------------------------------------------------------------------------
# coin transfer
# ---------------------------------------------------------------------------


def refund_applies(contract: RcContract) -> bool:
    """The T2 withdrawal conditions: the server declined, under-deposited,
    or never answered."""
    return (
        contract.a_flag != 1
        or contract.server_deposited < contract.params.server_deposit_required
    )


def payout(
    ledger: Ledger, contract: RcContract, opening_cp: Opening | None
) -> dict[str, int]:
    """Phase 8, one payout for both time points and both variants.

    At T2, when ``refund_applies``, each party withdraws exactly what it
    deposited; ``opening_cp`` is not read. At L the client pays o per cycle
    not attributed to the server, and each party is charged l per own fault
    or unneeded dispute: with an arbiter every charged l goes to the arbiter,
    without one (``params.arbiterless``) each party's l goes to the other.
    Either way the whole escrow is distributed exactly, once a party has
    posted PAY at that point.
    """
    params = contract.params
    if ledger.time.label == "T2":
        if not refund_applies(contract):
            raise ValueError("parties reached agreement; the refund path does not apply")
        dist = [
            (params.addr_client, contract.client_deposited),
            (params.addr_server, contract.server_deposited),
        ]
    else:
        require_time(ledger.time, "L")
        if refund_applies(contract):
            raise RefundPath("server never agreed or under-deposited")
        cp = _agreed(opening_cp, CpStatement, params.sap_cp, contract, ledger)
        if cp is None:
            raise BadOpening("coin statement opening rejected")
        c = contract.counters
        paid = cp.o * (cp.z - c.server_faults)
        client_l = cp.l * (c.client_faults + c.client_unneeded_disputes)
        server_l = cp.l * (c.server_faults + c.server_unneeded_disputes)
        coin_client = contract.client_deposited - paid - client_l
        coin_server = contract.server_deposited + paid - server_l
        if params.arbiterless:
            dist = [
                (params.addr_client, coin_client + server_l),
                (params.addr_server, coin_server + client_l),
            ]
        else:
            dist = [
                (params.addr_client, coin_client),
                (params.addr_server, coin_server),
                (params.addr_arbiter, client_l + server_l),
            ]
    if ledger.time.label not in contract.pay_requests:
        raise PayNotRequested(f"no pay request posted at {ledger.time.label}")
    return ledger.execute_payout(contract, dist)


# one payout under each variant's name, the names perfbench/spans.py times
# settlement by; scenario.run calls the one that matches its variant
payout_arbiter_variant = payout_arbiterless_variant = payout
