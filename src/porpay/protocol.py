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
   entries is sealed as one cipher unit holding pi_max fixed-size slots
   (block, sibling block, sibling digests, leaf index, then zero pads), so
   the vector is phi equal units whatever the tree height;
6. verify: the client checks each cycle locally and records complaints;
7. dispute resolution at K1..K6 over both complaint lists;
8. coin transfer at L (or the refund at T2).

Both dispute variants are provided: a third-party arbiter that tallies four
counters (faults plus unnecessary invocations, the latter paying the
arbiter's fee), and an arbiter-free variant where the contract itself
resolves disputes, keeps only the two fault counters, and folds dispute
compensation into the payout formulas.

The roles accept fault-injection switches covering the misbehaviours the
dispute machinery exists to punish; an unset behaviour object gives the
honest protocol.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from . import merkle, por
from .crypto import (
    MAX_VALUE_LEN,
    PSI_BITS,
    DecryptFailure,
    Opening,
    UnitFormat,
    dec_unit,
    enc_unit,
    gen_sym_key,
    pack_slots,
    prf,
    sample_unit,
    unpack_slots,
)
from .ledger import (
    Address,
    ContractParams,
    Counters,
    DuplicateSlot,
    Ledger,
    LedgerMessage,
    MissingQuery,
    MsgKind,
    OutOfWindow,
    RcContract,
    Schedule,
)
from .sap import sap_agree, sap_init, sap_verify

ARBITER = "arbiter"
ARBITERLESS = "arbiterless"

_SAP_QP = 0  # index of the query-parameter session in the contract's sap_refs
_SAP_CP = 1


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


def _u64(value: int) -> bytes:
    return value.to_bytes(8, "big")


def _fields_to_bytes(fields: Sequence[tuple[int, bytes]]) -> bytes:
    """Canonical statement encoding: ordered (tag, length, value) triples."""
    out = []
    for tag, value in fields:
        out.append(bytes([tag]) + len(value).to_bytes(4, "big") + value)
    return b"".join(out)


def _fields_from_bytes(data: bytes) -> dict[int, bytes]:
    fields: dict[int, bytes] = {}
    pos = 0
    while pos < len(data):
        if pos + 5 > len(data):
            raise ValueError("truncated statement field header")
        tag = data[pos]
        length = int.from_bytes(data[pos + 1 : pos + 5], "big")
        pos += 5
        if pos + length > len(data) or tag in fields:
            raise ValueError("malformed statement encoding")
        fields[tag] = data[pos : pos + length]
        pos += length
    return fields


@dataclass(frozen=True)
class QpStatement:
    """Query/proof secret parameters: pad count, proof key, public params,
    and the block payload length that fixes the cipher-unit geometry."""

    pad_pi: int
    k_bar: bytes
    pp: por.PublicParams
    block_payload_len: int = por.DEFAULT_BLOCK_PAYLOAD_LEN

    _PAD, _KEY, _SIGMA, _PHI, _M, _ZETA, _PAYLOAD_LEN = 1, 2, 3, 4, 5, 6, 7

    def to_bytes(self) -> bytes:
        zeta = self.pp.zeta
        return _fields_to_bytes(
            [
                (self._PAD, _u64(self.pad_pi)),
                (self._KEY, self.k_bar),
                (self._SIGMA, self.pp.sigma),
                (self._PHI, _u64(self.pp.phi)),
                (self._M, _u64(self.pp.m)),
                (self._ZETA, _u64(zeta.psi) + _u64(zeta.eta) + _u64(zeta.iota)),
                (self._PAYLOAD_LEN, _u64(self.block_payload_len)),
            ]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "QpStatement":
        f = _fields_from_bytes(data)
        try:
            zeta_raw = f[cls._ZETA]
            zeta = por.PrfSpec(
                int.from_bytes(zeta_raw[0:8], "big"),
                int.from_bytes(zeta_raw[8:16], "big"),
                int.from_bytes(zeta_raw[16:24], "big"),
            )
            return cls(
                pad_pi=int.from_bytes(f[cls._PAD], "big"),
                k_bar=f[cls._KEY],
                pp=por.PublicParams(
                    sigma=f[cls._SIGMA],
                    phi=int.from_bytes(f[cls._PHI], "big"),
                    m=int.from_bytes(f[cls._M], "big"),
                    zeta=zeta,
                ),
                block_payload_len=int.from_bytes(f[cls._PAYLOAD_LEN], "big"),
            )
        except KeyError as exc:
            raise ValueError("statement is missing a required field") from exc


@dataclass(frozen=True)
class CpStatement:
    """Coin secret parameters: the private price pair, list maxima, and z."""

    o: int
    o_max: int
    l: int
    l_max: int
    z: int

    _O, _O_MAX, _L, _L_MAX, _Z = 1, 2, 3, 4, 5

    def __post_init__(self) -> None:
        if self.o > self.o_max or self.l > self.l_max:
            raise ValueError("chosen prices exceed the list maxima")

    def to_bytes(self) -> bytes:
        return _fields_to_bytes(
            [
                (self._O, _u64(self.o)),
                (self._O_MAX, _u64(self.o_max)),
                (self._L, _u64(self.l)),
                (self._L_MAX, _u64(self.l_max)),
                (self._Z, _u64(self.z)),
            ]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CpStatement":
        f = _fields_from_bytes(data)
        try:
            return cls(
                *(
                    int.from_bytes(f[tag], "big")
                    for tag in (cls._O, cls._O_MAX, cls._L, cls._L_MAX, cls._Z)
                )
            )
        except KeyError as exc:
            raise ValueError("statement is missing a required field") from exc


# ---------------------------------------------------------------------------
# session geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    z: int
    phi: int
    price_list: PriceList
    price_choice: PricePair
    block_payload_len: int = por.DEFAULT_BLOCK_PAYLOAD_LEN
    pi_max: int | None = None  # per-entry slot budget; None means no padding
    variant: str = ARBITER
    codec_name: str = "identity"

    def __post_init__(self) -> None:
        if self.z < 1 or self.phi < 1 or self.block_payload_len < 1:
            raise ValueError("z, phi and block_payload_len must be positive")
        if self.variant not in (ARBITER, ARBITERLESS):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.codec_name not in por.CODECS:
            raise ValueError(f"unknown codec {self.codec_name!r}")


def make_codec(name: str, block_payload_len: int) -> por.Codec:
    if name == "xor-parity":
        return por.XorParityCodec(chunk_len=block_payload_len)
    return por.CODECS[name]()


def entry_real_units(m: int) -> int:
    """Value slots per proof entry: block, sibling block, one digest per
    upper level, and the leaf index."""
    height = merkle.padded_leaf_count(m).bit_length() - 1
    return height + 2


# The 4-byte leaf index caps m at 2**32, so no entry needs more slots than
# this; a larger pad budget would only make the server seal and post more.
MAX_ENTRY_SLOTS = entry_real_units(1 << 8 * por.INDEX_LEN)


def unit_format(block_payload_len: int) -> UnitFormat:
    """One slot size fits every value a session sends: blocks, digests,
    leaf indices, and challenge keys."""
    return UnitFormat(max(block_payload_len + por.INDEX_LEN, PSI_BITS // 8))


class EntryLayout(NamedTuple):
    """How one proof entry's slots are sealed: ``units`` cipher units of
    geometry ``fmt``, each holding an equal share of the slots, the last
    one zero-filled. One unit, unless the slots exceed the largest value a
    unit can carry (kilobyte blocks in a deep tree)."""

    units: int
    fmt: UnitFormat

    @property
    def plain_len(self) -> int:
        return self.units * self.fmt.value_capacity

    @property
    def wire_len(self) -> int:
        return self.units * self.fmt.unit_len


def entry_layout(fmt: UnitFormat, slots: int) -> EntryLayout:
    """Seal geometry for entries of ``slots`` slots of ``fmt.payload_len``."""
    units = -(-slots // (MAX_VALUE_LEN // fmt.payload_len))
    return EntryLayout(units, UnitFormat(-(-slots // units) * fmt.payload_len))


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


def _entry_values(entry: por.ProofEntry) -> tuple[bytes, ...]:
    path = entry.path
    return (
        entry.block,
        path.sibling_block,
        *path.sibling_digests,
        path.leaf_index.to_bytes(por.INDEX_LEN, "big"),
    )


def encode_proof_vector(
    pi: por.ProofVector,
    k_bar: bytes,
    fmt: UnitFormat,
    pad_pi: int,
    rng: random.Random,
) -> bytes:
    """Seal every proof entry, padded with pad_pi zero slots, as one cipher
    unit (several only past the limit EntryLayout describes)."""
    values = [_entry_values(entry) for entry in pi]
    # all paths of one tree have the same length, so the first entry fixes
    # the layout and the zero tail that pads every entry's slots
    real = len(values[0])
    layout = entry_layout(fmt, real + pad_pi)
    ufmt = layout.fmt
    step = ufmt.value_capacity
    tail = bytes(layout.plain_len - real * fmt.payload_len)
    units = []
    for entry_values in values:
        if len(entry_values) != real:
            raise ValueError("proof entries differ in path length")
        packed = pack_slots(entry_values, fmt) + tail
        units += [
            enc_unit(k_bar, packed[i : i + step], ufmt, rng)
            for i in range(0, layout.plain_len, step)
        ]
    return b"".join(units)


def dummy_proof_vector(
    phi: int, real_units: int, pad_pi: int, fmt: UnitFormat, rng: random.Random
) -> bytes:
    """All-sampled vector with exactly the shape of a real one."""
    layout = entry_layout(fmt, real_units + pad_pi)
    return b"".join([sample_unit(layout.fmt, rng) for _ in range(phi * layout.units)])


class SealedEntry(NamedTuple):
    """One entry's sealed bytes with the geometry needed to open them."""

    data: bytes
    real_units: int
    layout: EntryLayout


def _decode_entry(
    sealed: SealedEntry, k_bar: bytes, fmt: UnitFormat
) -> por.ProofEntry:
    data, real_units, layout = sealed
    ufmt = layout.fmt
    n = ufmt.unit_len
    packed = b"".join(
        [dec_unit(k_bar, data[i : i + n], ufmt) for i in range(0, len(data), n)]
    )
    if len(packed) != layout.plain_len:
        raise DecryptFailure("entry units do not fill their slots")
    values = unpack_slots(packed, real_units, fmt)
    raw_index = values[-1]
    if len(raw_index) != por.INDEX_LEN:
        raise DecryptFailure("malformed leaf index slot")
    block = values[0]
    path = merkle.MerklePath(
        leaf_block=block,
        sibling_block=values[1],
        sibling_digests=tuple(values[2:-1]),
        leaf_index=int.from_bytes(raw_index, "big"),
    )
    return por.ProofEntry(block, path)


def _entry_units(
    payload: bytes, index: int, real_units: int, pad_pi: int, fmt: UnitFormat
) -> SealedEntry:
    """The sealed 1-based ``index``-th entry, ready for _decode_entry."""
    layout = entry_layout(fmt, real_units + pad_pi)
    start = (index - 1) * layout.wire_len
    data = payload[start : start + layout.wire_len]
    if len(data) != layout.wire_len:
        raise DecryptFailure("proof vector too short for requested entry")
    return SealedEntry(data, real_units, layout)


def decode_proof_vector(
    payload: bytes,
    k_bar: bytes,
    phi: int,
    real_units: int,
    pad_pi: int,
    fmt: UnitFormat,
) -> tuple[por.ProofVector | None, int | None]:
    """Open every entry.

    Returns (entries, None) on success or (None, g) where g is the first
    entry that failed to open or carried a malformed slot; a mis-shaped
    vector fails at entry 1.
    """
    layout = entry_layout(fmt, real_units + pad_pi)
    n = layout.wire_len
    if len(payload) != phi * n:
        return None, 1
    entries = []
    for g in range(phi):
        try:
            sealed = SealedEntry(payload[g * n : (g + 1) * n], real_units, layout)
            entries.append(_decode_entry(sealed, k_bar, fmt))
        except DecryptFailure:
            return None, g + 1
    return tuple(entries), None


# ---------------------------------------------------------------------------
# behaviours (fault injection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientBehavior:
    ill_formed_metadata: bool = False
    invalid_query: frozenset[int] = frozenset()
    false_accusation: frozenset[int] = frozenset()
    withhold_query: frozenset[int] = frozenset()
    # policy switch, not a misbehaviour: skip complaints for cycles whose
    # dummy proof the client itself provoked with an invalid query
    suppress_dummy_complaints: bool = False


@dataclass(frozen=True)
class ServerBehavior:
    corrupt_block: frozenset[int] = frozenset()
    withhold_proof: frozenset[int] = frozenset()
    false_query_complaint: frozenset[int] = frozenset()
    short_deposit: bool = False


@dataclass(frozen=True)
class Handoff:
    """Out-of-band package the client hands the server after initiation."""

    encoded_file: por.EncodedFile
    z: int
    opening_qp: Opening
    opening_cp: Opening
    contract: RcContract


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------


class Client:
    def __init__(
        self,
        addr: Address,
        rng: random.Random,
        config: SessionConfig,
        behavior: ClientBehavior | None = None,
    ):
        self.addr = addr
        self.rng = rng
        self.config = config
        self.behavior = behavior or ClientBehavior()
        self.fmt = unit_format(config.block_payload_len)
        self.k_bar: bytes | None = None
        self.pad_pi = 0
        self.pp: por.PublicParams | None = None
        self.contract: RcContract | None = None
        self.opening_qp: Opening | None = None
        self.opening_cp: Opening | None = None
        self.complaints: list[tuple[int, int]] = []
        self._withheld: set[int] = set()

    def init(
        self,
        file: bytes,
        ledger: Ledger,
        addr_server: Address,
        addr_arbiter: Address | None = None,
    ) -> Handoff:
        """Phase 2: encode, agree on qp and cp, deploy, and deposit at T0."""
        cfg = self.config
        if cfg.price_choice not in cfg.price_list:
            raise PriceNotInList(f"{cfg.price_choice} not offered")

        codec = make_codec(cfg.codec_name, cfg.block_payload_len)
        encoded, pp = por.setup(file, cfg.block_payload_len, cfg.phi, codec)
        if self.behavior.ill_formed_metadata:
            # advertise the root of a different file
            twisted = bytearray(encoded.blocks)
            twisted[0] ^= 0xFF
            _, bogus_root = merkle.gen_tree(twisted, encoded.block_len)
            pp = por.PublicParams(bogus_root, pp.phi, pp.m, pp.zeta)
        self.pp = pp

        pi_act = entry_real_units(pp.m)
        pi_max = cfg.pi_max if cfg.pi_max is not None else pi_act
        self.k_bar, self.pad_pi = key_gen(self.rng, pi_max, pi_act)

        qp = QpStatement(self.pad_pi, self.k_bar, pp, cfg.block_payload_len)
        cp = CpStatement(
            o=cfg.price_choice.o,
            o_max=cfg.price_list.o_max,
            l=cfg.price_choice.l,
            l_max=cfg.price_list.l_max,
            z=cfg.z,
        )
        masked_client = cfg.z * (cfg.price_list.o_max + cfg.price_list.l_max)
        masked_server = cfg.z * cfg.price_list.l_max

        r_qp, _, sid_qp = sap_init(
            ledger, self.addr, addr_server, qp.to_bytes(), self.rng
        )
        r_cp, _, sid_cp = sap_init(
            ledger, self.addr, addr_server, cp.to_bytes(), self.rng
        )
        self.opening_qp = Opening(qp.to_bytes(), r_qp)
        self.opening_cp = Opening(cp.to_bytes(), r_cp)

        params = ContractParams(
            z=cfg.z,
            client_deposit_required=masked_client,
            server_deposit_required=masked_server,
            addr_client=self.addr,
            addr_server=addr_server,
            schedule=Schedule.standard(cfg.z),
            arbiterless=cfg.variant == ARBITERLESS,
            addr_arbiter=addr_arbiter,
            sap_refs=(sid_qp, sid_cp),
        )
        self.contract = ledger.deploy_contract(self.addr, params)
        ledger.deposit(self.addr, self.contract, masked_client)
        return Handoff(
            encoded_file=encoded,
            z=cfg.z,
            opening_qp=self.opening_qp,
            opening_cp=self.opening_cp,
            contract=self.contract,
        )

    def post_query(self, j: int, ledger: Ledger) -> bytes | None:
        """Phase 4 at G(j,1): encrypt a fresh challenge key into slot j."""
        if j in self.behavior.withhold_query:
            self._withheld.add(j)
            return None
        if j in self.behavior.invalid_query:
            k_hat = self.rng.randbytes(8)  # truncated key, outside the key universe
        else:
            k_hat = por.gen_query(self.rng)
        unit = enc_unit(self.k_bar, k_hat, self.fmt, self.rng)
        ledger.post(
            self.contract, LedgerMessage(self.addr, MsgKind.QUERY, unit, slot=j)
        )
        return unit

    def verify_cycle(
        self, j: int, ledger: Ledger
    ) -> tuple[por.Verdict | None, tuple[int, int] | None]:
        """Phase 6: unpad, decrypt, verify; a rejection yields complaint [j, g]."""
        if j in self._withheld:
            return None, None
        k_hat = dec_unit(self.k_bar, self.contract.query(j), self.fmt)
        payload = self.contract.proofs.get(j)
        real = entry_real_units(self.pp.m)
        if payload is None:
            verdict = por.Verdict(False, 1)
        else:
            entries, failed_at = decode_proof_vector(
                payload, self.k_bar, self.pp.phi, real, self.pad_pi, self.fmt
            )
            if entries is None:
                verdict = por.Verdict(False, failed_at)
            else:
                verdict = por.verify(entries, k_hat, self.pp)

        complaint = None
        if not verdict.accepted:
            own_fault = j in self.behavior.invalid_query
            if not (self.behavior.suppress_dummy_complaints and own_fault):
                complaint = (j, verdict.failing_index)
        elif j in self.behavior.false_accusation:
            complaint = (j, 1)
        if complaint is not None:
            self.complaints.append(complaint)
        return verdict, complaint

    def request_payout(self, ledger: Ledger) -> None:
        ledger.post(self.contract, LedgerMessage(self.addr, MsgKind.PAY, b"pay"))

    def post_complaints(self, ledger: Ledger) -> None:
        """Arbiter-free phase 7 at K4: the complaints plus the qp opening."""
        payload = pack_complaints(self.complaints, self.opening_qp)
        ledger.post(
            self.contract, LedgerMessage(self.addr, MsgKind.CLIENT_COMPLAINTS, payload)
        )


class Server:
    def __init__(
        self,
        addr: Address,
        rng: random.Random,
        price_list: PriceList,
        behavior: ServerBehavior | None = None,
    ):
        self.addr = addr
        self.rng = rng
        self.price_list = price_list
        self.behavior = behavior or ServerBehavior()
        self.contract: RcContract | None = None
        self.encoded: por.EncodedFile | None = None
        self.tree: merkle.MerkleTree | None = None
        self.qp: QpStatement | None = None
        self.fmt: UnitFormat | None = None
        self.complaints: list[int] = []
        self.opening_qp: Opening | None = None

    def init(self, handoff: Handoff, ledger: Ledger) -> int:
        """Phase 3: re-check statements, deposits, and metadata; answer at T1.

        An ill-formed advertised root, a PRF triple other than the
        supported ``PrfSpec()``, mismatched counts, wrong deposits, a pad
        count that takes entries past MAX_ENTRY_SLOTS, or a failed
        agreement all end in a = 0 and no deposit, which later
        triggers the T2 refund path.
        """
        contract = handoff.contract
        params = contract.params
        self.contract = contract
        self.opening_qp = handoff.opening_qp

        try:
            qp = QpStatement.from_bytes(handoff.opening_qp.statement)
            cp = CpStatement.from_bytes(handoff.opening_cp.statement)
        except ValueError:
            qp = cp = None

        checks_ok = qp is not None and cp is not None
        if checks_ok:
            checks_ok = (
                params.z == handoff.z == cp.z
                and contract.client_deposited >= params.client_deposit_required
                and params.client_deposit_required == cp.z * (cp.o_max + cp.l_max)
                and params.server_deposit_required == cp.z * cp.l_max
                and PricePair(cp.o, cp.l) in self.price_list
                and cp.o_max == self.price_list.o_max
                and cp.l_max == self.price_list.l_max
                and contract.counters == Counters()
                and qp.pp.zeta == por.PrfSpec()
                and qp.block_payload_len == handoff.encoded_file.block_payload_len
                and entry_real_units(qp.pp.m) + qp.pad_pi <= MAX_ENTRY_SLOTS
            )

        agreed = True
        for sid, opening in (
            (params.sap_refs[_SAP_QP], handoff.opening_qp),
            (params.sap_refs[_SAP_CP], handoff.opening_cp),
        ):
            session = ledger.session(sid)
            _, b = sap_agree(
                ledger,
                opening.statement,
                opening.randomness,
                session.g_client,
                params.addr_client,
                sid,
                self.addr,
            )
            agreed = agreed and b

        a = 0
        encoded = handoff.encoded_file
        # exactly m whole blocks, so the rebuild below cannot raise
        if checks_ok and agreed and len(encoded.blocks) == qp.pp.m * encoded.block_len:
            tree, root = merkle.gen_tree(encoded.blocks, encoded.block_len)
            if root == qp.pp.sigma and qp.pp.phi <= qp.pp.m:
                a = 1
                self.encoded = encoded
                self.tree = tree
                self.qp = qp
                self.fmt = unit_format(qp.block_payload_len)

        ledger.post(
            contract, LedgerMessage(self.addr, MsgKind.SERVER_RESPONSE, bytes([a]))
        )
        if a == 1:
            amount = params.server_deposit_required
            if self.behavior.short_deposit:
                amount = max(0, amount - 1)
            ledger.deposit(self.addr, contract, amount)
        return a

    def prove_cycle(self, j: int, ledger: Ledger) -> tuple[int, int | None]:
        """Phase 5 at G(j,2): decrypt the query, answer or complain, post.

        Valid and invalid cycles post vectors of identical shape, so the
        proof status stays hidden until resolution time.
        """
        qp = self.qp
        try:
            k_hat = dec_unit(qp.k_bar, self.contract.query(j), self.fmt)
            b = 1 if len(k_hat) == PSI_BITS // 8 else 0
        except (MissingQuery, DecryptFailure):
            b = 0
        if j in self.behavior.false_query_complaint:
            b = 0

        real = entry_real_units(qp.pp.m)
        complaint: int | None = None
        if b == 1:
            pi = por.prove(self.encoded, k_hat, qp.pp, tree=self.tree)
            if j in self.behavior.corrupt_block:
                pi = _corrupt_first_entry(pi)
            payload = encode_proof_vector(pi, qp.k_bar, self.fmt, qp.pad_pi, self.rng)
        else:
            complaint = j
            self.complaints.append(j)
            payload = dummy_proof_vector(qp.pp.phi, real, qp.pad_pi, self.fmt, self.rng)
        if j not in self.behavior.withhold_proof:
            ledger.post(
                self.contract, LedgerMessage(self.addr, MsgKind.PROOF, payload, slot=j)
            )
        return b, complaint

    def request_payout(self, ledger: Ledger) -> None:
        ledger.post(self.contract, LedgerMessage(self.addr, MsgKind.PAY, b"pay"))

    def post_complaints(self, ledger: Ledger) -> None:
        """Arbiter-free phase 7 at K1: the complaints plus the qp opening."""
        payload = pack_complaints(self.complaints, self.opening_qp)
        ledger.post(
            self.contract, LedgerMessage(self.addr, MsgKind.SERVER_COMPLAINTS, payload)
        )


def _corrupt_first_entry(pi: por.ProofVector) -> por.ProofVector:
    """Flip one payload byte of the first challenged block, path included."""
    entry = pi[0]
    bad = bytearray(entry.block)
    bad[0] ^= 0x01
    bad_block = bytes(bad)
    path = entry.path._replace(leaf_block=bad_block)
    return (por.ProofEntry(bad_block, path),) + pi[1:]


# ---------------------------------------------------------------------------
# dispute resolution
# ---------------------------------------------------------------------------

Y_CLIENT = "client_faults"
Y_SERVER = "server_faults"
Y_CLIENT_UNNEEDED = "client_unneeded_disputes"
Y_SERVER_UNNEEDED = "server_unneeded_disputes"


@dataclass
class CounterUpdate:
    """Counter increments plus the per-cycle record of which counter was
    touched; the record keeps a cycle from being charged twice."""

    increments: Counters = field(default_factory=Counters)
    attribution: dict[int, str] = field(default_factory=dict)

    def bump(self, j: int, counter: str) -> None:
        setattr(self.increments, counter, getattr(self.increments, counter) + 1)
        self.attribution[j] = counter


@dataclass
class ResolutionReport:
    server_admitted: list[int] = field(default_factory=list)
    server_filtered: list[int] = field(default_factory=list)
    client_admitted: list[tuple[int, int]] = field(default_factory=list)
    client_filtered: list[tuple[int, int]] = field(default_factory=list)
    v: list[int] = field(default_factory=list)
    update: CounterUpdate = field(default_factory=CounterUpdate)

    def as_dict(self) -> dict:
        return {
            "server_admitted": list(self.server_admitted),
            "server_filtered": list(self.server_filtered),
            "client_admitted": [list(c) for c in self.client_admitted],
            "client_filtered": [list(c) for c in self.client_filtered],
            "v": list(self.v),
            "attribution": {str(j): c for j, c in sorted(self.update.attribution.items())},
        }


def _require_time(ledger: Ledger, label: str) -> None:
    if ledger.time.label != label:
        raise OutOfWindow(f"expected time {label}, ledger is at {ledger.time.label}")


def _opening_valid(
    opening: Opening, contract: RcContract, ledger: Ledger, ref: int
) -> bool:
    sid = contract.params.sap_refs[ref]
    session = ledger.session(sid)
    if session.g_client is None or session.g_server is None:
        return False
    return sap_verify(
        opening,
        session.g_client,
        session.g_server,
        contract.params.addr_client,
        contract.params.addr_server,
        sid,
        ledger,
    )


def _agreed_qp(
    opening: Opening | None, contract: RcContract, ledger: Ledger
) -> QpStatement | None:
    """The query/proof statement an opening reveals, or None unless it
    parses and opens both recorded commitments."""
    if opening is None:
        return None
    try:
        qp = QpStatement.from_bytes(opening.statement)
    except ValueError:
        return None
    return qp if _opening_valid(opening, contract, ledger, _SAP_QP) else None


# what int() and indexing raise on an item of the wrong type or shape
_UNREADABLE = (TypeError, ValueError, LookupError, OverflowError)


def _read_items(raw: Sequence, read) -> list:
    """Apply ``read`` to every complaint item. An item it cannot read names
    no cycle, so it is filtered without being listed."""
    items = []
    for item in raw:
        try:
            items.append(read(item))
        except _UNREADABLE:
            pass
    return items


def _read_client_item(item) -> tuple[int, int]:
    return int(item[0]), int(item[1])


def _filter_server_complaints(
    raw: Sequence[int], z: int
) -> tuple[list[int], list[int]]:
    kept: list[int] = []
    dropped: list[int] = []
    seen: set[int] = set()
    for i in _read_items(raw, int):
        if 1 <= i <= z and i not in seen:
            seen.add(i)
            kept.append(i)
        else:
            dropped.append(i)
    return kept, dropped


def _filter_client_complaints(
    raw: Sequence[Sequence[int]], z: int, phi: int, v: Sequence[int]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    kept: list[tuple[int, int]] = []
    dropped: list[tuple[int, int]] = []
    seen: set[int] = set()
    invalid_query_cycles = set(v)
    for j, g in _read_items(raw, _read_client_item):
        if 1 <= j <= z and 1 <= g <= phi and j not in seen and j not in invalid_query_cycles:
            seen.add(j)
            kept.append((j, g))
        else:
            dropped.append((j, g))
    return kept, dropped


def _query_key(
    contract: RcContract, j: int, qp: QpStatement, fmt: UnitFormat
) -> bytes | None:
    """Re-run the phase-5 query checks on the posted ciphertext: the
    challenge key, or None when the query is missing or invalid."""
    try:
        k_hat = dec_unit(qp.k_bar, contract.query(j), fmt)
    except (MissingQuery, DecryptFailure):
        return None
    return k_hat if len(k_hat) == PSI_BITS // 8 else None


def _judge_client_complaint(
    contract: RcContract, j: int, g: int, qp: QpStatement, fmt: UnitFormat
) -> str | None:
    """Identify the misbehaving party for complaint [j, g].

    Returns Y_CLIENT (bad query), Y_SERVER (bad proof), or None when the
    single re-checked proof verifies, i.e. the complaint identified nobody.
    """
    k_hat = _query_key(contract, j, qp, fmt)
    if k_hat is None:
        return Y_CLIENT
    q_g = (int.from_bytes(prf(k_hat, g), "big") % qp.pp.m) + 1
    payload = contract.proofs.get(j)
    if payload is None:
        return Y_SERVER
    try:
        units = _entry_units(payload, g, entry_real_units(qp.pp.m), qp.pad_pi, fmt)
        entry = _decode_entry(units, qp.k_bar, fmt)
    except DecryptFailure:
        return Y_SERVER
    verdict = por.verify((entry,), [q_g], qp.pp)
    return None if verdict.accepted else Y_SERVER


# The two passes serve both variants. The only difference: an unneeded
# invocation (a server complaint about a valid query, or a client complaint
# that identifies nobody) is tallied only when an arbiter charges for it.


def _server_pass(
    rep: ResolutionReport,
    complaints: Sequence,
    opening_qp: Opening | None,
    ledger: Ledger,
    contract: RcContract,
) -> None:
    """Server complaints: a bad query charges the client and lands in v."""
    qp = _agreed_qp(opening_qp, contract, ledger)
    if qp is None:
        rep.server_filtered.extend(_read_items(complaints, int))
        return
    fmt = unit_format(qp.block_payload_len)
    kept, dropped = _filter_server_complaints(complaints, contract.params.z)
    rep.server_admitted.extend(kept)
    rep.server_filtered.extend(dropped)
    for i in kept:
        if _query_key(contract, i, qp, fmt) is None:
            rep.update.bump(i, Y_CLIENT)
            rep.v.append(i)
        elif not contract.params.arbiterless:
            rep.update.bump(i, Y_SERVER_UNNEEDED)


def _client_pass(
    rep: ResolutionReport,
    complaints: Sequence,
    opening_qp: Opening | None,
    ledger: Ledger,
    contract: RcContract,
) -> None:
    """Client complaints, minus those the filters drop (cycles in v among
    them), each settled by re-checking the one entry it names."""
    qp = _agreed_qp(opening_qp, contract, ledger)
    if qp is None:
        rep.client_filtered.extend(_read_items(complaints, _read_client_item))
        return
    fmt = unit_format(qp.block_payload_len)
    kept, dropped = _filter_client_complaints(
        complaints, contract.params.z, qp.pp.phi, rep.v
    )
    rep.client_admitted.extend(kept)
    rep.client_filtered.extend(dropped)
    for j, g in kept:
        party = _judge_client_complaint(contract, j, g, qp, fmt)
        if party is None:
            if not contract.params.arbiterless:
                rep.update.bump(j, Y_CLIENT_UNNEEDED)
        elif party == Y_CLIENT or rep.update.attribution.get(j) != Y_SERVER_UNNEEDED:
            # a server that complained about this cycle's valid query has
            # already paid for it; its dummy proof is not charged again
            rep.update.bump(j, party)


class Arbiter:
    """Third-party resolver: takes complaints off-ledger at K1/K4, re-checks
    them at K2/K5, and posts the counter update at K6. Each pass runs once:
    a second run would charge the same complaints again."""

    def __init__(self, addr: Address):
        self.addr = addr
        self.report = ResolutionReport()
        self._passes_run: set[str] = set()

    def _run_once(self, name: str) -> None:
        if name in self._passes_run:
            raise DuplicateSlot(f"arbiter {name} pass already run")
        self._passes_run.add(name)

    def resolve_server(
        self,
        complaints: Sequence[int],
        opening_qp: Opening,
        ledger: Ledger,
        contract: RcContract,
    ) -> list[int]:
        """Phase 7 server pass at K2; returns v."""
        _require_time(ledger, "K2")
        self._run_once("server")
        _server_pass(self.report, complaints, opening_qp, ledger, contract)
        return self.report.v

    def resolve_client(
        self,
        complaints: Sequence[Sequence[int]],
        opening_qp: Opening,
        ledger: Ledger,
        contract: RcContract,
    ) -> None:
        """Phase 7 client pass at K5."""
        _require_time(ledger, "K5")
        self._run_once("client")
        _client_pass(self.report, complaints, opening_qp, ledger, contract)

    def post_counters(self, ledger: Ledger, contract: RcContract) -> None:
        _require_time(ledger, "K6")
        ledger.post(
            contract,
            LedgerMessage(
                self.addr, MsgKind.COUNTERS, self.report.update.increments.pack()
            ),
        )


# -- arbiter-free: the contract resolves its own disputes -------------------


def pack_complaints(complaints: Sequence, opening: Opening) -> bytes:
    """Wire form of a complaint post: the complaint list plus the opening."""
    body = {
        "complaints": [list(c) if isinstance(c, (list, tuple)) else c for c in complaints],
        "opening": {
            "statement": opening.statement.hex(),
            "randomness": opening.randomness.hex(),
        },
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def unpack_complaints(payload: bytes) -> tuple[list, Opening | None]:
    """Inverse of pack_complaints. Any other payload unpacks to no
    complaints and no opening, so resolution filters the post whole."""
    try:
        body = json.loads(payload.decode())
        complaints = body["complaints"]
        opening = Opening(
            bytes.fromhex(body["opening"]["statement"]),
            bytes.fromhex(body["opening"]["randomness"]),
        )
    except (TypeError, ValueError, LookupError, RecursionError):
        return [], None
    if not isinstance(complaints, list):
        return [], None
    return complaints, opening


def contract_resolve(ledger: Ledger, contract: RcContract) -> ResolutionReport:
    """Contract-run dispute resolution for the arbiter-free variant.

    Runs the two passes over the complaint payloads posted at K1/K4 and adds
    the resulting fault counts to the contract in one step. The contract
    resolves once: a second call raises DuplicateSlot.
    """
    if not contract.params.arbiterless:
        raise ValueError("contract_resolve only runs in the arbiter-free variant")
    _require_time(ledger, "K5")
    rep = ResolutionReport()
    for kind, resolve_pass in (
        (MsgKind.SERVER_COMPLAINTS, _server_pass),
        (MsgKind.CLIENT_COMPLAINTS, _client_pass),
    ):
        raw = contract.complaint_posts.get(kind.value)
        if raw is not None:
            complaints, opening = unpack_complaints(raw)
            resolve_pass(rep, complaints, opening, ledger, contract)
    # at most one counter moves per cycle, so the sum stays within bounds
    contract.add_counters(rep.update.increments)
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


def _require_pay(ledger: Ledger, contract: RcContract) -> None:
    if ledger.time.label not in contract.pay_requests:
        raise PayNotRequested(f"no pay request posted at {ledger.time.label}")


def refund_deposits(ledger: Ledger, contract: RcContract) -> dict[str, int]:
    """T2 path: each party withdraws exactly what it deposited."""
    _require_time(ledger, "T2")
    if not refund_applies(contract):
        raise ValueError("parties reached agreement; the refund path does not apply")
    _require_pay(ledger, contract)
    params = contract.params
    return ledger.execute_payout(
        contract,
        [
            (params.addr_client, contract.client_deposited),
            (params.addr_server, contract.server_deposited),
        ],
    )


def _payout(
    ledger: Ledger, contract: RcContract, opening_cp: Opening, arbiterless: bool
) -> dict[str, int]:
    """Phase 8 at L. The client pays o per cycle not attributed to the
    server; each party is charged l per own fault or unneeded dispute. With
    an arbiter every charged l goes to the arbiter; without one each party's
    l goes to the other. Distributes the whole escrow exactly."""
    _require_time(ledger, "L")
    params = contract.params
    if params.arbiterless != arbiterless:
        raise ValueError("payout entry point does not match the contract's variant")
    if refund_applies(contract):
        raise RefundPath("server never agreed or under-deposited")
    if not _opening_valid(opening_cp, contract, ledger, _SAP_CP):
        raise BadOpening("coin statement opening rejected")
    _require_pay(ledger, contract)
    cp = CpStatement.from_bytes(opening_cp.statement)
    c = contract.counters
    paid = cp.o * (cp.z - c.server_faults)
    client_l = cp.l * (c.client_faults + c.client_unneeded_disputes)
    server_l = cp.l * (c.server_faults + c.server_unneeded_disputes)
    coin_client = contract.client_deposited - paid - client_l
    coin_server = contract.server_deposited + paid - server_l
    if arbiterless:
        return ledger.execute_payout(
            contract,
            [
                (params.addr_client, coin_client + server_l),
                (params.addr_server, coin_server + client_l),
            ],
        )
    return ledger.execute_payout(
        contract,
        [
            (params.addr_client, coin_client),
            (params.addr_server, coin_server),
            (params.addr_arbiter, client_l + server_l),
        ],
    )


def payout_arbiter_variant(
    ledger: Ledger, contract: RcContract, opening_cp: Opening
) -> dict[str, int]:
    """Phase 8 with a third-party arbiter."""
    return _payout(ledger, contract, opening_cp, arbiterless=False)


def payout_arbiterless_variant(
    ledger: Ledger, contract: RcContract, opening_cp: Opening
) -> dict[str, int]:
    """Phase 8 without an arbiter."""
    return _payout(ledger, contract, opening_cp, arbiterless=True)
