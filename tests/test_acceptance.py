"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The large-file criteria (work ratio and timing) build one shared
session with 2**20 blocks; expect the module to take tens of seconds.
"""

import hashlib
import itertools
import random
import time
from types import SimpleNamespace

import pytest

from porpay import merkle, por, protocol, scenario
from porpay.crypto import enc_unit
from porpay.hashing import count_hash_calls
from porpay.ledger import Ledger, Schedule
from porpay.scenario import ScenarioSpec, run

PAYLOAD = 16


def _pass(line: str) -> None:
    print(f"PASS: {line}")


def catalogue_kinds(kinds: dict[str, bool], per_cycle: bool = True) -> tuple[str, ...]:
    """The per-cycle (or the session-wide) kinds of a party's catalogue,
    ``protocol.CLIENT_KINDS`` or ``SERVER_KINDS``, in its order."""
    return tuple(kind for kind, targets_cycle in kinds.items() if targets_cycle == per_cycle)


def base_raw(**overrides):
    raw = {
        "session": {
            "z": 3,
            "phi": 16,
            "block_payload_len": PAYLOAD,
            "price_list": [[5, 2]],
            "price_choice": [5, 2],
            "variant": "arbiter",
            "codec": "identity",
        },
        "file": {"size": 256 * PAYLOAD},  # m = 256
        "behaviors": {},
        "seed": 20240809,
    }
    raw.update(overrides)
    return raw


class TestHonestEndToEnd:
    def test_honest_run_exact_payouts(self):
        started = time.perf_counter()
        report = run(ScenarioSpec.from_dict(base_raw()))
        elapsed = time.perf_counter() - started

        assert report["a"] == 1
        assert all(cycle["b"] == 1 and cycle["d"][0] == 1 for cycle in report["cycles"])
        assert tuple(report["counters"].values()) == (0, 0, 0, 0)
        coin_c = report["deposits"]["client_actual"]
        coin_s = report["deposits"]["server_actual"]
        assert report["payout"]["actual"] == {
            "client": coin_c - 15,
            "server": coin_s + 15,
            "arbiter": 0,
        }
        assert report["conservation"]["exact"]
        assert report["valid"]
        assert elapsed < 1.0, f"honest run took {elapsed:.2f}s"
        _pass(
            "honest end-to-end (z=3, phi=16, m=256): counters zero, payouts "
            f"(-15, +15, 0), conservation exact, {elapsed * 1000:.0f} ms"
        )


class TestMaliciousServer:
    def test_corrupt_challenged_block(self):
        raw = base_raw(behaviors={"server": [{"kind": "corrupt_block", "j": 2}]})
        report = run(ScenarioSpec.from_dict(raw))

        resolution = report["disputes"]["resolution"]
        assert any(j == 2 for j, _ in resolution["client_admitted"])
        assert report["counters"]["server_faults"] == 1
        assert sum(report["counters"].values()) == 1
        coin_c = report["deposits"]["client_actual"]
        coin_s = report["deposits"]["server_actual"]
        z, o, l = 3, 5, 2
        assert report["payout"]["actual"] == {
            "client": coin_c - o * (z - 1),
            "server": coin_s + o * (z - 1) - l,
            "arbiter": l,
        }
        assert report["valid"]
        _pass(
            "malicious server (corrupt challenged block at j=2): complaint "
            "admitted, one server fault, arbiter paid exactly l"
        )


class TestMaliciousClient:
    def test_invalid_query_filtered_via_v(self):
        raw = base_raw(behaviors={"client": [{"kind": "invalid_query", "j": 1}]})
        report = run(ScenarioSpec.from_dict(raw))

        resolution = report["disputes"]["resolution"]
        assert report["disputes"]["server_complaints_filed"] == [1]
        assert resolution["v"] == [1]
        assert [1, 1] in resolution["client_filtered"]
        assert report["counters"]["client_faults"] == 1
        assert sum(report["counters"].values()) == 1
        coin_c = report["deposits"]["client_actual"]
        coin_s = report["deposits"]["server_actual"]
        z, o, l = 3, 5, 2
        assert report["payout"]["actual"] == {
            "client": coin_c - o * z - l,
            "server": coin_s + o * z,
            "arbiter": l,
        }
        assert report["valid"]
        _pass(
            "malicious client (a): invalid query at j=1 charged via the "
            "server complaint, the client's own complaint filtered via v"
        )

    def test_false_accusation_both_variants(self):
        raw = base_raw(behaviors={"client": [{"kind": "false_accusation", "j": 3}]})
        arbiter_report = run(ScenarioSpec.from_dict(raw))
        assert arbiter_report["counters"]["client_unneeded_disputes"] == 1
        assert sum(arbiter_report["counters"].values()) == 1
        coin_c = arbiter_report["deposits"]["client_actual"]
        coin_s = arbiter_report["deposits"]["server_actual"]
        z, o, l = 3, 5, 2
        assert arbiter_report["payout"]["actual"] == {
            "client": coin_c - o * z - l,
            "server": coin_s + o * z,
            "arbiter": l,
        }
        assert arbiter_report["valid"]

        raw["session"]["variant"] = "arbiterless"
        free_report = run(ScenarioSpec.from_dict(raw))
        assert tuple(free_report["counters"].values()) == (0, 0, 0, 0)
        assert free_report["payout"]["actual"] == {
            "client": coin_c - o * z,
            "server": coin_s + o * z,
        }
        assert free_report["valid"]
        _pass(
            "malicious client (b): false accusation charged as an unneeded "
            "dispute in the arbiter variant, no counter change arbiter-free"
        )


class TestFreeRidingMitigation:
    def test_ill_formed_metadata_refunds_in_full(self):
        raw = base_raw(behaviors={"client": [{"kind": "ill_formed_metadata"}]})
        first = run(ScenarioSpec.from_dict(raw))
        second = run(ScenarioSpec.from_dict(raw))

        assert first == second  # deterministic
        assert first["a"] == 0
        assert first["refund_path"]
        assert first["payout"]["actual"] == {
            "client": first["deposits"]["client_actual"],
            "server": first["deposits"]["server_actual"],
        }
        assert first["deposits"]["server_actual"] == 0
        assert first["balances"]["delta"] == {"client": 0, "server": 0, "arbiter": 0}
        assert first["valid"]
        _pass(
            "free-riding mitigation: ill-formed metadata ends at a=0 with "
            "both deposits returned in full"
        )


class TestConservationFuzz:
    CLIENT_KINDS = catalogue_kinds(protocol.CLIENT_KINDS)
    SERVER_KINDS = catalogue_kinds(protocol.SERVER_KINDS)

    def random_spec(self, rng: random.Random) -> dict:
        z = rng.randrange(1, 5)
        phi = rng.randrange(2, 9)
        m_min = max(phi, 16)
        size = rng.randrange(m_min, 65) * PAYLOAD
        client, server = [], []
        for j in range(1, z + 1):
            roll = rng.random()
            if roll < 0.25:
                client.append({"kind": rng.choice(self.CLIENT_KINDS), "j": j})
            elif roll < 0.5:
                server.append({"kind": rng.choice(self.SERVER_KINDS), "j": j})
        for kinds, items in ((protocol.CLIENT_KINDS, client), (protocol.SERVER_KINDS, server)):
            for kind in catalogue_kinds(kinds, per_cycle=False):
                if rng.random() < 0.05:
                    items.append({"kind": kind})
        spec = {
            "session": {
                "z": z,
                "phi": phi,
                "block_payload_len": PAYLOAD,
                "price_list": [[5, 2], [3, 1]],
                "price_choice": rng.choice([[5, 2], [3, 1]]),
                "pi_max": None if rng.random() < 0.5 else 32,
                "variant": rng.choice(["arbiter", "arbiterless"]),
                "codec": rng.choice(["identity", "xor-parity"]),
            },
            "file": {"size": size},
            "behaviors": {"client": client, "server": server},
            "seed": rng.getrandbits(32),
        }
        rng.random()  # unused; keeps every later spec of this seed's stream unchanged
        return spec

    def test_two_hundred_adversarial_traces(self):
        rng = random.Random(0xC0FFEE)
        variants = {"arbiter": 0, "arbiterless": 0}
        for trial in range(200):
            raw = self.random_spec(rng)
            report = run(ScenarioSpec.from_dict(raw))
            variants[raw["session"]["variant"]] += 1
            assert report["conservation"]["exact"], f"trial {trial}: {raw}"
            assert report["payout"]["match"], f"trial {trial}: {raw}"
            assert report["valid"], f"trial {trial}: {raw}"
            resolution = report["disputes"]["resolution"]
            if resolution is not None:
                # at most one counter attributed per cycle
                attributed = list(resolution["attribution"])
                assert len(attributed) == len(set(attributed))
                assert sum(report["counters"].values()) == len(attributed)
        assert variants["arbiter"] > 0 and variants["arbiterless"] > 0
        _pass(
            "conservation fuzz: 200 randomized adversarial traces over both "
            "variants, supply conserved and payouts matched exactly"
        )


class TestHonestPartyCatalogue:
    """Every per-cycle pair of client and server kind at z = 2, in both
    variants, with the client's complaint about a cycle its own invalid query
    spoiled filed and kept back, judged by the invariants and not by the
    code. An honest client
    pays o per cycle the server answered honestly and, without an arbiter,
    gains l per cycle the server failed. An honest server earns o per cycle
    and, without an arbiter, gains l per cycle whose query the client
    spoiled or withheld."""

    Z, O, L = 2, 5, 2
    CLIENT_KINDS = (None,) + catalogue_kinds(protocol.CLIENT_KINDS)
    SERVER_KINDS = (None,) + catalogue_kinds(protocol.SERVER_KINDS)
    # each per-cycle kind judged by hand: it fails the cycle for the other
    # party, or it leaves what that party is due unchanged
    CLIENT_FAILS = {"invalid_query", "withhold_query"}
    CLIENT_HARMLESS = {"false_accusation"}
    SERVER_FAILS = {"corrupt_block", "withhold_proof", "false_query_complaint"}
    SERVER_HARMLESS = set()

    # ROADMAP item 1: with an arbiter, a server's complaint about a valid
    # query is charged as an unneeded dispute and the client's complaint
    # about the dummy proof that follows is not charged, so the honest client
    # still pays o for that cycle. The mend of item 1 empties this set.
    ARBITER_KNOWN_FAILURES = frozenset(
        ((None, None), mix)
        for mix in itertools.product(SERVER_KINDS, repeat=Z)
        if "false_query_complaint" in mix
    )

    def session(self, variant: str, client_mix: tuple, server_mix: tuple) -> dict:
        raw = base_raw(
            behaviors={
                role: [{"kind": k, "j": j} for j, k in enumerate(mix, 1) if k]
                for role, mix in (("client", client_mix), ("server", server_mix))
            }
        )
        raw["session"].update(z=self.Z, phi=4, variant=variant)
        raw["file"] = {"size": 64 * PAYLOAD}
        return run(ScenarioSpec.from_dict(raw))

    @pytest.fixture(scope="class")
    def catalogue(self):
        """``reports(variant, suppress)``: the report of every (client mix,
        server mix), run once per argument pair for all the class's tests."""
        runs = {}

        def reports(variant: str, suppress: bool = False) -> dict:
            if (variant, suppress) not in runs:
                with pytest.MonkeyPatch.context() as patch:
                    if suppress:
                        patch.setattr(
                            protocol.Client,
                            "verify_cycle",
                            self.keeping_back_own_fault(protocol.Client.verify_cycle),
                        )
                    runs[variant, suppress] = {
                        (client_mix, server_mix): self.session(variant, client_mix, server_mix)
                        for client_mix in itertools.product(self.CLIENT_KINDS, repeat=self.Z)
                        for server_mix in itertools.product(self.SERVER_KINDS, repeat=self.Z)
                    }
            return runs[variant, suppress]

        return reports

    def failures(self, variant: str, reports: dict) -> set:
        arbiterless = variant == "arbiterless"
        honest = (None,) * self.Z
        failing = set()
        for (client_mix, server_mix), report in reports.items():
            delta = report["balances"]["delta"]
            server_failed = sum(k in self.SERVER_FAILS for k in server_mix)
            client_failed = sum(k in self.CLIENT_FAILS for k in client_mix)
            fee = self.L if arbiterless else 0
            want = {}
            if client_mix == honest:
                want["client"] = -self.O * (self.Z - server_failed) + fee * server_failed
            if server_mix == honest:
                want["server"] = self.O * self.Z + fee * client_failed
            if any(delta[name] != amount for name, amount in want.items()):
                failing.add((client_mix, server_mix))
        return failing

    def test_every_kind_is_judged(self):
        # a kind added to the catalogue cannot go unjudged
        for kinds, fails, harmless in (
            (protocol.CLIENT_KINDS, self.CLIENT_FAILS, self.CLIENT_HARMLESS),
            (protocol.SERVER_KINDS, self.SERVER_FAILS, self.SERVER_HARMLESS),
        ):
            assert not fails & harmless
            assert fails | harmless == set(catalogue_kinds(kinds))

    @staticmethod
    def keeping_back_own_fault(verify_cycle):
        """``Client.verify_cycle`` for a client that keeps back its complaint
        about a cycle its own invalid query spoiled."""

        def verify(client, j):
            verdict, complaint = verify_cycle(client, j)
            own_fault = ("invalid_query", j) in client.script
            if complaint is not None and not verdict.accepted and own_fault:
                client.complaints.remove(complaint)
                return verdict, None
            return verdict, complaint

        return verify

    @pytest.mark.parametrize("suppress", [False, True], ids=["complain", "suppress"])
    @pytest.mark.parametrize("variant", ["arbiter", "arbiterless"])
    def test_honest_party_is_never_worse_off(self, variant, suppress, catalogue):
        # the complaint kept back is one resolution filters, the server's
        # complaint having put that cycle in v, so it moves no coin either way
        known = self.ARBITER_KNOWN_FAILURES if variant == "arbiter" else frozenset()
        assert self.failures(variant, catalogue(variant, suppress)) == known
        _pass(
            f"honest-party catalogue ({variant}, suppress={suppress}): "
            f"{len(self.CLIENT_KINDS) ** self.Z * len(self.SERVER_KINDS) ** self.Z} "
            f"mixes, {len(known)} known failures and no other"
        )

    def test_variants_differ_only_in_the_charge_rule(self, catalogue):
        # resolution reads the variant only in its payment rule, so both
        # variants rule alike on every mix and charge the client alike. The
        # server's charges differ only where the server complained about a
        # query the client neither spoiled nor withheld: with an arbiter it
        # pays one unneeded dispute and its dummy proof goes uncharged,
        # without one the dummy proof is its fault (ROADMAP item 1)
        arbiter, arbiterless = catalogue("arbiter"), catalogue("arbiterless")

        def ruled(report):
            block = report["disputes"]["resolution"]
            return block and {key: block[key] for key in block if key != "attribution"}

        server_differs = set()
        for mix, report in arbiter.items():
            other = arbiterless[mix]
            assert ruled(report) == ruled(other), mix
            counters, other_counters = report["counters"], other["counters"]
            assert counters["client_faults"] == other_counters["client_faults"], mix
            if counters["server_faults"] != other_counters["server_faults"]:
                server_differs.add(mix)
        needless = {
            (client_mix, server_mix)
            for client_mix, server_mix in arbiter
            if any(
                s == "false_query_complaint" and c not in self.CLIENT_FAILS
                for c, s in zip(client_mix, server_mix)
            )
        }
        assert len(needless) == 60
        assert server_differs == needless
        _pass(
            f"honest-party catalogue across variants: {len(arbiter)} mixes rule "
            f"alike; server faults differ in the {len(needless)} with a needless "
            "server complaint and no other"
        )


def split_blocks(blocks, width):
    """A block buffer cut into its ``width``-byte blocks, 1..m in order."""
    return [blocks[i : i + width] for i in range(0, len(blocks), width)]


def naive_hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()[:16]


def naive_root(blocks):
    width = len(blocks[0])
    n = 2
    while n < len(blocks):
        n *= 2
    nodes = list(blocks) + [bytes(width)] * (n - len(blocks))
    while len(nodes) > 1:
        nodes = [naive_hash(nodes[i] + nodes[i + 1]) for i in range(0, len(nodes), 2)]
    return nodes[0]


def naive_indices(key: bytes, phi: int, m: int) -> list[int]:
    out = []
    for i in range(1, phi + 1):
        digest = hashlib.sha256(key + i.to_bytes(8, "big")).digest()[:16]
        out.append((int.from_bytes(digest, "big") % m) + 1)
    return out


def naive_verify(raw_blocks, key, entries, phi):
    """Brute-force verifier: recomputes everything from the raw blocks."""
    m = len(raw_blocks)
    root = naive_root(raw_blocks)
    expected = naive_indices(key, phi, m)
    if len(entries) != phi:
        return (0, min(len(entries) + 1, phi))
    for i, (entry, q) in enumerate(zip(entries, expected), start=1):
        block = entry["block"]
        if len(block) <= 4 or int.from_bytes(block[-4:], "big") != q:
            return (0, i)
    for i, entry in enumerate(entries, start=1):
        pos = entry["leaf_index"] - 1
        if pos < 0:
            return (0, i)
        if pos % 2 == 0:
            node = naive_hash(entry["block"] + entry["sibling"])
        else:
            node = naive_hash(entry["sibling"] + entry["block"])
        pos //= 2
        for digest in entry["digests"]:
            node = naive_hash(node + digest) if pos % 2 == 0 else naive_hash(digest + node)
            pos //= 2
        if node != root:
            return (0, i)
    return (1, None)


class TestPorOracleEquivalence:
    def to_package_entries(self, entries):
        return tuple(
            merkle.MerklePath(
                leaf_block=e["block"],
                sibling_block=e["sibling"],
                sibling_digests=tuple(e["digests"]),
                leaf_index=e["leaf_index"],
            )
            for e in entries
        )

    def corrupt(self, rng, entries):
        entry = rng.choice(entries)
        field = rng.choice(["payload", "index_suffix", "sibling", "digest", "leaf_index"])
        if field == "digest" and not entry["digests"]:
            field = "sibling"
        if field == "payload":
            block = bytearray(entry["block"])
            block[rng.randrange(0, len(block) - 4)] ^= 1 << rng.randrange(8)
            entry["block"] = bytes(block)
        elif field == "index_suffix":
            block = bytearray(entry["block"])
            block[len(block) - 1 - rng.randrange(4)] ^= 1 << rng.randrange(8)
            entry["block"] = bytes(block)
        elif field == "sibling":
            sib = bytearray(entry["sibling"])
            sib[rng.randrange(len(sib))] ^= 1 << rng.randrange(8)
            entry["sibling"] = bytes(sib)
        elif field == "digest":
            which = rng.randrange(len(entry["digests"]))
            digest = bytearray(entry["digests"][which])
            digest[rng.randrange(len(digest))] ^= 1 << rng.randrange(8)
            entry["digests"][which] = bytes(digest)
        else:
            entry["leaf_index"] = rng.randrange(1, len(entries) + 2)

    def test_verifier_matches_naive_oracle(self):
        rng = random.Random(161803)
        for m in (2, 4, 8):
            file = rng.randbytes(m * PAYLOAD)
            encoded, pp = por.setup(file, PAYLOAD, phi=m)
            tree, _ = merkle.gen_tree(encoded, PAYLOAD + por.INDEX_LEN)
            blocks = split_blocks(encoded, PAYLOAD + por.INDEX_LEN)
            key = por.gen_query(rng)
            indices = por.derive_indices(key, pp.phi, pp.m)
            base = [
                {
                    "block": blocks[q - 1],
                    "sibling": path.sibling_block,
                    "digests": list(path.sibling_digests),
                    "leaf_index": q,
                }
                for q, path in zip(indices, merkle.prove(tree, indices))
            ]
            for trial in range(100):
                entries = [
                    {
                        "block": e["block"],
                        "sibling": e["sibling"],
                        "digests": list(e["digests"]),
                        "leaf_index": e["leaf_index"],
                    }
                    for e in base
                ]
                for _ in range(rng.randrange(0, 3)):  # 0 = control, else corrupt
                    self.corrupt(rng, entries)
                naive = naive_verify(blocks, key, entries, pp.phi)
                verdict = por.verify(self.to_package_entries(entries), key, pp)
                package = (int(verdict.accepted), verdict.failing_index)
                assert package == naive, f"m={m} trial={trial}"
        _pass(
            "oracle equivalence: package verifier agrees with the "
            "brute-force verifier on 300 corruption trials at m in {2,4,8}"
        )


@pytest.fixture(scope="module")
def big_session():
    """phi=460 over 2**20 blocks: the scaled stand-in for the 4 GB setting.
    ``posted`` stands in for a contract whose cycle 1 holds the sealed
    query and the proof vector, as the dispute re-check reads them."""
    rng = random.Random(2024)
    m = 2**20
    file = rng.randbytes(m * PAYLOAD)
    blocks, pp = por.setup(file, PAYLOAD, phi=460)
    tree, _ = merkle.gen_tree(blocks, PAYLOAD + por.INDEX_LEN)
    key = por.gen_query(rng)
    pi = por.prove(tree, key, pp)
    qp = protocol.QpStatement(0, b"\x5a" * 16, pp, PAYLOAD)
    wire = protocol.encode_proof_vector(pi, qp, rng)
    posted = SimpleNamespace(queries={1: enc_unit(qp.k_bar, key, qp.query_unit, rng)},
                             proofs={1: wire})
    return SimpleNamespace(pp=pp, key=key, qp=qp, wire=wire, posted=posted)


class TestDisputeWorkRatio:
    def test_single_check_is_one_over_phi_of_full_verification(self, big_session):
        s = big_session
        entries, failed = protocol.decode_proof_vector(s.wire, s.qp)
        assert failed is None

        with count_hash_calls() as taken:
            verdict = por.verify(entries, s.key, s.pp)
            client_hashes = taken()
        assert verdict.accepted

        # the resolvers' re-check of complaint [1, g]: the posted query and
        # entry g opened, and that one entry verified
        g = 7
        with count_hash_calls() as taken:
            ruling = protocol._judge_client_complaint(s.posted, 1, g, s.qp)
            arbiter_hashes = taken()
        assert ruling == protocol.NOBODY

        bound = client_hashes * 1.05 / s.pp.phi
        assert arbiter_hashes <= bound, (
            f"single check used {arbiter_hashes} hashes, bound {bound:.1f} "
            f"(client used {client_hashes})"
        )
        _pass(
            "dispute work ratio at phi=460, m=2**20: single re-check costs "
            f"{arbiter_hashes} hashes vs {client_hashes} for full verification "
            f"({arbiter_hashes / client_hashes:.6f} <= 1.05/phi)"
        )


@pytest.fixture
def observe(monkeypatch):
    """Run one scenario dict through ``scenario.run``; return its report and
    each entry its ledger logged from T0 through the last G(z,2), as (time
    label, sender, kind, payload): what the public sees of the billing
    period."""
    ledgers = []

    class KeptLedger(Ledger):
        def __init__(self):
            super().__init__()
            ledgers.append(self)

    monkeypatch.setattr(scenario, "Ledger", KeptLedger)

    def run_observed(raw):
        report = run(ScenarioSpec.from_dict(raw))
        z = report["spec"]["session"]["z"]
        schedule = Schedule(z)
        last = schedule.point(f"G{z}.2").ordinal
        entries = [
            (time, sender, kind, payload)
            for time, sender, kind, payload, _ in ledgers.pop()._trace
            if schedule.point(time).ordinal <= last
        ]
        return report, entries

    return run_observed


class TestPaddingPrivacy:
    def test_wire_sizes_leak_nothing(self, observe):
        # two sessions over different files, equal (m, phi, pad, z); within
        # the second session: a valid, a corrupted, and a dummy proof cycle
        raw_a = base_raw(seed=101)
        raw_b = base_raw(
            seed=202,
            behaviors={
                "server": [
                    {"kind": "corrupt_block", "j": 2},
                    {"kind": "false_query_complaint", "j": 3},
                ]
            },
        )
        lengths = {"query": [], "proof": []}
        for raw in (raw_a, raw_b):
            raw["session"]["pi_max"] = 12  # m=256 -> real units 10, so 2 pads
            report, entries = observe(raw)
            assert report["a"] == 1
            assert report["pad_pi"] == 2
            for _, _, kind, payload in entries:
                if kind in lengths:
                    lengths[kind].append(len(payload))

        assert len(lengths["query"]) == len(lengths["proof"]) == 6
        assert len(set(lengths["query"])) == 1
        assert len(set(lengths["proof"])) == 1  # valid == corrupt == dummy sizes
        _pass(
            "padding privacy: query and proof wire sizes identical across "
            "files and across valid, corrupt, and dummy proof cycles"
        )


class TestBillingPeriodPrivacy:
    """Nothing posted during the billing period reveals file contents, prices
    or proof outcomes: sessions with equal public parameters (price list, z,
    phi, m, pi_max) but different files, price choices and cycle outcomes
    post the same sequence from T0 through the last G(z,2). Every mix of the
    outcomes below at z = 3 runs under both (file seed, price choice) pairs.
    Withheld posts are visible by design, so no session withholds."""

    Z = 3
    OUTCOMES = ("honest", "corrupt_block", "invalid_query", "false_query_complaint")
    SESSIONS = ((101, [5, 2]), (202, [3, 1]))  # (file seed, price choice)

    @pytest.mark.parametrize("variant", ["arbiter", "arbiterless"])
    def test_billing_period_posts_are_equal(self, observe, variant):
        observed, reports = set(), []
        for (seed, choice), outcomes in itertools.product(
            self.SESSIONS, itertools.product(self.OUTCOMES, repeat=self.Z)
        ):
            behaviors = {"client": [], "server": []}
            for j, kind in enumerate(outcomes, start=1):
                if kind != "honest":
                    role = "client" if kind in protocol.CLIENT_KINDS else "server"
                    behaviors[role].append({"kind": kind, "j": j})
            raw = base_raw(seed=seed, behaviors=behaviors)
            raw["session"].update(
                z=self.Z, variant=variant, pi_max=12,
                price_list=[[5, 2], [3, 1]], price_choice=choice,
            )
            report, entries = observe(raw)
            reports.append(report)
            # a deposit's amount is public; of any other post, its length
            observed.add(tuple(
                (time, sender, kind, payload if kind == "deposit" else len(payload))
                for time, sender, kind, payload in entries
            ))

        # the sessions differ in file, price choice and cycle outcomes
        assert len(reports) == 2 * len(self.OUTCOMES) ** self.Z
        assert len({r["pp"]["sigma"] for r in reports}) == 2
        assert {r["pp"]["m"] for r in reports} == {256}
        assert len({repr(r["cycles"]) for r in reports}) > 1
        assert len({repr(r["payout"]) for r in reports}) > 1

        assert len(observed) == 1, f"{len(observed)} distinct observations"
        [posts] = observed
        assert len(posts) == 8 + 2 * self.Z
        assert sum(kind == "deposit" for _, _, kind, _ in posts) == 2
        _pass(
            f"billing-period privacy ({variant}): {len(reports)} sessions post "
            f"the same {len(posts)} entries from T0 to G{self.Z}.2, equal in "
            "time, sender, kind and length and in each deposit's amount, across "
            "files, price choices and every cycle-outcome mix"
        )


class TestScaledTiming:
    def test_cycle_verification_and_dispute_check(self, big_session):
        s = big_session

        started = time.perf_counter()
        entries, failed = protocol.decode_proof_vector(s.wire, s.qp)
        verdict = por.verify(entries, s.key, s.pp)
        verify_seconds = time.perf_counter() - started
        assert failed is None and verdict.accepted
        assert verify_seconds <= 2.0, f"cycle verification took {verify_seconds:.2f}s"

        # the resolvers' re-check of complaint [1, g], as they run it
        g = 3
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            ruling = protocol._judge_client_complaint(s.posted, 1, g, s.qp)
            best = min(best, time.perf_counter() - started)
            assert ruling == protocol.NOBODY
        assert best <= 0.010, f"single-proof check took {best * 1000:.2f} ms"
        _pass(
            "scaled timing at m=2**20, phi=460: cycle verification "
            f"{verify_seconds * 1000:.0f} ms (<= 2 s), dispute check "
            f"{best * 1000:.2f} ms (<= 10 ms)"
        )
