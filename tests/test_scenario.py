"""Scenario parsing, the runner's reports, report verification, and the CLI."""

import hashlib
import json
from pathlib import Path

import pytest

from porpay import cli, por, protocol, scenario
from porpay.ledger import CounterOutOfBounds, Counters, Ledger
from porpay.scenario import ScenarioSpec, SpecInvalid, expected_payout, run, verify_report

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_raw(**overrides):
    raw = {
        "session": {
            "z": 3,
            "phi": 8,
            "block_payload_len": 16,
            "price_list": [[5, 2], [3, 1]],
            "price_choice": [5, 2],
            "variant": "arbiter",
            "codec": "identity",
        },
        "file": {"size": 1024},
        "behaviors": {},
        "seed": 42,
    }
    raw.update(overrides)
    return raw


class TestSpecParsing:
    def test_valid_spec_roundtrips(self):
        spec = ScenarioSpec.from_dict(base_raw())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_the_normalized_file(self):
        # defaults filled in, behaviours in file order
        raw = base_raw(
            behaviors={"server": [{"kind": "withhold_proof", "j": 3},
                                  {"kind": "corrupt_block", "j": 1}]},
        )
        for key in ("block_payload_len", "variant", "codec"):
            del raw["session"][key]
        del raw["seed"]
        spec = ScenarioSpec.from_dict(raw)
        assert spec.to_dict() == {
            "session": {
                "z": 3, "phi": 8, "block_payload_len": por.DEFAULT_BLOCK_PAYLOAD_LEN,
                "price_list": [[5, 2], [3, 1]], "price_choice": [5, 2],
                "pi_max": None, "variant": "arbiter", "codec": "identity",
            },
            "file": {"size": 1024},
            "behaviors": {
                "client": [],
                "server": [{"kind": "withhold_proof", "j": 3},
                           {"kind": "corrupt_block", "j": 1}],
            },
            "seed": 0,
        }
        # a copy: editing it leaves the spec as parsed
        spec.to_dict()["session"]["z"] = 9
        assert spec.config.z == spec.raw["session"]["z"] == 3

    @pytest.mark.parametrize("path", [5, ["a"], True], ids=["int", "list", "bool"])
    def test_file_path_must_be_a_string(self, path):
        with pytest.raises(SpecInvalid, match="path"):
            ScenarioSpec.from_dict(base_raw(file={"path": path}))

    def test_unknown_behavior_kind(self):
        raw = base_raw(behaviors={"client": [{"kind": "set_fire", "j": 1}]})
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

    def test_target_out_of_range(self):
        # cycles are 1 to z = 3
        for j in (0, 4):
            raw = base_raw(behaviors={"server": [{"kind": "corrupt_block", "j": j}]})
            with pytest.raises(SpecInvalid, match="cycle target"):
                ScenarioSpec.from_dict(raw)

    def test_file_size_must_be_positive(self):
        # refused at the parse, before any file is made; one byte parses
        for size in (0, -1):
            with pytest.raises(SpecInvalid, match="file size must be positive"):
                ScenarioSpec.from_dict(base_raw(file={"size": size}))
        assert ScenarioSpec.from_dict(base_raw(file={"size": 1})).raw["file"] == {"size": 1}

    def test_missing_target(self):
        raw = base_raw(behaviors={"client": [{"kind": "invalid_query"}]})
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

    def test_duplicate_role_cycle_behavior(self):
        raw = base_raw(
            behaviors={
                "client": [
                    {"kind": "invalid_query", "j": 1},
                    {"kind": "withhold_query", "j": 1},
                ]
            }
        )
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

    def test_flag_behavior_rejects_target(self):
        raw = base_raw(behaviors={"client": [{"kind": "ill_formed_metadata", "j": 1}]})
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

    @pytest.mark.parametrize("variant", ["nonsense", ["x"]], ids=["str", "list"])
    def test_unknown_variant_refused(self, variant):
        raw = base_raw()
        raw["session"]["variant"] = variant
        with pytest.raises(SpecInvalid, match="unknown variant"):
            ScenarioSpec.from_dict(raw)

    @pytest.mark.parametrize("codec", ["nonsense", ["x"]], ids=["str", "list"])
    def test_unknown_codec_refused(self, codec):
        raw = base_raw()
        raw["session"]["codec"] = codec
        with pytest.raises(SpecInvalid, match="unknown codec"):
            ScenarioSpec.from_dict(raw)

    def test_price_choice_must_be_listed(self):
        raw = base_raw()
        raw["session"]["price_choice"] = [4, 2]
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

    def test_file_source_exactly_one(self):
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(base_raw(file={}))
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(base_raw(file={"size": 10, "path": "x"}))

    def test_block_payload_past_one_unit_rejected(self):
        # with 32,514 payload bytes the largest entry (two blocks, the index
        # and 31 digests or pads) overflows a unit's 2-byte length prefix
        raw = base_raw(file={"size": 2 * 32_514})
        raw["session"]["block_payload_len"] = 32_514
        raw["session"]["phi"] = 2
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

    @pytest.mark.parametrize(
        "path, value",
        [(("session", "z"), 2.9), (("session", "phi"), True), (("session", "z"), "3"),
         (("session", "pi_max"), 12.0), (("session", "price_choice"), [5.7, 2]),
         (("session", "price_list"), [[5, 2], [3, False]]), (("file", "size"), "1024"),
         (("seed",), 4.5), (("behaviors",), {"server": [{"kind": "corrupt_block", "j": "2"}]})],
        ids=["z_float", "phi_bool", "z_str", "pi_max_float", "choice_float", "price_bool",
             "size_str", "seed_float", "cycle_str"],
    )
    def test_number_not_an_integer_refused(self, path, value):
        # a float, a boolean or a numeric string is refused, not truncated
        raw = base_raw()
        *parents, key = path
        target = raw
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(SpecInvalid, match="must be an integer"):
            ScenarioSpec.from_dict(raw)

    @pytest.mark.parametrize(
        "path, key, where",
        [(("session",), "varient", "session"), ((), "sede", "the scenario"),
         ((), "suppress_dummy_complaints", "the scenario"),
         (("behaviors", "server", 0), "jj", "server behavior 1"),
         (("file",), "sizes", "file")],
        ids=["varient", "sede", "suppress_dummy_complaints", "item_jj", "file_sizes"],
    )
    def test_unknown_key_refused(self, path, key, where):
        # a misspelt key would otherwise run with its default: "varient"
        # ran an arbiter session, "sede" the file's seed
        raw = base_raw(behaviors={"server": [{"kind": "corrupt_block", "j": 2}]})
        target = raw
        for name in path:
            target = target[name]
        target[key] = "arbiterless" if key == "varient" else 3
        with pytest.raises(SpecInvalid, match=f"unknown key '{key}' in {where}$"):
            ScenarioSpec.from_dict(raw)

    def test_phi_larger_than_m_rejected_at_run(self):
        raw = base_raw()
        raw["session"]["phi"] = 500  # 1024-byte file -> m = 64
        with pytest.raises(SpecInvalid):
            run(ScenarioSpec.from_dict(raw))


class TestExpectedPayout:
    def test_all_zero_counters(self):
        assert expected_payout(
            "arbiter", Counters(), z=3, o=5, l=2, client_deposit=21, server_deposit=6
        ) == {"client": 6, "server": 21, "arbiter": 0}

    def test_arbiterless_client_fault_example(self):
        # no arbiter entry in the arbiter-free variant
        assert expected_payout(
            "arbiterless",
            Counters(client_faults=1),
            z=1, o=5, l=2, client_deposit=7, server_deposit=2,
        ) == {"client": 0, "server": 9}

    def test_arbiter_gets_fee_for_unneeded_dispute(self):
        payout = expected_payout(
            "arbiter",
            Counters(server_unneeded_disputes=1),
            z=3, o=5, l=2, client_deposit=21, server_deposit=6,
        )
        assert payout["arbiter"] == 2

    def test_arbiterless_fee_transfer_examples(self):
        assert expected_payout(
            "arbiterless", Counters(server_faults=1),
            z=3, o=5, l=2, client_deposit=21, server_deposit=6,
        ) == {"client": 13, "server": 14}
        assert expected_payout(
            "arbiterless", Counters(client_faults=1),
            z=3, o=5, l=2, client_deposit=21, server_deposit=6,
        ) == {"client": 4, "server": 23}

    @pytest.mark.parametrize("variant", ["arbiter", "arbiterless"])
    def test_refund_returns_each_deposit(self, variant):
        # the refund comes before the bounds check: counters past z are
        # never read
        assert expected_payout(
            variant, Counters(client_faults=9),
            z=3, o=5, l=2, client_deposit=21, server_deposit=0, refund=True,
        ) == {"client": 21, "server": 0}

    @pytest.mark.parametrize("variant", ["nonsense", ["x"]], ids=["str", "list"])
    @pytest.mark.parametrize("refund", [False, True])
    def test_unknown_variant_raises(self, variant, refund):
        # any name but the two read as arbiterless before
        with pytest.raises(ValueError, match="unknown variant"):
            expected_payout(
                variant, Counters(),
                z=3, o=5, l=2, client_deposit=21, server_deposit=6, refund=refund,
            )

    def test_counter_bounds(self):
        with pytest.raises(CounterOutOfBounds):
            expected_payout(
                "arbiter",
                Counters(client_faults=2, client_unneeded_disputes=2),
                z=3, o=5, l=2, client_deposit=21, server_deposit=6,
            )


class TestRunner:
    def test_payout_mismatch_makes_report_invalid(self, monkeypatch):
        # a report is VALID only if the payout matches and the supply is
        # conserved; here only the first fails
        def off_by_one(*args, **kwargs):
            payout = expected_payout(*args, **kwargs)
            payout["server"] += 1
            return payout

        monkeypatch.setattr(scenario, "expected_payout", off_by_one)
        report = run(ScenarioSpec.from_dict(base_raw()))
        assert report["conservation"]["exact"]
        assert not report["payout"]["match"]
        assert not report["valid"]

    @pytest.mark.parametrize(
        "behaviors", [{}, {"server": [{"kind": "short_deposit"}]}], ids=["L", "refund"]
    )
    @pytest.mark.parametrize("variant", scenario.VARIANTS)
    def test_payout_called_by_its_variant_name(self, monkeypatch, variant, behaviors):
        # perfbench/spans.py ends a session's settlement at the span of the
        # payout name that matches its variant
        calls = []
        for name in ("payout_arbiter_variant", "payout_arbiterless_variant"):
            def spy(*args, name=name, paid=getattr(protocol, name)):
                calls.append(name)
                return paid(*args)

            monkeypatch.setattr(protocol, name, spy)
        raw = base_raw(behaviors=behaviors)
        raw["session"]["variant"] = variant
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"] and report["refund_path"] == bool(behaviors)
        assert calls == [f"payout_{variant}_variant"]

    def test_honest_deltas(self):
        report = run(ScenarioSpec.from_dict(base_raw()))
        assert report["valid"]
        assert report["balances"]["delta"] == {
            "client": -15,
            "server": 15,
            "arbiter": 0,
        }

    def test_report_declares_unit_geometry(self):
        report = run(ScenarioSpec.from_dict(base_raw()))
        fmt = report["unit_format"]
        assert fmt["unit_len"] == fmt["nonce_len"] + fmt["payload_len"] + fmt["tag_len"]

    def test_report_deterministic(self):
        spec = ScenarioSpec.from_dict(base_raw())
        one = scenario.report_to_json(run(spec))
        two = scenario.report_to_json(run(spec))
        assert one == two

    def test_different_seeds_differ_in_pp(self):
        a = run(ScenarioSpec.from_dict(base_raw(seed=1)))
        b = run(ScenarioSpec.from_dict(base_raw(seed=2)))
        assert a["pp"]["sigma"] != b["pp"]["sigma"]

    def test_file_from_path(self, tmp_path):
        data_file = tmp_path / "payload.bin"
        data_file.write_bytes(bytes(range(256)) * 4)
        raw = base_raw(file={"path": str(data_file)})
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"]

    def test_empty_file_at_path_rejected_at_run(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(SpecInvalid, match="empty"):
            run(ScenarioSpec.from_dict(base_raw(file={"path": str(empty)})))

    def test_xor_parity_codec_run(self):
        raw = base_raw()
        raw["session"]["codec"] = "xor-parity"
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"]
        assert report["pp"]["m"] == 80  # 64 data blocks + 16 parity blocks

    def test_padded_session_run(self):
        raw = base_raw()
        raw["session"]["pi_max"] = 12
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"]
        assert report["pad_pi"] > 0

    def test_pi_max_at_largest_entry_size(self):
        raw = base_raw()
        raw["session"]["pi_max"] = 34  # 4-byte leaf index: at most 32 levels + 2
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"]
        assert report["pad_pi"] == 34 - 8  # m = 64: height 6 + 2 real slots

    def test_pi_max_past_largest_entry_size_rejected(self):
        raw = base_raw()
        raw["session"]["pi_max"] = 35
        with pytest.raises(SpecInvalid):
            run(ScenarioSpec.from_dict(raw))

    def test_file_encoded_once(self, monkeypatch):
        calls = []
        xor_parity = por.xor_parity

        def counting_xor_parity(data, n):
            calls.append(len(data))
            return xor_parity(data, n)

        monkeypatch.setattr(por, "xor_parity", counting_xor_parity)
        raw = base_raw()
        raw["session"]["codec"] = "xor-parity"
        assert run(ScenarioSpec.from_dict(raw))["valid"]
        assert calls == [1024]

    KINDS = {"client": protocol.CLIENT_KINDS, "server": protocol.SERVER_KINDS}

    @pytest.mark.parametrize("variant", scenario.VARIANTS)
    @pytest.mark.parametrize(
        "role, kind", [(role, kind) for role, kinds in KINDS.items() for kind in kinds]
    )
    def test_every_catalogued_kind_takes_effect(self, role, kind, variant):
        # a kind the parse accepts but no branch point tests (a misspelt
        # literal, say) would run as the honest protocol
        def report(behaviors):
            raw = base_raw(behaviors=behaviors)
            raw["session"].update(z=2, variant=variant)
            out = run(ScenarioSpec.from_dict(raw))
            del out["spec"]
            return out

        item = {"kind": kind, "j": 1} if self.KINDS[role][kind] else {"kind": kind}
        assert report({role: [item]}) != report({})

    def test_resolution_attribution_exclusive_per_cycle(self):
        raw = base_raw(
            behaviors={
                "client": [{"kind": "invalid_query", "j": 1}],
                "server": [
                    {"kind": "corrupt_block", "j": 2},
                    {"kind": "false_query_complaint", "j": 3},
                ],
            }
        )
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"]
        attribution = report["disputes"]["resolution"]["attribution"]
        assert len(attribution) == len(set(attribution))
        assert sum(report["counters"].values()) == len(attribution)


class TestReportGolden:
    """SHA-256 of ``report_to_json(run(spec))`` for every scenario file in
    both variants, at the file's own seed (None) and at seeds 3 and 11.
    Reports must stay byte-identical across refactors; any intended change
    to a report re-pins these."""

    DIGESTS = {
    ("disputed.json", "arbiter", None): "a2c244860cdf2c884bc08f359335248fb0a35e4e91f7a3908334db5fbfc0a005",
    ("disputed.json", "arbiter", 3): "87d7aa971a61bff366129cf6b15c2a001aad0fd59c6716472d9a5e619975c229",
    ("disputed.json", "arbiter", 11): "69fac15e542dea3e75f63ba48402e96f3aa43e35554bbc309efed7a9acba5da4",
    ("disputed.json", "arbiterless", None): "c9d4783798cc8fa4997201a299b897dffca321f46b97463a49bc7af074de3153",
    ("disputed.json", "arbiterless", 3): "62da086d6ef2b1eaa82e464de3e8db1e5db81f2ebd4824d4c32a8719adf77281",
    ("disputed.json", "arbiterless", 11): "28f6d4022a58fadcea64c7d336fb78a040234d53d2959823a9fda213872f9186",
    ("free_riding.json", "arbiter", None): "a4850a9843b486f5e1495da5f2962fb24615ec391ceeaf6afc018b9a6a456ada",
    ("free_riding.json", "arbiter", 3): "55cdf7f6a9c186337dbb549937603c1fdc131f791cf9d2dd545813581cec248b",
    ("free_riding.json", "arbiter", 11): "612bfbf805342b641548855b8d4db3f05a14b7d31086162142e01edd6b426cc6",
    ("free_riding.json", "arbiterless", None): "89668e2fb72be69c3237b3cf8fbf2f2e27e2d25b17d8dd1ebd76fae292db1c60",
    ("free_riding.json", "arbiterless", 3): "18207dbe1572def86d947dfba926beb074598046668f2655a65482d9660645bd",
    ("free_riding.json", "arbiterless", 11): "9c6c2f971e384cd426c5b10584204ee00e4ad068bb25c2433c9faf820526932d",
    ("honest.json", "arbiter", None): "951df5a994760d25d99c0133812de0a2b0676b23b48fecc0c20dce21e7128ad9",
    ("honest.json", "arbiter", 3): "a0d54eaba1443edcd1712a79800d85fd29bd76b27399d690a78ffd613da1dead",
    ("honest.json", "arbiter", 11): "7ba7688fe3d14faef6a743380e851d535ebd2ac5cd811c83346eddd7e7d9aed8",
    ("honest.json", "arbiterless", None): "b1693753327cb8fa4d7e2820fe0c8679ad437da0dd99fe0e21741e635685180f",
    ("honest.json", "arbiterless", 3): "1e2466a9b6f331480c02acdeda0775af7d05cc6d3a15c18a228a62bf97f3b9f9",
    ("honest.json", "arbiterless", 11): "f0a83f3cab88852637fc567bc43de6e6cf4c1bc223d314051618e8946561ee47",
    ("malicious_server.json", "arbiter", None): "510c9189e88068e37e2696ac74c223b8ef2c55601713199de9eb36844a4c62c0",
    ("malicious_server.json", "arbiter", 3): "a26480a49a16bed845f31bf017fe4a0b5fe7b876073fe11fad4396b7ebd1b61e",
    ("malicious_server.json", "arbiter", 11): "476f7321756348d1c0fb6640746b36ea3c9e6ac66cf5c131b716ffdce56b2fce",
    ("malicious_server.json", "arbiterless", None): "5abb7e9707d9d648c2d1d4d5b6d4eed923dd82ac0db195e463c1793835eea91b",
    ("malicious_server.json", "arbiterless", 3): "351d89973cb33a0ebc852fb050a4cfe7520b6d35c36d9b2eb06cb736636778b5",
    ("malicious_server.json", "arbiterless", 11): "398473f1c5673d578a3dbc9ecfd6b43c7885684e5b3c29e22a1bec05a5bc8262",
    }

    @pytest.mark.parametrize("name, variant, seed", sorted(DIGESTS, key=str))
    def test_report_digest(self, name, variant, seed):
        raw = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
        raw["session"]["variant"] = variant
        if seed is not None:
            raw["seed"] = seed
        text = scenario.report_to_json(run(ScenarioSpec.from_dict(raw)))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.DIGESTS[name, variant, seed]

    # honest.json over an uneven shape: 4000 bytes in 7-byte payloads with
    # xor-parity gives m = 715, not a power of two, and a block length of 11
    UNEVEN_DIGESTS = {
        "arbiter": "b8c41dc3627683913784e19bc6ec79a64fb0e7a2378e95719d318fc5a59970ac",
        "arbiterless": "978c740928894edcccf9788f523cb41acb1757d7d305fef5002163d63074c10d",
    }

    @pytest.mark.parametrize("variant", sorted(UNEVEN_DIGESTS))
    def test_uneven_shape_digest(self, variant):
        raw = json.loads((SCENARIOS / "honest.json").read_text(encoding="utf-8"))
        raw["session"].update(
            variant=variant, block_payload_len=7, codec="xor-parity"
        )
        raw["file"] = {"size": 4000}
        report = run(ScenarioSpec.from_dict(raw))
        assert report["pp"]["m"] == 715
        digest = hashlib.sha256(scenario.report_to_json(report).encode()).hexdigest()
        assert digest == self.UNEVEN_DIGESTS[variant]


class TestTraceGolden:
    """SHA-256 of the ledger trace of ``malicious_server.json`` and of
    ``disputed.json``, whose server posts dummy vectors, in both variants.
    A report holds no ciphertext, so only the trace pins how a run's seed
    becomes each party's randomness."""

    DIGESTS = {
        "arbiter": "5ea48ff401d9b99ca7cdb32e89d3e8bde201be26fa34373f4481a03bc5ea79d5",
        "arbiterless": "22bd492f64f0d635013e75a73ff099e7a211399fecb0f16db94c433f3c68ea21",
    }
    DISPUTED_DIGESTS = {
        "arbiter": "42a55929b05252e14cf04df35061eac4de318107607a1a5959275eae1ebe0014",
        "arbiterless": "a774dae02db022877d812e610ab613954523e927dd4cd41e84a24a0dd52b5896",
    }

    @staticmethod
    def trace_digest(name, variant, monkeypatch):
        ledgers = []

        class KeptLedger(Ledger):
            def __init__(self):
                super().__init__()
                ledgers.append(self)

        monkeypatch.setattr(scenario, "Ledger", KeptLedger)
        raw = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
        raw["session"]["variant"] = variant
        run(ScenarioSpec.from_dict(raw))
        [ledger] = ledgers
        text = json.dumps(ledger.export_trace(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("variant", sorted(DIGESTS))
    def test_ledger_trace_digest(self, variant, monkeypatch):
        digest = self.trace_digest("malicious_server.json", variant, monkeypatch)
        assert digest == self.DIGESTS[variant]

    @pytest.mark.parametrize("variant", sorted(DISPUTED_DIGESTS))
    def test_disputed_trace_digest(self, variant, monkeypatch):
        digest = self.trace_digest("disputed.json", variant, monkeypatch)
        assert digest == self.DISPUTED_DIGESTS[variant]


class TestCoinRange:
    """Deposits must fit the trace's 8 bytes; balances and payouts need not."""

    def test_payout_leg_of_both_deposits(self):
        # without an arbiter the server's l for a fault goes to the client,
        # whose payout is then both deposits: 2**63 + 2**63
        raw = base_raw(behaviors={"server": [{"kind": "corrupt_block", "j": 1}]})
        raw["session"].update(z=1, price_list=[[0, 2**63]], price_choice=[0, 2**63],
                              variant="arbiterless")
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"]
        assert report["payout"]["actual"] == {"client": 2**64, "server": 0}

    def test_deposit_past_range_is_spec_invalid(self):
        # the masked client deposit z * (o_max + l_max) is 2**64
        raw = base_raw()
        raw["session"].update(z=2, price_list=[[2**63, 0]], price_choice=[2**63, 0])
        with pytest.raises(SpecInvalid, match="2\\*\\*64"):
            run(ScenarioSpec.from_dict(raw))


class TestVerifyReport:
    def test_emitted_report_passes(self):
        report = run(ScenarioSpec.from_dict(base_raw()))
        ok, problems = verify_report(report)
        assert ok, problems

    def test_refund_report_passes(self):
        raw = base_raw(behaviors={"client": [{"kind": "ill_formed_metadata"}]})
        report = run(ScenarioSpec.from_dict(raw))
        ok, problems = verify_report(report)
        assert ok, problems
        # a refund's payout is the deposits: its counters are never read
        del report["counters"]
        assert verify_report(report) == (True, [])

    def test_tampered_payout_detected(self):
        report = run(ScenarioSpec.from_dict(base_raw()))
        report["payout"]["actual"]["server"] += 1
        ok, problems = verify_report(report)
        assert not ok
        assert problems

    @pytest.mark.parametrize("path, value", [
        pytest.param(("payout", "expected", "server"), 22, id="expected-payout"),
        pytest.param(("payout", "match"), False, id="match-flag"),
        pytest.param(("conservation", "exact"), False, id="exact-flag"),
    ])
    def test_tampered_record_detected(self, path, value):
        # each recorded fact is checked on its own: the recorded expected
        # payout against the recomputation, and the match and exact flags
        # against the validity flag
        report = run(ScenarioSpec.from_dict(base_raw()))
        *outer, key = path
        holder = report
        for name in outer:
            holder = holder[name]
        assert holder[key] != value
        holder[key] = value
        ok, problems = verify_report(report)
        assert not ok and problems

    def test_tampered_counters_detected(self):
        raw = base_raw(behaviors={"server": [{"kind": "corrupt_block", "j": 2}]})
        report = run(ScenarioSpec.from_dict(raw))
        report["counters"]["server_faults"] = 0
        ok, _ = verify_report(report)
        assert not ok

    @pytest.mark.parametrize("path, value", [
        pytest.param(("spec", "session", "z"), 3.0, id="z-3.0"),
        pytest.param(("spec", "session", "z"), True, id="z-True"),
        pytest.param(("spec", "session", "price_choice"), [5, "2"], id="price_choice-value2"),
        pytest.param(("counters", "server_faults"), 0.0, id="counter-float"),
        pytest.param(("counters", "client_faults"), True, id="counter-bool"),
        pytest.param(("deposits", "client_actual"), float, id="deposit-float"),
    ])
    def test_number_not_an_integer_is_malformed(self, path, value):
        # read as the spec is: a number that is not a JSON integer is a
        # malformed report, which the CLI exits 2 on. A float or boolean
        # counter or deposit would otherwise enter the payout arithmetic,
        # where 0.0 == 0 and True == 1 (``float`` turns the value into one)
        report = run(ScenarioSpec.from_dict(base_raw()))
        *outer, key = path
        holder = report
        for name in outer:
            holder = holder[name]
        holder[key] = value(holder[key]) if callable(value) else value
        with pytest.raises(SpecInvalid, match="must be an integer"):
            verify_report(report)


    @pytest.mark.parametrize("variant", ["nonsense", ["x"]], ids=["str", "list"])
    def test_unknown_variant_is_malformed(self, variant):
        report = _malicious_server_report()
        assert verify_report(report) == (True, [])
        report["spec"]["session"]["variant"] = variant
        with pytest.raises(ValueError, match="unknown variant"):
            verify_report(report)


def _malicious_server_report():
    """The arbiterless report of ``scenarios/malicious_server.json``."""
    raw = json.loads((SCENARIOS / "malicious_server.json").read_text(encoding="utf-8"))
    raw["session"]["variant"] = "arbiterless"
    return run(ScenarioSpec.from_dict(raw))


class TestCli:
    def write_spec(self, tmp_path, raw):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, base_raw())
        report_path = tmp_path / "report.json"
        code = cli.main(["run", str(spec_path), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("VALID")
        report = json.loads(report_path.read_text())
        assert report["valid"]

    def test_seed_and_variant_overrides(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, base_raw())
        report_path = tmp_path / "report.json"
        code = cli.main(
            ["run", str(spec_path), "--seed", "9", "--variant", "arbiterless",
             "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["seed"] == 9
        assert report["spec"]["session"]["variant"] == "arbiterless"
        capsys.readouterr()

    def test_verify_report_exits_zero(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, base_raw())
        report_path = tmp_path / "report.json"
        assert cli.main(["run", str(spec_path), "--report", str(report_path)]) == 0
        assert cli.main(["verify-report", str(report_path)]) == 0
        capsys.readouterr()

    def test_verify_tampered_report_fails(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, base_raw())
        report_path = tmp_path / "report.json"
        cli.main(["run", str(spec_path), "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        report["payout"]["actual"]["client"] -= 1
        report_path.write_text(json.dumps(report))
        assert cli.main(["verify-report", str(report_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("field", ["genesis", "delta"])
    def test_verify_malformed_report_exits_two(self, tmp_path, capsys, field):
        # a field of another JSON type is a malformed file (exit 2), not an
        # INVALID report (exit 1)
        spec_path = self.write_spec(tmp_path, base_raw())
        report_path = tmp_path / "report.json"
        cli.main(["run", str(spec_path), "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        report["balances"][field] = [1, 2]
        report_path.write_text(json.dumps(report))
        assert cli.main(["verify-report", str(report_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("variant", ["nonsense", ["x"]], ids=["str", "list"])
    def test_verify_unknown_variant_exits_two(self, tmp_path, capsys, variant):
        report = _malicious_server_report()
        report["spec"]["session"]["variant"] = variant
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert cli.main(["verify-report", str(report_path)]) == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_variant_choices_are_scenario_names(self):
        [sub] = [a for a in cli.build_parser()._actions if a.choices and "run" in a.choices]
        [variant] = [a for a in sub.choices["run"]._actions if a.dest == "variant"]
        assert tuple(variant.choices) == scenario.VARIANTS == ("arbiter", "arbiterless")

    @pytest.mark.parametrize(
        "raw", [[1, 2], {"session": [1], "file": {"size": 64}}],
        ids=["list", "session_list"],
    )
    @pytest.mark.parametrize(
        "flag", [["--seed", "3"], ["--variant", "arbiter"]], ids=["seed", "variant"]
    )
    def test_malformed_spec_with_override_exits_two(self, tmp_path, capsys, raw, flag):
        # overrides apply to the parsed spec, so a malformed file is reported
        # as such whatever flags come with it
        spec_path = self.write_spec(tmp_path, raw)
        assert cli.main(["run", str(spec_path), *flag]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "raw",
        [base_raw(file={"path": 5})],
        ids=["path_int"],
    )
    def test_misread_spec_exits_two(self, tmp_path, capsys, raw):
        spec_path = self.write_spec(tmp_path, raw)
        assert cli.main(["run", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_truncatable_numbers_exit_two(self, tmp_path, capsys):
        # read with int(), this spec ran a VALID 2-cycle session with phi = 1
        raw = base_raw(file={"size": "1024"})
        raw["session"].update(z=2.9, phi=True, price_choice=[5.7, 2])
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)
        spec_path = self.write_spec(tmp_path, raw)
        assert cli.main(["run", str(spec_path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        raw = base_raw()
        raw["session"]["varient"] = raw["session"].pop("variant")
        spec_path = self.write_spec(tmp_path, raw)
        assert cli.main(["run", str(spec_path), "--report", str(tmp_path / "r.json")]) == 2
        assert "unknown key 'varient' in session" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        raw = base_raw(behaviors={"client": [{"kind": "nonsense"}]})
        spec_path = self.write_spec(tmp_path, raw)
        assert cli.main(["run", str(spec_path)]) == 2
        capsys.readouterr()
