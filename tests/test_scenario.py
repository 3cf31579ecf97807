"""Scenario parsing, the runner's reports, report verification, and the CLI."""

import json

import pytest

from porpay import cli, scenario
from porpay.ledger import CounterOutOfBounds, Counters
from porpay.scenario import ScenarioSpec, SpecInvalid, expected_payout, run, verify_report


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

    def test_unknown_behavior_kind(self):
        raw = base_raw(behaviors={"client": [{"kind": "set_fire", "j": 1}]})
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

    def test_target_out_of_range(self):
        raw = base_raw(behaviors={"server": [{"kind": "corrupt_block", "j": 4}]})
        with pytest.raises(SpecInvalid):
            ScenarioSpec.from_dict(raw)

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

    def test_phi_larger_than_m_rejected_at_run(self):
        raw = base_raw()
        raw["session"]["phi"] = 500  # 1024-byte file -> m = 64
        with pytest.raises(SpecInvalid):
            run(ScenarioSpec.from_dict(raw))


class TestExpectedPayout:
    def test_all_zero_counters(self):
        client, server, arbiter = expected_payout(
            "arbiter", Counters(), z=3, o=5, l=2, client_deposit=21, server_deposit=6
        )
        assert (client, server, arbiter) == (6, 21, 0)

    def test_arbiterless_client_fault_example(self):
        client, server, arbiter = expected_payout(
            "arbiterless",
            Counters(client_faults=1),
            z=1, o=5, l=2, client_deposit=7, server_deposit=2,
        )
        assert (client, server) == (0, 9)
        assert arbiter is None

    def test_arbiter_gets_fee_for_unneeded_dispute(self):
        _, _, arbiter = expected_payout(
            "arbiter",
            Counters(server_unneeded_disputes=1),
            z=3, o=5, l=2, client_deposit=21, server_deposit=6,
        )
        assert arbiter == 2

    def test_arbiterless_fee_transfer_examples(self):
        client, server, _ = expected_payout(
            "arbiterless", Counters(server_faults=1),
            z=3, o=5, l=2, client_deposit=21, server_deposit=6,
        )
        assert (client, server) == (13, 14)
        client, server, _ = expected_payout(
            "arbiterless", Counters(client_faults=1),
            z=3, o=5, l=2, client_deposit=21, server_deposit=6,
        )
        assert (client, server) == (4, 23)

    def test_counter_bounds(self):
        with pytest.raises(CounterOutOfBounds):
            expected_payout(
                "arbiter",
                Counters(client_faults=2, client_unneeded_disputes=2),
                z=3, o=5, l=2, client_deposit=21, server_deposit=6,
            )


class TestRunner:
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

    def test_suppressed_dummy_complaint(self):
        raw = base_raw(
            behaviors={"client": [{"kind": "invalid_query", "j": 1}]},
            suppress_dummy_complaints=True,
        )
        report = run(ScenarioSpec.from_dict(raw))
        assert report["valid"]
        assert report["disputes"]["client_complaints_filed"] == []
        assert report["counters"]["client_faults"] == 1

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

    def test_tampered_payout_detected(self):
        report = run(ScenarioSpec.from_dict(base_raw()))
        report["payout"]["actual"]["server"] += 1
        ok, problems = verify_report(report)
        assert not ok
        assert problems

    def test_tampered_counters_detected(self):
        raw = base_raw(behaviors={"server": [{"kind": "corrupt_block", "j": 2}]})
        report = run(ScenarioSpec.from_dict(raw))
        report["counters"]["server_faults"] = 0
        ok, _ = verify_report(report)
        assert not ok


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

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        raw = base_raw(behaviors={"client": [{"kind": "nonsense"}]})
        spec_path = self.write_spec(tmp_path, raw)
        assert cli.main(["run", str(spec_path)]) == 2
        capsys.readouterr()
