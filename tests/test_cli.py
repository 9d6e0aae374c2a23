"""Configuration-resolution and command-line tests: defaults/file/override
layering, validation messages, exit codes, output formats, and determinism
of seeded runs."""

import copy
import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

import polspin as ps
from polspin.cli import main, write_table
from polspin.config import DEFAULTS, SWEEP_KINDS, ConfigError, RunConfig, load_config
from polspin.montecarlo import McConfig
from polspin.rate import ATTEMPT_SEARCH_CAP
from polspin.sweep import (
    SweepAxis,
    SweepResult,
    sweep_fidelity_cavity,
    sweep_fidelity_pdr,
    sweep_rate_vs_loss,
)


# Settings that reach each top-level key alone, then pairs of keys; a value
# equal to its default (f_target 0.95, an empty mc section) still counts as set
RESOLUTION_CASES = [
    {"cavity.delta_c": -0.0},
    {"pdr.R_H": 0.2},
    {"polarizer.eta_pol_H": 0.2},
    {"link.eta_link": 0.01},
    {"timing.tau_pulse": 2e-7},
    {"link.r_cav_H": 0.81},
    {"f_target": 0.97},
    {"constraints": [0.9, 0.99]},
    {"mc.trials": 5},
    {"mc": {}},
    {"sweep.kind": "cavity_c", "sweep.axis": [1, 10, 5]},
    {"link.eta_link": 0.01, "f_target": 0.95},
    {"pdr.T_V": 0.95, "sweep.second_axis": [0, 0.5, 3, "linear"]},
    {"cavity.g": 1.5, "link.r_cav_H": 0.64},
    {"constraints": [0.97], "mc.seed": 3},
]


def resolve_from_scratch(raw):
    """Every RunConfig field but raw, built from a merged raw config by the
    value types themselves."""
    sweep = raw["sweep"]
    axes = tuple(default if spec is None else SweepAxis(default.path, *spec[:3],
                                                        *(spec[3:] or [default.spacing]))
                 for spec, default in zip((sweep["axis"], sweep["second_axis"]),
                                          SWEEP_KINDS[sweep["kind"]]))
    return {"cavity": ps.CavityParams(**raw["cavity"]),
            "pdr": ps.PdrParams.from_power(**raw["pdr"]),
            "polarizer": ps.PolarizerParams(**raw["polarizer"]),
            "link": ps.LinkParams(**raw["link"]),
            "timing": ps.ProtocolTiming(**raw["timing"]), "f_target": raw["f_target"],
            "constraints": tuple(raw["constraints"]), "mc": McConfig(**raw["mc"]),
            "sweep": sweep, "axes": axes}


class TestLoadConfig:
    def test_preset_defaults(self):
        cfg = load_config()
        assert cfg.pdr.T_V == pytest.approx(0.99)
        assert cfg.pdr.R_H == pytest.approx(0.15)
        assert cfg.cavity.cooperativity == pytest.approx(4.0)
        assert cfg.link.eta_det == 0.936
        assert cfg.r_cav_h == pytest.approx(complex(-math.sqrt(0.921), 0.0))

    def test_preset_is_the_design_point(self):
        cfg = load_config()
        assert cfg.cavity == ps.design_cavity()
        assert cfg.pdr == ps.design_pdr()
        assert cfg.polarizer == ps.design_polarizer()
        assert cfg.link == ps.design_link()
        assert cfg.timing == ps.design_timing()
        assert cfg.r_cav_h == ps.params.DESIGN_R_CAV_H
        assert cfg.config_hash == "ee86378e7f882f44"

    def test_override_layering(self):
        cfg = load_config(overrides=["link.eta_link=0.01", "f_target=0.97"])
        assert cfg.link.eta_link == 0.01
        assert cfg.f_target == 0.97
        # untouched keys keep their defaults
        assert cfg.link.eta_det == 0.936

    def test_file_then_override(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"f_target": 0.9, "mc": {"trials": 7}}))
        cfg = load_config(p, overrides=["f_target=0.98"])
        assert cfg.f_target == 0.98
        assert cfg.mc.trials == 7

    def test_unknown_key_reports_dotted_path(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"link": {"eta_detector": 0.9}}))
        with pytest.raises(ConfigError, match=r"link\.eta_detector"):
            load_config(p)

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match=r"link\.bogus"):
            load_config(overrides=["link.bogus=1"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(overrides=["just-a-word"])

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "f_target": 0.9,\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(p)

    def test_range_violation_names_bound(self):
        with pytest.raises(ConfigError, match=r"\[0,\s*1\]"):
            load_config(overrides=["link.eta_link=1.5"])

    @pytest.mark.parametrize("setting,message", [
        # the H cavity field reflection derives from link.r_cav_H, which
        # refuses what the removed r_cav_h key did; that key is now unknown
        ("link.r_cav_H=NaN", "r_cav_H out of [0,1]: nan"),
        ("link.r_cav_H=Infinity", "r_cav_H out of [0,1]: inf"),
        ('link.r_cav_H="a"', "link.r_cav_H must be a number, got 'a'"),
        ("link.r_cav_H=true", "link.r_cav_H must be a number, got True"),
        ("link.r_cav_H=1.1025", "r_cav_H out of [0,1]: 1.1025"),
        ("r_cav_h=[0,-1.01]", "unknown config key: r_cav_h"),
        ("cavity.delta_c=NaN", "delta_c must be finite, got nan"),
        ("cavity.kappa=1e400", "kappa must be finite, got inf"),
        ("cavity.g=1e200", "g, kappa and gamma must give a finite cooperativity "
                           "4 g^2 / (kappa gamma), got g = 1e+200, kappa = 1.0, gamma = 1.0"),
        ('cavity.kappa="x"', "cavity.kappa must be a number, got 'x'"),
        ("cavity.kappa=true", "cavity.kappa must be a number, got True"),
        ("pdr.reflection_sign=true", "pdr.reflection_sign must be a number, got True"),
        ('link.xi="0.01"', "link.xi must be a number, got '0.01'"),
        ('f_target="a"', "f_target must be a number, got 'a'"),
        ('constraints=[0.9,"x"]', "constraint must be a number, got 'x'"),
        ("sweep.with_mc=False", "sweep.with_mc must be true or false, got 'False'"),
        ("sweep.with_mc=1", "sweep.with_mc must be true or false, got 1"),
        ("sweep.with_mc=off", "sweep.with_mc must be true or false, got 'off'"),
    ], ids=["nan", "inf", "text", "bool", "amplifying", "amplifying_im", "delta_c", "kappa_inf", "g_overflow", "kappa_text", "kappa_bool", "sign_bool",
            "xi_text", "f_target_text", "constraint_text", "flag_text", "flag_number",
            "with_mc_text"])
    def test_non_finite_device_setting_is_named(self, setting, message):
        with pytest.raises(ConfigError) as exc:
            load_config(overrides=[setting])
        assert str(exc.value) == message

    @pytest.mark.parametrize("setting", ["link.r_cav_H=1", "link.r_cav_H=0.36",
                                         "link.r_cav_H=0"])
    def test_passive_r_cav_h_is_accepted(self, setting):
        assert abs(load_config(overrides=[setting]).r_cav_h) <= 1

    @pytest.mark.parametrize("source", ["set", "file"])
    def test_r_cav_h_derives_from_link_r_cav_H(self, tmp_path, capsys, source):
        # one key sets the H cavity reflection for both the fidelity kernel
        # (the field r_cav_h) and the rate partition (the power r_cav_H)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"link": {"r_cav_H": 0.81}}))
        args = ["--config", str(path)] if source == "file" else ["--set", "link.r_cav_H=0.81"]
        cfg = load_config(path) if source == "file" else load_config(overrides=args[1:])
        assert cfg.r_cav_h == complex(-0.9, 0.0)

        def row(command):
            out = tmp_path / f"{command}.json"
            assert main(["--command", command, *args, "--format", "json",
                         "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            return dict(zip(payload["columns"], payload["rows"][0]))

        design = load_config()
        assert row("fidelity")["f_avg"] == ps.transfer_fidelity(
            design.pdr, design.polarizer, design.cavity, r_cav_h=-0.9).f_avg
        link = ps.LinkParams(eta_link=1e-3, eta_det=0.936, r_cav_V_avg=0.356, r_cav_H=0.81)
        assert row("diagnose")["p_det"] == ps.attempt_probabilities(
            design.pdr, design.polarizer, link).p_det
        capsys.readouterr()

    def test_sweep_axes_are_parsed_at_load(self):
        assert load_config().axes == (SweepAxis("pdr.T_V", 0.5, 1.0, 101),
                                      SweepAxis("pdr.R_H", 0.0, 0.6, 101))
        cfg = load_config(overrides=["sweep.kind=cavity_c", 'sweep.axis=[1,10,5,"linear"]'])
        assert cfg.axes == (SweepAxis("cavity.cooperativity", 1, 10, 5),)
        cfg = load_config(overrides=["sweep.second_axis=[0,0.5,3]"])
        assert cfg.axes == (SweepAxis("pdr.T_V", 0.5, 1.0, 101),
                            SweepAxis("pdr.R_H", 0, 0.5, 3))

    def test_null_xi_is_the_only_null_device_setting(self):
        # null, the default, takes xi from r_cav_H
        assert load_config(overrides=["link.xi=null"]).link == load_config().link
        with pytest.raises(ConfigError, match=r"^link\.eta_det must be a number, got None$"):
            load_config(overrides=["link.eta_det=null"])

    def test_hash_stable_and_sensitive(self):
        a = load_config()
        b = load_config()
        c = load_config(overrides=["f_target=0.96"])
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash
        assert len(a.config_hash) == 16

    def test_defaults_nest_at_most_two_levels(self):
        # load_config copies the merged config one container level down; a
        # container of DEFAULTS below that would be shared between runs
        for key, val in DEFAULTS.items():
            if isinstance(val, dict):
                val = list(val.values())
            for item in val if isinstance(val, list) else []:
                assert not isinstance(item, (dict, list, tuple, set)), key

    def test_mutating_a_resolved_config_leaves_defaults_alone(self):
        before = copy.deepcopy(DEFAULTS)
        try:
            # the defaults alone, then configs whose settings reach some keys
            for overrides in ([], ["link.eta_link=0.01", "f_target=0.97"],
                              ["sweep.axis=[0.5,1,3]", "constraints=[0.9]", "mc.trials=5"]):
                cfg = load_config(overrides=overrides)
                resolved = copy.deepcopy(cfg)
                for val in [*cfg.raw.values(), cfg.sweep]:
                    if isinstance(val, dict):
                        for key in val:
                            val[key] = "mutated"
                        val["extra"] = 1
                    elif isinstance(val, list):
                        val[:] = ["mutated"]
                        val.append(2)
                assert DEFAULTS == before, overrides
                assert load_config(overrides=overrides) == resolved, overrides
                fresh = load_config()
                assert fresh.raw == before, overrides
                assert fresh.config_hash == "ee86378e7f882f44", overrides
        finally:
            # on failure, put DEFAULTS back in place for the tests that follow
            for key, val in before.items():
                if isinstance(val, dict):
                    DEFAULTS[key].clear()
                    DEFAULTS[key].update(val)
                elif isinstance(val, list):
                    DEFAULTS[key][:] = val

    @pytest.mark.parametrize("source", ["set", "file"])
    @pytest.mark.parametrize("settings", RESOLUTION_CASES,
                             ids=["+".join(case) for case in RESOLUTION_CASES])
    def test_each_key_resolves_as_from_scratch(self, tmp_path, source, settings):
        nested, expected_raw = {}, copy.deepcopy(DEFAULTS)
        for dotted, value in settings.items():
            *parents, last = dotted.split(".")
            at, into = nested, expected_raw
            for key in parents:
                at, into = at.setdefault(key, {}), into[key]
            at[last] = value
            if isinstance(value, dict):
                into[last].update(value)
            else:
                into[last] = value
        if source == "file":
            path = tmp_path / "run.json"
            path.write_text(json.dumps(nested))
            cfg = load_config(path)
        else:
            cfg = load_config(overrides=[f"{k}={json.dumps(v)}" for k, v in settings.items()])
        # json tells true from 1, 1 from 1.0 and -0.0 from 0.0, as == does not
        assert json.dumps(cfg.raw, sort_keys=True) == json.dumps(expected_raw, sort_keys=True)
        expected = resolve_from_scratch(expected_raw)
        assert set(expected) == set(RunConfig._fields) - {"raw"}
        for field, value in expected.items():
            assert getattr(cfg, field) == value, field
            assert repr(getattr(cfg, field)) == repr(value), field
        # the H cavity field reflection is derived from link.r_cav_H, not set
        assert cfg.r_cav_h == complex(-math.sqrt(expected_raw["link"]["r_cav_H"]), 0.0)
        # a key no setting reached reuses the defaults' resolved field; one a
        # setting reached, even to an equal value, is resolved anew
        base, touched = load_config(), {dotted.split(".")[0] for dotted in settings}
        for key in DEFAULTS:
            field = "axes" if key == "sweep" else key
            assert (getattr(cfg, field) is getattr(base, field)) == (key not in touched), key
        for key, val in cfg.raw.items():
            if isinstance(val, (dict, list)):
                assert val is not DEFAULTS[key] and val is not base.raw[key], key
        assert cfg.sweep is not cfg.raw["sweep"] and cfg.sweep is not base.sweep
        resolved = copy.deepcopy(cfg)
        for val in [*cfg.raw.values(), cfg.sweep]:
            if isinstance(val, (dict, list)):
                val.clear()
        assert (load_config(path) if source == "file" else
                load_config(overrides=[f"{k}={json.dumps(v)}" for k, v in settings.items()])
                ) == resolved
        assert load_config() == base
        assert load_config().config_hash == "ee86378e7f882f44"

    def test_echo_contains_every_preset_key(self):
        echoed = json.loads(load_config().echo_json())
        assert set(echoed["config"]) == set(DEFAULTS)

    def test_mapping_override_keeps_other_keys(self):
        echoed = json.loads(load_config(overrides=['mc={"trials":5}']).echo_json())
        assert echoed["config"]["mc"] == {**DEFAULTS["mc"], "trials": 5}

    @pytest.mark.parametrize("overrides,match", [
        (["f_target.x=1"], r"unknown config key: f_target\.x"),
        (['f_target={"x":1}'], r"unknown config key: f_target\.x"),
        (['link={"xi":{"a":1}}'], r"unknown config key: link\.xi\.a"),
    ])
    def test_mapping_over_scalar_is_unknown_key(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            load_config(overrides=overrides)


class TestWriteTable:
    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            write_table({"a": 1.0}, "yaml", tmp_path / "x.yaml", "deadbeef")

    def test_csv_full_precision_roundtrip(self, tmp_path):
        path = tmp_path / "row.csv"
        value = 0.1234567890123456789
        write_table({"v": value}, "csv", path, "cafe")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["v"]) == value
        assert rows[0]["config_hash"] == "cafe"


def run_cli(args, tmp_path, capsys):
    code = main(args + ["--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    return code, captured, tmp_path / "out.csv"


class TestMain:
    def test_fidelity_csv(self, tmp_path, capsys):
        code, cap, out = run_cli(["--command", "fidelity"], tmp_path, capsys)
        assert code == 0
        echoed = json.loads(cap.out)
        assert "config_hash" in echoed
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["f_avg"]) == pytest.approx(0.99985, abs=1e-4)
        assert rows[0]["config_hash"] == echoed["config_hash"]

    def test_rate_json(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        code = main(["--command", "rate", "--format", "json",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        cols = payload["columns"]
        row = dict(zip(cols, payload["rows"][0]))
        assert row["n_max"] == 1908
        assert row["rate"] == pytest.approx(1250.36, abs=0.5)
        assert row["regime"] == 3

    def test_diagnose(self, tmp_path, capsys):
        code, _, out = run_cli(["--command", "diagnose"], tmp_path, capsys)
        assert code == 0
        with out.open() as fh:
            row = {k: float(v) for k, v in next(csv.DictReader(fh)).items()
                   if k != "config_hash"}
        assert row["p_det"] == pytest.approx(2.397e-4, rel=1e-3)
        assert row["loss_balance_residual"] == pytest.approx(0.02473, abs=1e-4)

    @pytest.mark.parametrize("setting,n_max", [
        # an H photon that seldom reaches the spin raises n_max (1908 -> 1918)
        ("link.xi=0.01", 1918),
    ], ids=["xi"])
    def test_rate_and_montecarlo_share_n_max(self, tmp_path, capsys, setting, n_max):
        # rate, montecarlo and the loss sweep at 30 dB share f0 and the link
        sets = ["--set", setting, "--format", "json"]
        rate_out, mc_out = tmp_path / "rate.json", tmp_path / "mc.json"
        assert main(["--command", "rate", "--out", str(rate_out),
                     "--set", "link.eta_link=1e-3"] + sets) == 0
        assert main(["--command", "montecarlo", "--trials", "2", "--seed", "1",
                     "--out", str(mc_out), "--set", "link.eta_link=1e-3"] + sets) == 0
        assert main(["--command", "sweep", "--set", "sweep.kind=rate_vs_loss",
                     "--set", "sweep.axis=[30,31,2]", "--set", "constraints=[0.95]",
                     "--out", str(tmp_path / "sweep.json")] + sets) == 0
        capsys.readouterr()
        rate = json.loads(rate_out.read_text())
        row = dict(zip(rate["columns"], rate["rows"][0]))
        assert row["n_max"] == n_max
        assert json.loads(mc_out.read_text())["metadata"]["n_max"] == n_max
        curve = json.loads((tmp_path / "sweep_f95.json").read_text())
        at_30_db = dict(zip(curve["columns"], curve["rows"][0]))
        assert at_30_db["loss_db"] == 30.0
        assert (at_30_db["n_max"], at_30_db["rate"]) == (n_max, row["rate"])

    def test_sweep_rate_writes_one_file_per_constraint(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(["--command", "sweep",
                     "--set", "sweep.kind=rate_vs_loss",
                     "--set", "sweep.axis=[10,30,3]",
                     "--set", "constraints=[0.95,0.99]",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "rates_f95.csv").exists()
        assert (tmp_path / "rates_f99.csv").exists()

    @pytest.mark.parametrize("constraints,named", [
        ("[0.95,0.99,0.999,0.9998]",
         "[0.95, 0.99, 0.999, 0.9998] would share output files: "
         "rates_f95.csv, rates_f99.csv, rates_f100.csv, rates_f100.csv"),
        ("[0.95,0.95]", "[0.95, 0.95] would share output files: rates_f95.csv, rates_f95.csv"),
    ], ids=["round_alike", "repeated"])
    def test_sweep_rate_refuses_constraints_that_share_a_file(self, tmp_path, capsys,
                                                               constraints, named):
        code = main(["--command", "sweep", "--set", "sweep.kind=rate_vs_loss",
                     "--set", "sweep.axis=[10,30,3]", "--set", f"constraints={constraints}",
                     "--out", str(tmp_path / "rates.csv")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "validation"
        assert named in err["detail"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("constraints,got", [
        ("[]", "[]"), ("{}", "{}"), ("0.95", "0.95"), ('"abc"', "'abc'"),
    ], ids=["empty_list", "empty_mapping", "number", "text"])
    def test_sweep_rate_refuses_constraints_that_are_not_a_list(self, tmp_path, capsys,
                                                                constraints, got):
        # an empty list wrote no file with exit 0; a text was read letter by letter
        code = main(["--command", "sweep", "--set", "sweep.kind=rate_vs_loss",
                     "--set", f"constraints={constraints}",
                     "--out", str(tmp_path / "rates.csv")])
        err = json.loads(capsys.readouterr().err)
        assert (code, err["error"]) == (2, "validation")
        assert err["detail"] == f"constraints must be a non-empty list of numbers, got {got}"
        assert list(tmp_path.iterdir()) == []

    def test_montecarlo_deterministic(self, tmp_path, capsys):
        args = ["--command", "montecarlo", "--seed", "3", "--trials", "40",
                "--set", "link.eta_link=0.01"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("args", [
        ["--command", "fidelity", "--set", "link.eta_det=2.0"],
        ["--command", "sweep", "--set", "sweep.kind=pdr",
         "--set", "sweep.axis=[NaN,1,3]"],
        ["--command", "sweep", "--set", "sweep.kind=cavity_c",
         "--set", "sweep.axis=[0,20,5]"],
        ["--command", "sweep", "--set", "sweep.axis=[0.5,1]"],
        ["--command", "fidelity", "--set", "pdr.reflection_sign=0.5"],
        ["--command", "sweep", "--set", "sweep.kind=cavity_c",
         "--set", "sweep.second_axis=[0,1,3]"],
        ["--command", "sweep", "--set", "sweep.kind=rate_vs_loss",
         "--set", "sweep.second_axis=[0,1,3]"],
        ["--command", "sweep", "--set", "sweep.kind=pdr", "--set", "sweep.with_mc=true"],
        ["--command", "sweep", "--set", "sweep.kind=cavity_coupling",
         "--set", "sweep.with_mc=true"],
        # a removed key: unknown under every sweep kind
        *[["--command", "sweep", "--set", f"sweep.kind={kind}",
           "--set", "false_herald_correction=true"]
          for kind in ("pdr", "cavity_c", "cavity_coupling")],
        ["--command", "sweep", "--set", "sweep.kind=rate_vs_loss",
         "--set", "sweep.axis=[-3,0,4]"],
        ["--command", "sweep", "--set", "sweep.kind=rate_vs_loss",
         "--set", "sweep.axis=[-3,0,4]", "--set", "sweep.with_mc=true"],
        ["--command", "sweep", "--set", "sweep.kind=cavity_coupling",
         "--set", "sweep.axis=[0,1,2.7]"],
        ["--command", "sweep", "--set", "sweep.kind=cavity_coupling",
         "--set", "sweep.axis=[true,2,3]"],
    ], ids=["eta_det", "nan_axis", "log_axis_from_zero", "two_entry_axis",
            "reflection_sign", "second_axis_cavity_c", "second_axis_rate_vs_loss",
            "with_mc_pdr", "with_mc_cavity_coupling", "false_herald_pdr",
            "false_herald_cavity_c", "false_herald_cavity_coupling",
            "loss_below_0_db", "loss_below_0_db_with_mc", "fractional_num", "bool_start"])
    def test_validation_exit_code(self, tmp_path, capsys, args):
        code, cap, _ = run_cli(args, tmp_path, capsys)
        assert code == 2
        assert json.loads(cap.err)["error"] == "validation"

    @pytest.mark.parametrize("kind,setting,named", [
        ("cavity_c", 'sweep.axis=[0.5,20,11,"db"]', "axis cavity.cooperativity"),
        ("pdr", 'sweep.second_axis=[0,0.6,5,"db"]', "axis pdr.R_H"),
    ], ids=["cavity_c_axis", "pdr_second_axis"])
    def test_sweep_refuses_db_spacing_off_the_loss_axis(self, tmp_path, capsys, kind,
                                                         setting, named):
        code, cap, out = run_cli(["--command", "sweep", "--set", f"sweep.kind={kind}",
                                  "--set", setting], tmp_path, capsys)
        err = json.loads(cap.err)
        assert (code, err["error"]) == (2, "validation")
        assert f"{named}: db spacing applies only to loss_db" in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        ["--set", 'f_target="a"'],
        ["--set", "constraints=5"],
        {"f_target": {"x": 1}},
        ["--set", "mc=5"],
        ["--set", "sweep=5"],
        # a removed key: unknown, whatever its value
        ["--set", "false_herald_correction=False"],
        ["--set", "false_herald_correction=1"],
        ["--set", "sweep.with_mc=off"],
    ], ids=["f_target_text", "constraints_scalar", "file_f_target_mapping",
            "mc_scalar", "sweep_scalar", "false_herald_text", "false_herald_number",
            "with_mc_text"])
    def test_bad_setting_type_exit_code(self, tmp_path, capsys, setting):
        if isinstance(setting, dict):
            path = tmp_path / "run.json"
            path.write_text(json.dumps(setting))
            setting = ["--config", str(path)]
        code, cap, _ = run_cli(["--command", "rate"] + setting, tmp_path, capsys)
        assert code == 2
        assert json.loads(cap.err)["error"] == "validation"

    @pytest.mark.parametrize("source", ["set", "file"])
    def test_file_setting_is_refused_as_a_set_one(self, tmp_path, capsys, source):
        if source == "file":
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"link": {"eta_det": True}}))
            setting = ["--config", str(path)]
        else:
            setting = ["--set", "link.eta_det=true"]
        code, cap, out = run_cli(["--command", "fidelity"] + setting, tmp_path, capsys)
        assert code == 2
        assert json.loads(cap.err) == {"error": "validation",
                                       "detail": "link.eta_det must be a number, got True"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fidelity", "rate", "montecarlo", "diagnose"])
    @pytest.mark.parametrize("setting", [
        'mc.trials="x"', "mc.trials=0", "mc.trials=true", "mc.trials=2.5",
        'mc.seed="x"', "mc.seed=-1",
        # removed keys: an unknown key, whatever its value
        'mc.draw_cap="x"', "mc.draw_cap=0",
        'mc.attempt_cap="x"', "mc.attempt_cap=0", "mc.harmonic_rate=1",
    ])
    def test_bad_mc_setting_exit_code(self, tmp_path, capsys, command, setting):
        # every command checks the mc section, not only those that simulate
        code, cap, _ = run_cli(["--command", command, "--set", setting],
                               tmp_path, capsys)
        assert code == 2
        assert json.loads(cap.err)["error"] == "validation"

    @pytest.mark.parametrize("command", ["fidelity", "rate", "sweep", "montecarlo",
                                         "diagnose"])
    @pytest.mark.parametrize("settings,message", [
        (['sweep.axis="x"'], "sweep axis must be [start, stop, num] or "
                             "[start, stop, num, spacing], got 'x'"),
        (["sweep.axis=[0,1,2.7]"], "sweep axis [0, 1, 2.7]: axis pdr.T_V: num must be an "
                                   "integer, got 2.7"),
        (["sweep.second_axis=[1,0,3]"], "sweep axis [1, 0, 3]: axis pdr.R_H: start must "
                                        "be < stop"),
        (["sweep.kind=cavity_c", "sweep.second_axis=[0,1,3]"],
         "sweep.second_axis applies only to the pdr sweep, not cavity_c"),
        # link.r_cav_H now sets the H cavity field reflection too, so the
        # amplifying, infinite and overflowing cases of the removed r_cav_h
        # and timing.pulse_multiplier keys stay refused, as unknown keys
        (["r_cav_h=[1.05,0]"], "unknown config key: r_cav_h"),
        # JSON reads 1e400 as inf; rate once wrote 0.0 and montecarlo a nan std_error
        (["timing.tau_reset=1e400"], "tau_reset must be finite, got inf"),
        (["timing.tau_pulse=1e400"], "tau_pulse must be finite, got inf"),
        (["timing.pulse_multiplier=1e400"], "unknown config key: timing.pulse_multiplier"),
        (["timing.tau_pulse=1e200", "timing.pulse_multiplier=1e200"],
         "unknown config key: timing.pulse_multiplier"),
        # removed keys: the device fidelity already holds the direct V
        # reflection; the H cavity field reflection derives from link.r_cav_H;
        # the slot time is tau_pulse itself
        (["false_herald_correction=true"], "unknown config key: false_herald_correction"),
        (["r_cav_h=[-0.9,0.2]"], "unknown config key: r_cav_h"),
        (["timing.pulse_multiplier=1"], "unknown config key: timing.pulse_multiplier"),
    ], ids=["axis_text", "axis_fractional_num", "axis_reversed", "second_axis_cavity_c",
            "amplifying_r_cav_h", "infinite_tau_reset", "infinite_tau_pulse",
            "infinite_pulse_multiplier", "overflowing_tau_slot", "removed_false_herald",
            "removed_r_cav_h", "removed_pulse_multiplier"])
    def test_setting_refused_by_every_command(self, tmp_path, capsys, command, settings,
                                              message):
        # every command checks the sweep axes, which move the config hash, as
        # it checks the mc section, before the config echo
        args = [arg for setting in settings for arg in ("--set", setting)]
        code, cap, out = run_cli(["--command", command, *args], tmp_path, capsys)
        assert (code, cap.out) == (2, "")
        assert json.loads(cap.err) == {"error": "validation", "detail": message}
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["mc.draw_cap=1000", "mc.draw_cap=100000000"])
    def test_removed_draw_cap_names_the_key(self, tmp_path, capsys, setting):
        # a trial takes two draws, so there is no draw count left to bound
        code, cap, _ = run_cli(["--command", "montecarlo", "--set", setting],
                               tmp_path, capsys)
        assert code == 2
        assert json.loads(cap.err)["detail"] == "unknown config key: mc.draw_cap"

    @pytest.mark.parametrize("setting,field", [
        ("cavity.delta_c=NaN", "delta_c"), ("cavity.delta_a=Infinity", "delta_a"),
        ('link.r_cav_H="a"', "link.r_cav_H"), ("link.r_cav_H=true", "link.r_cav_H"),
        ('cavity.kappa="x"', "cavity.kappa"),
        ("pdr.reflection_sign=true", "pdr.reflection_sign"),
        # JSON reads 1e400 as inf
        ("cavity.g=1e400", "g"), ("cavity.gamma=1e400", "gamma"),
        ("cavity.kappa=1e400", "kappa"),
        # a cooperativity past the largest double: an OverflowError traceback
        # from g**2, or all-NaN fidelities from a subnormal rate
        ("cavity.g=1e200", "g, kappa and gamma"), ("cavity.g=1e155", "g, kappa and gamma"),
        ("cavity.gamma=1e-310", "g, kappa and gamma"),
    ])
    def test_non_finite_device_setting_exit_code(self, tmp_path, capsys, setting, field):
        # refused before any output, where it once gave nan or a traceback
        code, cap, _ = run_cli(["--command", "fidelity", "--set", setting],
                               tmp_path, capsys)
        assert code == 2
        err = json.loads(cap.err)
        assert err["error"] == "validation"
        assert err["detail"].startswith(f"{field} must ")
        assert cap.out == "" and list(tmp_path.iterdir()) == []

    def test_rate_at_90_db(self, tmp_path, capsys):
        # n_max from the 60-digit oracle (see test_rate.ORACLE_N_MAX_AND_RATE)
        code, _, out = run_cli(["--command", "rate", "--set", "link.eta_link=1e-9"],
                               tmp_path, capsys)
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert int(row["n_max"]) == 1908407501
        assert row["cap_reached"] == "False"

    def test_rate_past_the_attempt_cap_exit_code(self, tmp_path, capsys):
        code, cap, _ = run_cli(["--command", "rate", "--set", "link.eta_link=1e-17"],
                               tmp_path, capsys)
        assert code == 5
        assert json.loads(cap.err)["error"] == "numerical"

    def test_rate_past_3080_db_exit_code(self, tmp_path, capsys):
        # 1 / (p_det + p_e) overflows there, and 2**53 attempts still meet
        # the target: the attempt cap, as at 170 dB
        code, cap, out = run_cli(["--command", "rate", "--set", "link.eta_link=1e-310"],
                                 tmp_path, capsys)
        assert code == 5
        assert json.loads(cap.err)["error"] == "numerical"
        assert not out.exists()

    @pytest.mark.parametrize("settings,got", [
        (["cavity.kappa=1e10", "cavity.gamma=1e10", "cavity.g=1e155"],
         "got g = 1e+155, kappa = 10000000000.0, gamma = 10000000000.0"),
        (["cavity.kappa=1e-300", "cavity.gamma=1e-300", "cavity.g=1e-300",
          "cavity.kappa_wg=1e-300"], "got g = 1e-300, kappa = 1e-300, gamma = 1e-300"),
    ], ids=["g_squared_overflows", "dc_da_underflows"])
    def test_cavity_reflection_past_a_double_exit_code(self, tmp_path, capsys, settings, got):
        # the cooperativity fits a double, but g**2 or dc da in the
        # reflection does not
        code, cap, out = run_cli(["--command", "fidelity",
                                  *(arg for s in settings for arg in ("--set", s))],
                                 tmp_path, capsys)
        assert code == 2
        err = json.loads(cap.err)
        assert err["error"] == "validation"
        assert err["detail"].startswith("g, kappa and gamma must ")
        assert err["detail"].endswith(got)
        assert not out.exists()

    def test_infeasible_exit_code(self, tmp_path, capsys):
        code, cap, _ = run_cli(
            ["--command", "rate", "--set", "f_target=0.99999"],
            tmp_path, capsys)
        assert code == 3
        assert json.loads(cap.err)["error"] == "infeasible"

    def test_io_exit_code(self, tmp_path, capsys):
        code, cap, _ = run_cli(
            ["--command", "fidelity", "--config", str(tmp_path / "missing.json")],
            tmp_path, capsys)
        assert code == 4
        assert json.loads(cap.err)["error"] == "io"

    @pytest.mark.parametrize("kind", ["pdr", "rate_vs_loss"])
    @pytest.mark.parametrize("out", [".", "/", ".."])
    def test_io_exit_code_for_an_out_path_without_a_name(self, tmp_path, capsys,
                                                        monkeypatch, kind, out):
        monkeypatch.chdir(tmp_path)
        code = main(["--command", "sweep", "--set", f"sweep.kind={kind}",
                     "--set", "sweep.axis=[0,1,2]", "--out", out])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert list(tmp_path.iterdir()) == []

    def test_numerical_exit_code(self, tmp_path, capsys):
        # about 4e30 attempts to the first click at 300 dB: past the
        # sampler's attempt cap, where a count would not fit its integers
        code, cap, out = run_cli(
            ["--command", "montecarlo", "--trials", "1",
             "--set", "link.eta_link=1e-30",
             "--set", "f_target=0.5"],
            tmp_path, capsys)
        assert code == 5
        err = json.loads(cap.err)
        assert err["error"] == "numerical"
        assert err["detail"].startswith("no detection within 2**62 attempts")
        assert not out.exists()

    @pytest.mark.parametrize("target,args,size", [
        ("polspin.params.SweepAxis.values",
         ["--command", "sweep", "--set", "sweep.kind=cavity_coupling",
          "--set", "sweep.axis=[0,1,1000000000000]"], lambda axis: axis.num),
        ("polspin.montecarlo._trials", ["--command", "montecarlo", "--trials", "1000000000000"],
         lambda probs, n_max, trials, rng: trials),
    ], ids=["sweep_axis", "mc_trials"])
    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch, target, args,
                                     size):
        # the call that would allocate 10**12 values raises in its place,
        # so the test allocates nothing
        sizes = []

        def refuse(*call):
            sizes.append(size(*call))
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(target, refuse)
        code, cap, out = run_cli(args, tmp_path, capsys)
        assert (code, sizes) == (5, [10**12])
        assert json.loads(cap.err) == {"error": "numerical",
                                       "detail": "Unable to allocate 7.28 TiB"}
        assert not out.exists()

    def test_montecarlo_with_a_click_far_rarer_than_an_error(self, tmp_path, capsys):
        # about 1e9 attempts, most of them errors, to the click: two draws
        code, _, out = run_cli(
            ["--command", "montecarlo", "--trials", "3",
             "--set", "link.eta_det=1e-9"],
            tmp_path, capsys)
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert float(row["mean_rate"]) > 0 and row["trials"] == "3"

    def test_montecarlo_at_90_db(self, tmp_path, capsys):
        # about 4e9 attempts per trial, drawn as one number
        code, _, out = run_cli(
            ["--command", "montecarlo", "--trials", "1",
             "--set", "link.eta_link=1e-9",
             "--set", "f_target=0.5"],
            tmp_path, capsys)
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert float(row["mean_rate"]) > 0 and row["trials"] == "1"
        assert row["std_error"] == "nan"  # one trial has no spread

    def test_rate_vs_loss_metadata_carries_the_device_fidelity(self, tmp_path, capsys):
        cfg = load_config()
        assert main(["--command", "sweep", "--set", "sweep.kind=rate_vs_loss",
                     "--set", "sweep.axis=[0,10,2]", "--set", "constraints=[0.95]",
                     "--format", "json", "--out", str(tmp_path / "rates.json")]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "rates_f95.json").read_text())["metadata"]
        assert "false_herald_correction" not in meta
        assert meta["f0"] == ps.transfer_fidelity(cfg.pdr, cfg.polarizer, cfg.cavity,
                                                  r_cav_h=cfg.r_cav_h).f_avg


class TestSweepCsvRoundTrip:
    """Every sweep kind written through main parses back with csv + float to
    exactly the values the sweep functions return, NaN and inf included."""

    @staticmethod
    def read(path):
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        body = [[float(x) for x in row[:-1]] for row in rows[1:]]
        return rows[0], np.array(body), {row[-1] for row in rows[1:]}

    def check(self, path, header, columns, config_hash):
        got_header, body, hashes = self.read(path)
        assert got_header == header + ["config_hash"]
        assert hashes == {config_hash}
        assert body.shape == (columns[0].size, len(columns))
        for i, col in enumerate(columns):
            assert np.array_equal(body[:, i], col, equal_nan=True), header[i]

    def run(self, tmp_path, capsys, sets, fmt="csv"):
        out = tmp_path / f"out.{fmt}"
        args = ["--command", "sweep", "--out", str(out), "--format", fmt]
        for expr in sets:
            args += ["--set", expr]
        assert main(args) == 0
        capsys.readouterr()
        return out, load_config(overrides=sets)

    def test_pdr(self, tmp_path, capsys):
        out, cfg = self.run(tmp_path, capsys, ["sweep.kind=pdr", "sweep.axis=[0.5,1.0,9]",
                                               "sweep.second_axis=[0.0,0.6,7]"])
        res = sweep_fidelity_pdr(SweepAxis("pdr.T_V", 0.5, 1.0, 9),
                                 SweepAxis("pdr.R_H", 0.0, 0.6, 7),
                                 cfg.cavity, cfg.polarizer, r_cav_h=cfg.r_cav_h)
        assert np.isnan(res.values).any()
        tv, rh = np.meshgrid(res.axes[0][1], res.axes[1][1], indexing="ij")
        self.check(out, ["pdr.T_V", "pdr.R_H", "fidelity"],
                   [tv.ravel(), rh.ravel(), res.values.ravel()], cfg.config_hash)

    def test_pdr_at_the_configured_losses(self, tmp_path, capsys):
        # from_power's amplitudes give back 0.004999999999999999 and
        # 0.010000000000000009; the sweep takes the zetas as configured
        sets = ["sweep.kind=pdr", "sweep.axis=[0.5,1.0,9]", "sweep.second_axis=[0.0,0.6,7]",
                "pdr.zeta_V=0.005", "pdr.zeta_H=0.01", "pdr.reflection_sign=1"]
        out, cfg = self.run(tmp_path, capsys, sets, fmt="json")
        assert (cfg.pdr.zeta_V, cfg.pdr.zeta_H) != (0.005, 0.01)
        res = sweep_fidelity_pdr(SweepAxis("pdr.T_V", 0.5, 1.0, 9),
                                 SweepAxis("pdr.R_H", 0.0, 0.6, 7), cfg.cavity,
                                 cfg.polarizer, zeta_V=0.005, zeta_H=0.01,
                                 r_cav_h=cfg.r_cav_h, reflection_sign=1)
        payload = json.loads(out.read_text())
        assert (payload["metadata"]["zeta_V"], payload["metadata"]["zeta_H"]) == (0.005, 0.01)
        values = np.array([row[2] for row in payload["rows"]], dtype=float)
        assert np.array_equal(values, res.values.ravel(), equal_nan=True)

    @pytest.mark.parametrize("kind,which,axis", [
        ("cavity_c", "cooperativity", SweepAxis("cavity.cooperativity", 0.5, 20.0, 11, "log")),
        ("cavity_coupling", "coupling", SweepAxis("cavity.coupling_ratio", 0.05, 1.0, 20)),
    ])
    def test_cavity(self, tmp_path, capsys, kind, which, axis):
        spec = json.dumps([axis.start, axis.stop, axis.num, axis.spacing])
        out, cfg = self.run(tmp_path, capsys, [f"sweep.kind={kind}", f"sweep.axis={spec}"])
        res = sweep_fidelity_cavity(axis, cfg.pdr, cfg.polarizer, cfg.cavity,
                                    which=which, r_cav_h=cfg.r_cav_h)
        self.check(out, [axis.path, "fidelity"], [res.axes[0][1], res.values],
                   cfg.config_hash)

    def test_rate_vs_loss(self, tmp_path, capsys):
        out, cfg = self.run(tmp_path, capsys, ["sweep.kind=rate_vs_loss",
                                               "sweep.axis=[0,30,4]",
                                               "constraints=[0.95,0.99999]"])
        results = sweep_rate_vs_loss(SweepAxis("loss_db", 0.0, 30.0, 4, "db"), cfg.pdr,
                                     cfg.polarizer, cfg.cavity, cfg.link, cfg.timing,
                                     constraints=cfg.constraints, r_cav_h=cfg.r_cav_h)
        assert np.isnan(results[0.99999].values).all()
        for suffix, f_target in (("_f95", 0.95), ("_f100", 0.99999)):
            res = results[f_target]
            self.check(tmp_path / f"out{suffix}.csv",
                       ["loss_db", "rate", "bound", "n_max", "regime"],
                       [res.axes[0][1], res.values, *res.columns.values()],
                       cfg.config_hash)

    @pytest.mark.parametrize("sets,library", [
        (["sweep.kind=pdr", "sweep.axis=[0.5,1.0,9]", "sweep.second_axis=[0.0,0.6,7]"],
         lambda cfg: {"": sweep_fidelity_pdr(
             SweepAxis("pdr.T_V", 0.5, 1.0, 9), SweepAxis("pdr.R_H", 0.0, 0.6, 7),
             cfg.cavity, cfg.polarizer, r_cav_h=cfg.r_cav_h)}),
        (["sweep.kind=cavity_c", 'sweep.axis=[-1,20,6,"linear"]'],
         lambda cfg: {"": sweep_fidelity_cavity(
             SweepAxis("cavity.cooperativity", -1.0, 20.0, 6), cfg.pdr, cfg.polarizer,
             cfg.cavity, which="cooperativity", r_cav_h=cfg.r_cav_h)}),
        (["sweep.kind=cavity_coupling", "sweep.axis=[0.2,1.4,7]"],
         lambda cfg: {"": sweep_fidelity_cavity(
             SweepAxis("cavity.coupling_ratio", 0.2, 1.4, 7), cfg.pdr, cfg.polarizer,
             cfg.cavity, which="coupling", r_cav_h=cfg.r_cav_h)}),
        (["sweep.kind=rate_vs_loss", "sweep.axis=[0,30,4]", "constraints=[0.95,0.99999]"],
         lambda cfg: dict(zip(("_f95", "_f100"), sweep_rate_vs_loss(
             SweepAxis("loss_db", 0.0, 30.0, 4, "db"), cfg.pdr, cfg.polarizer,
             cfg.cavity, cfg.link, cfg.timing, constraints=cfg.constraints,
             r_cav_h=cfg.r_cav_h).values()))),
    ], ids=["pdr", "cavity_c", "cavity_coupling", "rate_vs_loss"])
    def test_json_rows_equal_csv(self, tmp_path, capsys, sets, library):
        """A sweep's JSON rows hold its CSV body bit for bit, NaN included,
        and its metadata counts the NaN cells as the library does."""
        _, cfg = self.run(tmp_path, capsys, sets)
        self.run(tmp_path, capsys, sets, fmt="json")
        nan_cells = 0
        for suffix, res in library(cfg).items():
            header, body, _ = self.read(tmp_path / f"out{suffix}.csv")
            payload = json.loads((tmp_path / f"out{suffix}.json").read_text())
            assert payload["columns"] == header
            assert {row[-1] for row in payload["rows"]} == {cfg.config_hash}
            rows = np.array([row[:-1] for row in payload["rows"]], dtype=float)
            assert rows.shape == body.shape and rows.tobytes() == body.tobytes()
            assert payload["metadata"]["nan_reasons"] == res.metadata["nan_reasons"]
            nan_cells += int(np.isnan(body).sum())
        assert nan_cells > 0


class TestSweepCsvBytes:
    """A sweep's CSV is byte for byte what csv.writer makes of its meshgrid
    rows, for every sweep kind and for values whose text is easy to get
    wrong."""

    HASH = "b480b247e256f11f"

    def check(self, tmp_path, res, row=None):
        """row: the {column: value} of a result that is not a sweep."""
        reference = tmp_path / "reference.csv"
        if row is None:
            grids = np.meshgrid(*(vals for _, vals in res.axes), indexing="ij")
            columns = [col.ravel().tolist()
                       for col in (*grids, res.values, *res.columns.values())]
            header = [name for name, _ in res.axes] + [res.quantity] + list(res.columns)
            rows = zip(*columns)
        else:
            header, rows = list(row), [row.values()]
        with reference.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header + ["config_hash"])
            writer.writerows([*fields, self.HASH] for fields in rows)
        write_table(res, "csv", tmp_path / "out.csv", self.HASH)
        assert (tmp_path / "out.csv").read_bytes() == reference.read_bytes()

    def test_non_square_pdr_map(self, tmp_path):
        cfg = load_config()
        res = sweep_fidelity_pdr(SweepAxis("pdr.T_V", 0.5, 1.0, 7),
                                 SweepAxis("pdr.R_H", 0.0, 0.6, 5),
                                 cfg.cavity, cfg.polarizer, r_cav_h=cfg.r_cav_h)
        assert np.isnan(res.values).any() and not np.isnan(res.values).all()
        self.check(tmp_path, res)

    @pytest.mark.parametrize("which,axis", [
        ("cooperativity", SweepAxis("cavity.cooperativity", 0.5, 20.0, 11, "log")),
        ("coupling", SweepAxis("cavity.coupling_ratio", 0.05, 1.0, 20)),
    ])
    def test_cavity(self, tmp_path, which, axis):
        cfg = load_config()
        self.check(tmp_path, sweep_fidelity_cavity(
            axis, cfg.pdr, cfg.polarizer, cfg.cavity, which=which, r_cav_h=cfg.r_cav_h))

    def test_rate_vs_loss_with_mc(self, tmp_path):
        cfg = load_config()
        results = sweep_rate_vs_loss(
            SweepAxis("loss_db", 0.0, 20.0, 3, "db"), cfg.pdr, cfg.polarizer,
            cfg.cavity, cfg.link, cfg.timing, constraints=(0.6, 0.95, 0.99999),
            mc=McConfig(trials=20, seed=3), r_cav_h=cfg.r_cav_h)
        assert (results[0.6].columns["n_max"] == ATTEMPT_SEARCH_CAP).all()
        assert np.isnan(results[0.99999].values).all()
        for res in results.values():
            assert {"mc_rate", "mc_std_error"} <= set(res.columns)
            self.check(tmp_path, res)

    def test_fidelity_report(self, tmp_path):
        cfg = load_config()
        report = ps.transfer_fidelity(cfg.pdr, cfg.polarizer, cfg.cavity, r_cav_h=cfg.r_cav_h)
        self.check(tmp_path, report, {"f_avg": report.f_avg, **{
            f"fidelity_{label}": fid for label, fid in report.per_input}})

    @pytest.mark.parametrize("f_target", [0.95, 0.5], ids=["bounded", "unbounded"])
    def test_rate_result(self, tmp_path, f_target):
        cfg = load_config()
        res = ps.transfer_rate(cfg.pdr, cfg.polarizer, cfg.cavity, cfg.link, cfg.timing,
                               f_target, r_cav_h=cfg.r_cav_h)
        assert res.unbounded == (f_target == 0.5)
        fields = ("n_max", "p_error", "p_success", "t_failures", "t_success", "rate", "regime",
                  "unbounded", "cap_reached")
        self.check(tmp_path, res, {name: getattr(res, name) for name in fields})

    def test_diagnose_row(self, tmp_path):
        # the row the diagnose command writes
        cfg = load_config()
        probs = ps.attempt_probabilities(cfg.pdr, cfg.polarizer, cfg.link)
        eff = ps.effective_reflections(cfg.pdr, cfg.polarizer, cfg.cavity, r_cav_h=cfg.r_cav_h)
        row = {"loss_balance_residual": ps.loss_balance_residual(eff), "p_det": probs.p_det,
               "p_lost": probs.p_lost, "p_e_canonical": probs.p_e}
        self.check(tmp_path, row, row)

    def test_awkward_values(self, tmp_path):
        values = np.array([[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1e22]])
        self.check(tmp_path, SweepResult(
            axes=[("x", np.array([-0.0, 5e-324, 0.1 + 0.2])), ("y", np.array([1e22, -1.5]))],
            values=values, quantity="q",
            columns={"k": np.arange(6).reshape(3, 2), "flag": np.isnan(values),
                     "v": values.T.reshape(3, 2) * (0.1 + 0.2)}))


def test_sweep_csv_memory_stays_flat(tmp_path):
    """The CSV writer holds one block of rows at a time, not the whole map."""
    cfg = load_config()
    res = sweep_fidelity_pdr(SweepAxis("pdr.T_V", 0.5, 1.0, 301),
                             SweepAxis("pdr.R_H", 0.0, 0.6, 301),
                             cfg.cavity, cfg.polarizer, r_cav_h=cfg.r_cav_h)
    tracemalloc.start()
    try:
        write_table(res, "csv", tmp_path / "map.csv", cfg.config_hash)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
