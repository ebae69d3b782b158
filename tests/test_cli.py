import importlib
import importlib.util
import json
import logging
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ctxdep import read_table_csv
from ctxdep.config import KEYS
from ctxdep.cli import (
    ConfigError,
    load_config,
    main,
    parse_config,
    parse_gate_string,
    parse_gate_token,
    run_scenario,
    validate,
)


class TestGateTokens:
    def test_basic_tokens(self):
        assert parse_gate_token("I").axis == "I"
        x = parse_gate_token("X_pi")
        assert (x.axis, x.angle) == ("X", pytest.approx(math.pi))
        y = parse_gate_token("Y_-pi/2")
        assert (y.axis, y.angle) == ("Y", pytest.approx(-math.pi / 2))
        r = parse_gate_token("X_0.5rad")
        assert r.angle == pytest.approx(0.5)
        d = parse_gate_token("X_pi@3")
        assert d.duration == 3

    def test_label_round_trip(self):
        for token in ("I", "X_pi", "Y_-pi/2", "X_pi/2", "Y_pi", "X_-pi"):
            assert parse_gate_token(token).label == token

    def test_repetition_shorthand(self):
        gates = parse_gate_string("X_pi I*3 Y_pi")
        assert [g.label for g in gates] == ["X_pi", "I", "I", "I", "Y_pi"]

    @pytest.mark.parametrize("bad", ["Z_pi", "X", "I_pi", "X_piq", "X_pi/0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_gate_token(bad)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.scenario == "fig2a"
        assert cfg.p_ground == pytest.approx(0.92)
        assert cfg.eta == pytest.approx(0.95)
        assert cfg.gamma1 == pytest.approx(1.0 / 60e-6)
        assert cfg.resolved_gamma_phi() == pytest.approx(cfg.gamma1 / 2.0)
        assert cfg.resolved_gamma3() == pytest.approx(cfg.gamma1 * 0.08 / 0.92)
        assert cfg.t_gate == pytest.approx(20e-9)
        assert cfg.shots is None
        assert cfg.bootstrap_resamples == 500

    def test_phi_values(self):
        cfg = parse_config("phi_values = [0, 0.001, 0.005]")
        assert cfg.resolved_phi_values() == (0.0, 0.001, 0.005)

    def test_scenario_default_phi_grid(self):
        assert parse_config("scenario = fig3a").resolved_phi_values() == (
            0.0,
            0.005,
            0.01,
            0.02,
        )

    def test_shots(self):
        assert parse_config("shots = exact").shots is None
        assert parse_config("shots = 1000").shots == 1000
        with pytest.raises(ConfigError):
            parse_config("shots = 0")

    def test_comments_and_whitespace(self):
        cfg = parse_config("# a comment\n\n  seed = 7  \n")
        assert cfg.seed == 7

    @pytest.mark.parametrize(
        "text",
        [
            "nonsense",
            "unknown_key = 3",
            "p = 1.5",
            "eta = 0",
            "scenario = fig9",
            "seed = 1.5",
            "phi_values = [0, oops]",
            "seed = 1\nseed = 2",
            "bootstrap_resamples = 50",
            # a bool is not an integer
            "n = true",
            "cyclic_order = true",
            "m_values = [true, 3]",
            # every number must be finite
            "gamma1 = nan",
            "t_gate = inf",
            "phi_values = [0, nan]",
            # two keys that set the same attribute
            "t1_us = 30\ngamma1 = 5",
            # an empty list, which would run nothing
            "phi_values = []",
            # a coupling angle whose generator overflows matexp
            "phi_values = [1e300]",
            # an empty output directory, which the run cannot create
            'output_dir = ""',
        ],
    )
    def test_rejects_invalid(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_t1_alias(self):
        cfg = parse_config("t1_us = 30")
        assert cfg.gamma1 == pytest.approx(1.0 / 30e-6)

    def test_custom_requires_family_and_gates(self):
        with pytest.raises(ConfigError):
            validate(parse_config("scenario = custom"))
        with pytest.raises(ConfigError):
            validate(parse_config('scenario = custom\nfamily = repetition\ngates = "X_pi"'))
        cfg = parse_config(
            'scenario = custom\nfamily = repetition\ngates = "X_pi"\nm_values = [0, 1, 2, 3]'
        )
        validate(cfg)
        assert cfg.m_values == (0, 1, 2, 3)

    @pytest.mark.parametrize("key", ["gates", "reference"])
    def test_bad_repeat_count_names_key(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: .*X_pi\\*abc"):
            parse_config(f'{key} = "X_pi*abc"')

    def test_rejects_colliding_phi_folders(self):
        # both angles print as 1e-07, so they would share the folder phi_1e-07
        cfg = parse_config("phi_values = [1e-7, 1.0000001e-7]")
        with pytest.raises(ConfigError, match="phi_1e-07"):
            validate(cfg)
        validate(parse_config("phi_values = [1e-7, 1.00001e-7]"))

    def test_reference_gate_string(self):
        cfg = parse_config('reference = "I I"')
        assert [g.label for g in cfg.reference] == ["I", "I"]


class TestRunScenario:
    def _run(self, tmp_path, text):
        cfg = parse_config(text + f'\noutput_dir = "{tmp_path}/out"')
        status = run_scenario(cfg)
        return cfg, status

    def test_custom_repetition_run(self, tmp_path, capsys):
        cfg, status = self._run(
            tmp_path,
            "scenario = custom\n"
            "family = repetition\n"
            'gates = "X_pi"\n'
            "m_values = [0, 5, 10, 15, 20]\n"
            "phi_values = [0]\n",
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "RepLinearity" in out and "ContextIndependent" in out
        phi_dir = os.path.join(cfg.output_dir, "phi_0")
        tables = os.listdir(os.path.join(phi_dir, "tables"))
        assert len(tables) == 5
        # every emitted table round-trips through the reader
        for name in tables:
            table = read_table_csv(os.path.join(phi_dir, "tables", name))
            assert table.entries.shape == (4, 4)
        report = json.load(open(os.path.join(phi_dir, "report_replinearity_X_pi.json")))
        assert report["kind"] == "RepLinearity"
        assert report["verdict"] == "ContextIndependent"
        assert os.path.exists(os.path.join(phi_dir, "report_cpwitness_X_pi.json"))
        assert os.path.exists(os.path.join(phi_dir, "report_volume_X_pi.json"))
        plot = open(os.path.join(phi_dir, "plot_replinearity_X_pi.csv")).read().splitlines()
        assert plot[0] == "index,statistic,ci_low,ci_high,phi"
        assert len(plot) == 6

    def test_fig2a_preset_null_case(self, tmp_path, capsys):
        cfg, status = self._run(tmp_path, "scenario = fig2a\nphi_values = [0]\n")
        assert status == 0
        out = capsys.readouterr().out
        assert "PermDet" in out and "ContextIndependent" in out
        report = json.load(
            open(os.path.join(cfg.output_dir, "phi_0", "report_permdet.json"))
        )
        assert report["verdict"] == "ContextIndependent"
        assert report["summary"]["spread"] < 1e-9
        assert len(report["members"]) == 251

    def test_custom_cyclic_detects_coupling(self, tmp_path, capsys):
        cfg, status = self._run(
            tmp_path,
            "scenario = custom\n"
            "family = cyclic\n"
            'gates = "X_pi I*30"\n'
            "phi_values = [0.005]\n",
        )
        assert status == 2
        assert "CyclicFid" in capsys.readouterr().out
        report = json.load(
            open(os.path.join(cfg.output_dir, "phi_0.005", "report_cyclicfid.json"))
        )
        assert report["verdict"] == "ContextDependent"
        reference = os.path.join(cfg.output_dir, "phi_0.005", "tables", "reference.csv")
        assert read_table_csv(reference).label == "reference"

    def test_volume_report_carries_no_verdict(self, tmp_path, capsys):
        # at this coupling RepLinearity on the same tables is ContextDependent,
        # so a descriptive series must not claim ContextIndependent
        cfg, status = self._run(tmp_path, "scenario = fig3a\nphi_values = [0.02]\n")
        assert status == 2
        assert "Volume" not in capsys.readouterr().out
        phi_dir = Path(cfg.output_dir) / "phi_0.02"
        volume = json.loads((phi_dir / "report_volume_I.json").read_text())
        assert volume["kind"] == "Volume"
        assert volume["verdict"] is None and volume["threshold"] is None
        replinearity = json.loads((phi_dir / "report_replinearity_I.json").read_text())
        assert replinearity["verdict"] == "ContextDependent"

    def test_custom_permutation_sampled(self, tmp_path, capsys):
        cfg, status = self._run(
            tmp_path,
            "scenario = custom\n"
            "family = permutation\n"
            'gates = "I X_pi"\n'
            "n = 6\n"
            "phi_values = [0]\n"
            "shots = 20000\n"
            "bootstrap_resamples = 150\n",
        )
        assert status == 0
        table = read_table_csv(
            os.path.join(cfg.output_dir, "phi_0", "tables", "perm001.csv")
        )
        assert table.shots == 20000

    @pytest.mark.parametrize(
        "family_lines,primary",
        [
            # NaN bootstrap thresholds from -inf resampled log-dets
            ('family = permutation\ngates = "I X_pi"\nn = 4\nphi_values = [0.005]\n'
             "seed = 1\nbootstrap_resamples = 200\n", "report_permdet.json"),
            # a NaN fit weight, which used to end in an unconverged lstsq
            ('family = repetition\ngates = "I"\nm_values = [0, 200, 400, 600]\n'
             "phi_values = [0]\nseed = 0\nbootstrap_resamples = 100\n",
             "report_replinearity_I.json"),
            # a singular reference draw, which used to abort the run in inv()
            ('family = cyclic\ngates = "X_pi I*5"\nphi_values = [0]\n'
             "bootstrap_resamples = 100\n", "report_cyclicfid.json"),
        ],
        ids=["permutation", "repetition", "cyclic"],
    )
    def test_low_shot_reports_are_strict_json(self, tmp_path, capsys, family_lines, primary):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        path = tmp_path / "run.cfg"
        path.write_text("scenario = custom\nshots = 10\n" + family_lines)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        reports = {p.name: json.loads(p.read_text(), parse_constant=reject)
                   for p in out.glob("phi_*/report_*.json")}
        report = reports[primary]
        assert report["verdict"] == "Inconclusive"
        assert report["threshold"] is None
        assert "threshold" in report["details"]["non_finite"]
        assert report["details"]["inconclusive_reason"]

    @pytest.mark.parametrize("scenario", ["fig2a", "fig3a"])
    def test_plot_csv_fields_are_numbers(self, tmp_path, capsys, scenario):
        cfg, _ = self._run(tmp_path, f"scenario = {scenario}\nphi_values = [0.005]\n")
        plots = sorted(Path(cfg.output_dir).glob("phi_*/plot_*.csv"))
        assert plots
        for plot in plots:
            header, *rows = plot.read_text().splitlines()
            assert header == "index,statistic,ci_low,ci_high,phi"
            assert rows
            for row in rows:
                fields = row.split(",")
                assert len(fields) == 5
                for value in fields:
                    float(value)  # raises on e.g. "np.float64(-2.6)"

    def test_info_log_names_stages(self, tmp_path, capsys, caplog):
        text = 'scenario = custom\nfamily = cyclic\ngates = "X_pi I*5"\nphi_values = [0, 0.005]\n'
        with caplog.at_level(logging.DEBUG, logger="ctxdep"):
            self._run(tmp_path, text)
        stages = [r.getMessage() for r in caplog.records if r.name == "ctxdep.cli"]
        assert [m.split(":")[0] for m in stages] == [
            f"phi={phi} {stage}"
            for phi in ("0", "0.005")
            for stage in ("model build", "tables", "tests", "emit")
        ]
        assert all(m.endswith(" s") for m in stages)
        paths = [r.getMessage() for r in caplog.records if r.name == "ctxdep.experiment"]
        assert paths == ["rotations of X_piIIIII: cyclic-shaped products"] * 2

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        text = (
            "scenario = custom\n"
            "family = permutation\n"
            'gates = "I X_pi"\n'
            "n = 4\n"
            "phi_values = [0]\n"
            "shots = 5000\n"
            "bootstrap_resamples = 120\n"
            "seed = 31\n"
        )
        blobs = []
        for run in ("a", "b"):
            cfg = parse_config(text + f'output_dir = "{tmp_path}/{run}"')
            assert run_scenario(cfg) == 0
            chunks = []
            for root, _, files in os.walk(cfg.output_dir):
                for name in sorted(files):
                    with open(os.path.join(root, name), "rb") as fh:
                        chunks.append((name, fh.read()))
            blobs.append(sorted(chunks))
        assert blobs[0] == blobs[1]


def _traced_names():
    # perfbench/trace_child.py wraps these attributes in place, so renaming or
    # removing any of them breaks every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module.TARGETS]


@pytest.mark.parametrize("module_name,attr", _traced_names())
def test_traced_layer_names_resolve(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = fig2a\nshots = 100\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("shots = -3\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_error(self, capsys):
        assert main(["run", "--config", "/nonexistent/run.cfg"]) == 1

    @pytest.mark.parametrize("family", ["permutation", "cyclic", "repetition"])
    def test_scenario_override_is_validated(self, tmp_path, capsys, family):
        # the config is only incomplete once --scenario custom is applied
        path = tmp_path / "run.cfg"
        path.write_text(f"family = {family}\n")
        status = main(["run", "--config", str(path), "--scenario", "custom",
                       "--out", str(tmp_path / "out")])
        assert status == 1
        assert "gates" in capsys.readouterr().err

    def test_empty_custom_family_is_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text('scenario = custom\nfamily = cyclic\ngates = ""\n')
        assert main(["run", "--config", str(path)]) == 1

    def test_run_with_overrides(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "scenario = custom\n"
            "family = repetition\n"
            'gates = "I"\n'
            "m_values = [0, 4, 8, 12]\n"
            "phi_values = [0]\n"
        )
        status = main(
            [
                "run",
                "--config",
                str(path),
                "--shots",
                "2000",
                "--seed",
                "5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert status == 0
        assert os.path.isdir(tmp_path / "out" / "phi_0")

    def test_run_without_config_uses_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # fig3b preset with exact tables finishes quickly and exercises the
        # multi-family path
        status = main(["run", "--scenario", "fig3b", "--out", "out"])
        assert status == 2  # the default phi grid includes a coupled case
        out = capsys.readouterr().out
        assert out.count("RepLinearity") == 6  # 3 blocks x 2 phi values
        assert os.path.isdir("out/phi_0.005")

    @pytest.mark.parametrize(
        "text",
        [
            "p = 0\n",  # the default gamma3 divides by p
            'scenario = custom\nfamily = repetition\ngates = "X_pi"\nm_values = [3, 1, 2, 5]\n',
            'scenario = custom\nfamily = repetition\ngates = "X_pi"\nm_values = [0, 1, 2]\n',
            'scenario = custom\nfamily = repetition\ngates = "X_pi"\nm_values = [-1, 0, 1, 2]\n',
        ],
        ids=["p0-without-gamma3", "m-not-increasing", "three-m-values", "negative-m"],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["run", "--seed", "abc"], "--seed"),
            (["run", "--scenario", "fig9"], "--scenario"),
            (["run", "--shots", "0"], "--shots"),
            (["run", "--out", ""], "--out"),
            (["run", "--bogus", "1"], None),
            (["frobnicate"], None),
        ],
        ids=["seed-abc", "scenario-fig9", "shots-0", "out-empty", "unknown-flag",
             "unknown-command"],
    )
    def test_usage_errors_exit_1(self, capsys, argv, flag):
        # exit status 2 is reserved for a ContextDependent verdict
        assert main(argv) == 1
        err = capsys.readouterr().err
        if flag is not None:
            assert err.startswith(f"error: {flag}: ")

    def test_sampled_ill_conditioned_reference_is_inconclusive(self, tmp_path, capsys):
        # at 1 shot the sampled reference is a 0/1 table; for the default seed
        # at phi = 0 its condition number is about 1e18, which used to abort the run
        path = tmp_path / "run.cfg"
        path.write_text("scenario = fig2b\nshots = 1\nphi_values = [0]\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "phi_0" / "report_cyclicfid.json").read_text())
        assert report["verdict"] == "Inconclusive"
        assert re.fullmatch(r"reference table condition number \S+ exceeds 1e\+06",
                            report["details"]["inconclusive_reason"])
        assert (out / "phi_0" / "tables" / "reference.csv").exists()

    def test_single_shot_witness_is_inconclusive(self, tmp_path, capsys):
        # at 1 shot the witness intervals have zero width; at seed 2 the 0/1
        # tables at phi = 0 show a rise, which such intervals cannot confirm
        argv = ["run", "--scenario", "fig3a", "--shots", "1", "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "CPWitness" in out
        assert "ContextDependent" not in out

    def test_help_exits_0(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--scenario" in capsys.readouterr().out


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```")[1]
    keys = re.findall(r"^(\w+)\s*=", block, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(KEYS)
