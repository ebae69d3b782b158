import ast
import hashlib
import importlib
import importlib.util
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from ctxdep import analysis, read_table_csv
from ctxdep.cli import (
    _family_reports,
    _replacing,
    _report_name,
    _simulate,
    build_model,
    main,
    run_scenario,
)
from ctxdep.config import (
    KEYS,
    SCENARIOS,
    ConfigError,
    _phi_dir_name,
    load_config,
    parse_config,
    parse_gate_string,
    parse_gate_token,
    validate,
)
from ctxdep.experiment import Sequence, cyclic_family, permutation_family, repetition_family
from ctxdep.gates import (
    GATE_IDLE,
    GATE_X_HALF,
    GATE_X_MINUS_HALF,
    GATE_X_PI,
    GATE_Y_MINUS_HALF,
    GATE_Y_PI,
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

    def test_explicit_gamma3_reaches_the_model(self):
        assert parse_config("gamma3 = 2000").noise_params(0).gamma3 == 2000.0

    def test_p0_with_explicit_gamma3_validates(self):
        # only the default gamma3 divides by p
        cfg = parse_config("p = 0\ngamma3 = 2000")
        validate(cfg)
        assert cfg.noise_params(0).gamma3 == 2000.0

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


class TestScenarios:
    PRESETS = {
        "fig2a": ((0.0, 0.001, 0.005),
                  [("permutation", 251, "rearrangements of I^250 X_pi^250", None)]),
        "fig2b": ((0.0, 0.001, 0.005), [("cyclic", 501, "rotations of X_pi_I500", None)]),
        "fig3a": ((0.0, 0.005, 0.01, 0.02),
                  [("repetition", 11, "(I)^m", tuple(range(0, 501, 50)))]),
        "fig3b": ((0.0, 0.005), [
            ("repetition", 11, description, tuple(range(0, 251, 25)))
            for description in ("(X_pi)^m", "(X_piY_pi)^m", "(X_-pi/2X_pi/2)^m")]),
    }

    @pytest.mark.parametrize("scenario", PRESETS)
    def test_preset_grid_and_families(self, scenario):
        cfg = parse_config(f"scenario = {scenario}")
        phi, families = self.PRESETS[scenario]
        assert cfg.resolved_phi_values() == SCENARIOS[scenario][0] == phi
        assert [(f.kind, len(f.members), f.description, f.m_values)
                for f in cfg.families()] == families

    def test_scenario_key_takes_the_tables_names(self):
        assert KEYS["scenario"].kind == tuple(SCENARIOS) == (*self.PRESETS, "custom")

    def test_gate_strings_parse_to_the_gate_constants(self):
        # a preset written with gate constants equals the same custom gate string
        assert parse_gate_string("I X_pi X_pi/2 X_-pi/2 Y_pi Y_-pi/2") == (
            GATE_IDLE, GATE_X_PI, GATE_X_HALF, GATE_X_MINUS_HALF, GATE_Y_PI, GATE_Y_MINUS_HALF)

    @pytest.mark.parametrize("text,expected", [
        ('family = permutation\ngates = "X_pi Y_pi"\nn = 3\n',
         lambda: permutation_family(GATE_X_PI, GATE_Y_PI, 3)),
        ('family = cyclic\ngates = "X_pi I*3 Y_-pi/2"\n',
         lambda: cyclic_family(Sequence(
             (GATE_X_PI, GATE_IDLE, GATE_IDLE, GATE_IDLE, GATE_Y_MINUS_HALF), "X_piIIIY_-pi/2"))),
        ('family = repetition\ngates = "X_pi/2 Y_pi"\nm_values = [0, 1, 2, 5]\n',
         lambda: repetition_family([GATE_X_HALF, GATE_Y_PI], [0, 1, 2, 5])),
    ], ids=["permutation", "cyclic", "repetition"])
    def test_custom_family_is_its_constructors(self, text, expected):
        cfg = parse_config("scenario = custom\n" + text)
        validate(cfg)
        assert cfg.families() == [expected()]


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
        report = json.loads(Path(phi_dir, "report_replinearity_X_pi.json").read_text())
        assert report["kind"] == "RepLinearity"
        assert report["verdict"] == "ContextIndependent"
        # the block's volume and unitarity are summary numbers, not a report of their own
        assert {"volume_ratio", "unitarity_tilde"} <= report["summary"].keys()
        assert os.path.exists(os.path.join(phi_dir, "report_cpwitness_X_pi.json"))
        assert not list(Path(cfg.output_dir).rglob("*volume*"))
        plot = Path(phi_dir, "plot_replinearity_X_pi.csv").read_text().splitlines()
        assert plot[0] == "index,statistic,ci_low,ci_high,phi"
        assert len(plot) == 6

    def test_fig2a_preset_null_case(self, tmp_path, capsys):
        cfg, status = self._run(tmp_path, "scenario = fig2a\nphi_values = [0]\n")
        assert status == 0
        out = capsys.readouterr().out
        assert "PermDet" in out and "ContextIndependent" in out
        report = json.loads(Path(cfg.output_dir, "phi_0", "report_permdet.json").read_text())
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
        report = json.loads(Path(cfg.output_dir, "phi_0.005", "report_cyclicfid.json").read_text())
        assert report["verdict"] == "ContextDependent"
        reference = os.path.join(cfg.output_dir, "phi_0.005", "tables", "reference.csv")
        assert read_table_csv(reference).label == "reference"

    def test_one_rotation_supports_no_verdict(self, tmp_path, capsys):
        # a one-gate base has one rotation, whose spread is 0 even when coupled
        _, status = self._run(
            tmp_path, "scenario = custom\nfamily = cyclic\ngates = X_pi\nphi_values = [0, 0.005]\n"
        )
        assert status == 0
        out = capsys.readouterr().out
        assert out.count("CyclicFid") == 2 and "ContextIndependent" not in out

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


def _study_imports():
    # scripts/null_study.py imports ctxdep's own steps inside its functions (so
    # that `compare` needs no ctxdep); renaming any of them breaks the study
    path = Path(__file__).resolve().parents[1] / "scripts" / "null_study.py"
    return list(dict.fromkeys(
        (node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ctxdep"
        for alias in node.names))


@pytest.mark.parametrize("module_name,attr", _study_imports())
def test_null_study_names_resolve(module_name, attr):
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):  # `from package import submodule` imports it
        importlib.import_module(f"{module_name}.{attr}")
    assert getattr(module, attr) is not None


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
            'scenario = custom\nfamily = permutation\ngates = "X_pi"\nn = 3\n',
            'scenario = custom\nfamily = permutation\ngates = "X_pi Y_pi"\n',
        ],
        ids=["p0-without-gamma3", "m-not-increasing", "three-m-values", "negative-m",
             "permutation-one-gate", "permutation-without-n"],
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

    def test_ill_conditioned_reference_names_no_null(self, tmp_path, capsys):
        # an ill-conditioned sampled reference draws no null, delta or other
        assert main(["run", "--scenario", "fig2b", "--shots", "1", "--out", str(tmp_path)]) == 0
        reports = [json.loads(p.read_text()) for p in tmp_path.rglob("report_cyclicfid.json")]
        assert len(reports) == 3
        for report in reports:
            assert report["details"]["null"] == {"method": "none", "draws": 0,
                                                 "non_finite_frac": 0.0}

    def test_single_shot_reference_names_no_delta_null(self, tmp_path, capsys):
        # at seed 777 the 1-shot reference is regular, and its 0/1 cells had a
        # plug-in sd of 0, which sent it to the first-order null; the floored sd
        # sends it to the bootstrap
        argv = ["run", "--scenario", "fig2b", "--shots", "1", "--seed", "777"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        reports = [json.loads(p.read_text()) for p in tmp_path.rglob("report_cyclicfid.json")]
        assert len(reports) == 3
        for report in reports:
            assert report["details"]["null"]["method"] == "bootstrap"
            assert report["details"]["noise_amplification"] > analysis.LINEAR_NULL_LIMIT

    def test_single_shot_witness_is_inconclusive(self, tmp_path, capsys):
        # at 1 shot the witness intervals have zero width; at seed 2 the 0/1
        # tables at phi = 0 show a rise (log 3), which such intervals cannot
        # confirm: it is listed, but the summary must not call it indivisible
        argv = ["run", "--scenario", "fig3a", "--shots", "1", "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "CPWitness" in out
        assert "ContextDependent" not in out
        report = tmp_path / "out" / "phi_0" / "report_cpwitness_I.json"
        witness = json.loads(report.read_text())
        assert witness["summary"]["cp_indivisible"] is False
        assert witness["summary"]["n_increases"] == len(witness["details"]["increases"]) == 1

    def test_witness_on_non_finite_intervals_is_inconclusive(self, tmp_path, capsys):
        # at 3 shots, seed 1, -inf bootstrap log-dets leave NaN bounds on finite
        # members (m = 0, 150, ...), which RepLinearity already calls Inconclusive;
        # the witness cannot judge a rise there either, so it must not say
        # ContextIndependent at any phi
        argv = ["run", "--scenario", "fig3a", "--shots", "3", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "phi=0 CPWitness [(I)^m]: Inconclusive" in lines
        assert not [line for line in lines if "CPWitness" in line and "ContextIndependent" in line]
        report = tmp_path / "out" / "phi_0" / "report_cpwitness_I.json"
        witness = json.loads(report.read_text())
        assert witness["details"]["inconclusive_reason"].startswith(
            "non-finite interval for m=0, m=150, m=200")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fast_decay_runs(self, tmp_path, capsys):
        # T1 = 1 ns: the generators' entries reach 1e9, and their roundoff
        # must not read as a map that breaks Hermiticity, at any phi
        path = tmp_path / "run.cfg"
        path.write_text("scenario = fig3b\ngamma1 = 1e9\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "CPWitness" in capsys.readouterr().out

    def test_excluded_exact_members_name_their_condition(self, tmp_path, capsys):
        # at gamma_phi = 1e12 the m = 0 member has a finite log-det (-55.7) but a
        # 1-norm condition of 2.5e8; the rank-deficient members read 3.6e16 and
        # up, or inf (written null), and the report must tell them apart
        path = tmp_path / "run.cfg"
        path.write_text("scenario = fig3b\nshots = exact\ngamma_phi = 1e12\nphi_values = [0]\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        rep = json.loads((tmp_path / "out" / "phi_0" / "report_replinearity_X_pi.json").read_text())
        excluded = rep["details"]["excluded_condition"]
        assert len(excluded) == rep["summary"]["n_excluded"]
        assert excluded["X_pi_m0000"] == pytest.approx(2.5e8, rel=0.01)
        # a rank-deficient member's condition is inf (written null) or a finite
        # roundoff value past the limit, as the BLAS kernel rounds: X_pi_m0075
        # reads inf on AVX-512 and 8.7e16 on SSE3
        assert "X_pi_m0075" in excluded
        non_finite = rep["details"].get("non_finite", [])
        for label, cond in excluded.items():
            assert cond is None or cond > analysis.CONDITION_LIMIT, label
            assert (f"details.excluded_condition.{label}" in non_finite) == (cond is None), label

    def test_rank_deficient_exact_tables_are_excluded(self, tmp_path, capsys):
        # strong dephasing makes the exact tables singular from m = 25 on; their
        # slogdet is finite roundoff, which a fit would read as curvature and
        # call ContextDependent at zero coupling
        path = tmp_path / "run.cfg"
        path.write_text("scenario = fig3b\nshots = exact\ngamma_phi = 1e10\nphi_values = [0]\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "ContextDependent" not in capsys.readouterr().out
        rep = json.loads((tmp_path / "out" / "phi_0" / "report_replinearity_X_pi.json").read_text())
        assert rep["summary"]["n_excluded"] >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_repetition_skips_a_singular_first_member(self, tmp_path, capsys):
        # at 1 shot and seed 1 the m = 0 table at phi = 0 is singular: the fit
        # and the witness must leave it out without a RuntimeWarning
        argv = ["run", "--scenario", "fig3a", "--shots", "1", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "phi_0" / "report_replinearity_I.json").read_text())
        assert rep["members"][0]["statistic"] is None
        assert rep["summary"]["n_excluded"] >= 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "text,error",
        [
            ("shots = 100000000000000000000\n", "shots: must lie in ["),
            ("shots = 9223372036854775808\n", "shots: must lie in ["),
            ('scenario = custom\nfamily = permutation\ngates = "I X_pi"\n'
             "n = 100000000000000000000\n", "n: must lie in ["),
            ('scenario = custom\nfamily = repetition\ngates = "X_pi"\n'
             "m_values = [0, 1, 2, 1000000000000000000000000000000]\n", "m_values: must lie in ["),
            ('scenario = custom\nfamily = cyclic\ngates = "I*100000000000000000000"\n',
             f"gates: repeat count must be at most {sys.maxsize}: "),
            ('scenario = custom\nfamily = cyclic\ngates = "I@1' + "0" * 400 + '"\n',
             f"gates: duration must be at most {sys.maxsize}: "),
        ],
        ids=["shots-1e20", "shots-2**63", "n-1e20", "m-1e30", "count-1e20", "duration-1e400"],
    )
    def test_counts_too_large_to_run_are_errors(self, tmp_path, capsys, text, error, command):
        # these used to pass `validate`, or end it, in an OverflowError traceback
        # (numpy's int64 binomial count, a tuple or list length, or a duration
        # past the float range) before anything large was allocated
        path = tmp_path / "run.cfg"
        path.write_text("phi_values = [0]\n" + text)
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, "--config", str(path), *out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {error}")

    def test_unallocatable_gate_string_is_an_error_line(self, tmp_path, capsys):
        # within the repeat-count bound, but a list of about 0.7 EiB: Python
        # refuses it at once with a MemoryError that has no message, which
        # used to print as a bare "error: MemoryError" without the key
        path = tmp_path / "run.cfg"
        path.write_text('scenario = custom\nfamily = cyclic\ngates = "I*100000000000000000"\n')
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: gates: too many gates to hold in memory\n"

    def test_unallocatable_resamples_are_an_error_line(self, tmp_path, capsys):
        # validate accepts any count; numpy refuses the 114 PiB null draw at once
        # and allocates nothing, and the run used to end in a traceback
        path = tmp_path / "run.cfg"
        path.write_text("scenario = fig2a\nshots = 1000\nphi_values = [0]\n"
                        "bootstrap_resamples = 1000000000000000\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_shots_at_the_int64_bound_run(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"scenario = fig3b\nphi_values = [0.005]\nshots = {2**63 - 1}\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "ContextDependent" in capsys.readouterr().out

    def test_help_exits_0(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--scenario" in capsys.readouterr().out


def _tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: its relative path, length and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


class TestArtifactWriter:
    CYCLIC = 'scenario = custom\nfamily = cyclic\ngates = "X_pi I*5"\nphi_values = [0, 0.005]\n'

    def _main(self, tmp_path, text):
        # the writer thread must be joined whatever way the run ends
        path = tmp_path / "run.cfg"
        path.write_text(text)
        before = threading.enumerate()
        status = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert threading.enumerate() == before
        return status

    def test_sampled_run_joins_the_writer(self, tmp_path, capsys):
        status = self._main(tmp_path, self.CYCLIC + "shots = 1000\nbootstrap_resamples = 100\n")
        assert status in (0, 2)
        assert capsys.readouterr().err == ""
        assert len(list((tmp_path / "out").glob("phi_*/report_cyclicfid.json"))) == 2

    def test_write_error_stops_the_writes(self, tmp_path, capsys):
        blocker = tmp_path / "out" / "phi_0" / "tables"
        blocker.parent.mkdir(parents=True)
        blocker.write_text("")
        assert self._main(tmp_path, self.CYCLIC) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{blocker}'\n"
        assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == [blocker]

    def test_failed_test_keeps_its_tables(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("cyclic test failed")

        monkeypatch.setattr(analysis, "cyclic_fidelity_test", fail)
        assert self._main(tmp_path, self.CYCLIC) == 1
        assert capsys.readouterr().err == "error: cyclic test failed\n"
        out = tmp_path / "out"
        assert len(list((out / "phi_0" / "tables").glob("*.csv"))) == 7  # 6 rotations + reference
        assert not list(out.rglob("report_*.json"))

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            with _replacing(str(tmp_path / "table.csv")) as tmp, open(tmp, "w") as fh:
                fh.write("text\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_block_leaves_no_file(self, tmp_path):
        # the block fails after it created the temp file
        with pytest.raises(ValueError, match="not JSON compliant"):
            with _replacing(str(tmp_path / "report.json")) as tmp, open(tmp, "w") as fh:
                json.dump({"statistic": math.nan}, fh, allow_nan=False)
        assert list(tmp_path.iterdir()) == []

    # sha256 over every file a run writes, its name and its bytes (_tree_digest):
    # a changed byte, name or file set shows here.  Each run is a child process
    # on OpenBLAS's SSE3 kernels (PINNED_KERNEL), which run on any x86-64; the
    # kernels that OpenBLAS picks for other CPUs round products, slogdet and
    # solves differently.  Between them the pins cover each null path, named by
    # ``method`` (the details.null.method of every report that has a null):
    # cyclic-sampled the delta method; cyclic-bootstrap a 10-shot reference too
    # noisy for it; permutation-sampled and repetition-sampled the bootstrap of
    # the log-det tests, with the repetition fit and its witness; fig3b-exact
    # the exact floors of the three repetition blocks, whose volume ratios are
    # RepLinearity summary numbers and no files of their own.
    PINNED = {
        "cyclic-sampled": (
            'scenario = custom\nfamily = cyclic\ngates = "X_pi I*20"\nshots = 1000\n'
            "bootstrap_resamples = 120\nphi_values = [0, 0.005]\nseed = 5\n", 48,
            "4a72b9fa7c56f3020ec3e155ecf451f647e4199070e6233fe992c8a6e3808ff8", "delta"),
        "fig3b-exact": (
            "scenario = fig3b\nshots = exact\n", 84,
            "c4c0865e32cd9bed37288f1269f5d35c26a6ceb3995d3b8f97dbb4046bf2e41b", None),
        "permutation-sampled": (
            'scenario = custom\nfamily = permutation\ngates = "I X_pi"\nn = 6\nshots = 1000\n'
            "bootstrap_resamples = 120\nphi_values = [0, 0.005]\nseed = 5\n", 18,
            "2647a84529f782d3c58c654205e162ef426eb5dedb621fe0a953267c97919969", "bootstrap"),
        "cyclic-bootstrap": (
            'scenario = custom\nfamily = cyclic\ngates = "X_pi I*20"\nshots = 10\n'
            "bootstrap_resamples = 120\nphi_values = [0, 0.005]\nseed = 5\n", 48,
            "1ba2b90392afcdc8583c8bd1408f426afe61a5bae52e9c84c48ba90ab13f0e11", "bootstrap"),
        "repetition-sampled": (
            'scenario = custom\nfamily = repetition\ngates = "X_pi"\n'
            "m_values = [0, 10, 20, 30, 40]\nshots = 1000\n"
            "bootstrap_resamples = 120\nphi_values = [0, 0.005]\nseed = 5\n", 16,
            "d15e420bdbd37817e97a7b941d8c8bcb496a1293e8d2b47e9f57aab6c08ac542", "bootstrap"),
    }

    @pytest.mark.parametrize("name", ["cyclic-sampled", "repetition-sampled"])
    def test_study_steps_return_the_run_reports(self, tmp_path, capsys, name):
        # scripts/null_study.py calls _simulate and _family_reports: serialized as
        # _emit_reports does, their reports must be the files that the run writes
        cfg = parse_config(self.PINNED[name][0] + f'output_dir = "{tmp_path}"\n')
        run_scenario(cfg)
        written = []
        for phi in cfg.resolved_phi_values():
            model = build_model(cfg.noise_params(phi))
            for family in cfg.families():
                for report in _family_reports(cfg, family, *_simulate(cfg, family, model)):
                    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
                    file_name = f"report_{_report_name(family, report)}.json"
                    path = tmp_path / _phi_dir_name(phi) / file_name
                    assert path.read_bytes() == (text + "\n").encode()
                    written.append(path)
        assert sorted(written) == sorted(tmp_path.rglob("report_*.json"))

    @pytest.mark.parametrize("text,n_files,digest,method", PINNED.values(), ids=PINNED.keys())
    def test_artifacts_are_pinned(self, tmp_path, text, n_files, digest, method):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        child = _python_child(["-m", "ctxdep.cli", "run", "--config", str(path), "--out", str(out)],
                              **PINNED_KERNEL)
        assert child.returncode in (0, 2) and child.stderr == "", child.stderr
        assert len([p for p in out.rglob("*") if p.is_file()]) == n_files
        assert _tree_digest(out) == digest, _pinned_build_note()
        nulls = [json.loads(p.read_text())["details"].get("null")
                 for p in out.rglob("report_*.json")]
        assert {null["method"] for null in nulls if null} == ({method} if method else set())

    def test_both_hash_back_ends_write_the_pinned_bytes(self, tmp_path):
        # this process has loaded OpenSSL's hashlib, so the pinned runs above
        # never hash with CPython's built-in sha256; a fresh CLI process does,
        # and with a built-in hash module missing it keeps OpenSSL's; neither
        # may warn under dev mode
        text, _, digest, _ = self.PINNED["cyclic-bootstrap"]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        missing = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
        fallback = (f"import sys; sys.modules[{missing!r}] = None\n"
                    "from ctxdep.cli import main\nstatus = main(sys.argv[1:])\n"
                    "print('_hashlib' in sys.modules, 'numpy.random.mtrand' in sys.modules)\n"
                    "sys.exit(status)")
        children = {"built-in": ["-m", "ctxdep.cli"], "OpenSSL": ["-c", fallback]}
        for name, args in children.items():
            out = _python_child([*DEV_WARNINGS, *args, "run", "--config", str(path), "--out",
                                 str(tmp_path / name)], **PINNED_KERNEL)
            assert out.returncode in (0, 2) and out.stderr == "", (name, out.stderr)
            assert _tree_digest(tmp_path / name) == digest, (name, _pinned_build_note())
        # the fallback child loaded _hashlib, and still only numpy.random's Generator modules
        assert out.stdout.splitlines()[-1] == "True False"


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```")[1]
    keys = re.findall(r"^(\w+)\s*=", block, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(KEYS)


# Loaded by no run: scipy is a test dependency, numpy.ma comes with
# np.percentile (through np.unique), which the tests' quantiles avoid, and
# _hashlib is OpenSSL, which a run needs no hash from where Python has its own.
NEVER_LOADED = ("scipy", "numpy.ma", "_hashlib")
# Loaded only by what an exact run or `validate` never does: numpy.random and
# hashlib (via secrets/hmac too) serve sampling, and fractions/decimal served
# gate labels.
UNUSED_MODULES = NEVER_LOADED + ("numpy.random", "hashlib", "secrets", "decimal", "fractions")
# Loaded only by numpy.random's __init__: the legacy RandomState, the bit
# generators and pickling helpers a sampled run never uses.
LEGACY_RANDOM = ("numpy.random.mtrand", "numpy.random._mt19937", "numpy.random._sfc64",
                 "numpy.random._pickle")
# Loaded only once a run needs them: `import ctxdep`, the CLI module and
# `validate` need no numerical layer, nor json, which writes a run's reports.
NUMERICAL_MODULES = ("numpy", "ctxdep.ptm", "ctxdep.noise", "ctxdep.experiment",
                     "ctxdep.analysis")
REPORT_MODULES = ("json",)
# Loaded only for a record that could reach a handler: with CTXDEP_LOG unset,
# a run that warns of no singular table logs nothing.
LOGGING = ("logging",)

# json is loaded after the last step, to print what each step loaded
FOOTPRINT_CHILD = """
import ast, os, pickle, sys
os.environ.pop("CTXDEP_LOG", None)
setup_names, runs = ast.literal_eval(sys.argv[1])
def loaded(names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))
calls = {"build_model": 0, "run_scenario": 0}
found = {}
def record(step, names, status=0):
    found[step] = {"loaded": loaded(names) if status in (0, 2) else f"exit {status}",
                   "calls": dict(calls)}
    calls.update(dict.fromkeys(calls, 0))
import ctxdep
record("import ctxdep", setup_names)
# submodules and gate names resolve through the package, and private probes
# import nothing
from ctxdep import cli, config, GateSpec, GATE_X_PI
assert not hasattr(ctxdep, "__wrapped__") and getattr(ctxdep, "_x", None) is None
record("package names", setup_names)
for scenario in config.SCENARIOS:
    config.parse_config(f"scenario = {scenario}")
record("parse every scenario", setup_names)
import ctxdep.cli
record("import ctxdep.cli", setup_names)
# the run loop must look both names up on the CLI module, where a tracer wraps them
def counting(name, original):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return wrapper
for name in calls:
    setattr(ctxdep.cli, name, counting(name, getattr(ctxdep.cli, name)))
record("validate", setup_names, ctxdep.cli.main(["validate"]))
for name, argv, run_names in runs:
    record(name, run_names, ctxdep.cli.main(argv))
used = sys.modules.get("numpy.random")  # the package the sampled runs drew from
import _hashlib  # the runs blocked it for their imports only
# the same package, now full, on the Generator modules the sampled runs loaded
import numpy.random
assert numpy.random is used and sys.modules["numpy.random"] is used
assert numpy.random.Generator is sys.modules["numpy.random._generator"].Generator
assert numpy.random._generator is sys.modules["numpy.random._generator"]
numpy.random.bit_generator.SeedSequence(0)
gen = numpy.random.default_rng(0)
assert pickle.loads(pickle.dumps(gen)).random() == gen.random()
numpy.random.RandomState(0).random_sample()
import json
print(json.dumps(found))
"""


# OpenBLAS's SSE3 kernels, which run on any x86-64: the pinned digests hold on
# every CPU only where the BLAS kernel is fixed
PINNED_KERNEL = {"OPENBLAS_CORETYPE": "Prescott"}


def _pinned_build_note() -> str:
    """The numpy and OpenBLAS versions of this process, which the pinned digests
    depend on beside the kernel: a failure message names them."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode argument
        blas = {}
    return (f"digests pinned under numpy 2.4.6 with OpenBLAS 0.3.31.188.0; this is numpy "
            f"{numpy.__version__} with {blas.get('name', 'BLAS')} {blas.get('version', '?')}")


# Interpreter flags under which a child run must stay silent: dev mode's
# ResourceWarnings and every other warning are errors
DEV_WARNINGS = ("-X", "dev", "-W", "error")


def _python_child(args, **env_vars):
    env = dict(os.environ, **env_vars)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_exact_runs_and_validate_load_only_what_they_use(tmp_path):
    # one subprocess guards the import path: importing the package and the CLI
    # and validating load no numerical layer, no json and no logging, exact runs of
    # each family shape none of UNUSED_MODULES and LOGGING, and the sampled
    # runs that follow them none of NEVER_LOADED, LEGACY_RANDOM and LOGGING,
    # after which `import numpy.random` gives the package they drew from,
    # complete; every run builds its model through `ctxdep.cli.build_model`,
    # once per phi, and runs through `run_scenario`
    configs = {
        "permutation": 'family = permutation\ngates = "I X_pi"\nn = 3\n',
        "cyclic": 'family = cyclic\ngates = "X_pi I*5"\n',
        "repetition": 'family = repetition\ngates = "X_pi"\nm_values = [0, 2, 4, 6]\n',
    }
    jobs = [(family, family, "exact", UNUSED_MODULES + LOGGING) for family in configs]
    jobs += [(f"{family} sampled", family, "1000", NEVER_LOADED + LEGACY_RANDOM + LOGGING)
             for family in ("cyclic", "repetition")]
    runs = []
    for name, family, shots, names in jobs:
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"scenario = custom\nshots = {shots}\nphi_values = [0, 0.005]\n"
                        f"{configs[family]}")
        runs.append((name, ["run", "--config", str(path), "--out", str(tmp_path / name)], names))
    names = [UNUSED_MODULES + NUMERICAL_MODULES + REPORT_MODULES + LOGGING, runs]
    out = _python_child(["-c", FOOTPRINT_CHILD, repr(names)])
    assert out.returncode == 0, out.stderr
    found = json.loads(out.stdout.strip().splitlines()[-1])
    idle = {"loaded": [], "calls": {"build_model": 0, "run_scenario": 0}}
    ran = {"loaded": [], "calls": {"build_model": 2, "run_scenario": 1}}
    assert found == {"import ctxdep": idle, "package names": idle, "parse every scenario": idle,
                     "import ctxdep.cli": idle, "validate": idle,
                     **{name: ran for name, _, _ in runs}}


def test_sampled_run_keeps_a_loaded_numpy_random(tmp_path):
    # with numpy.random loaded before main, as in a library caller, the CLI
    # keeps that package: a bare one would shadow it; the bytes are the same
    # as those of a fresh CLI process, which loads only the Generator modules;
    # neither may warn, nor leave a writer-thread traceback on stderr
    argv = ["run", "--scenario", "fig2b", "--shots", "1000", "--out"]
    preloaded = ("import sys, numpy.random\nfrom ctxdep.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))")
    children = {"fresh": ["-m", "ctxdep.cli"], "preloaded": ["-c", preloaded]}
    for name, args in children.items():
        out = _python_child([*DEV_WARNINGS, *args, *argv, str(tmp_path / name)])
        assert (out.returncode, out.stderr) == (0, ""), name
    assert _tree_digest(tmp_path / "preloaded") == _tree_digest(tmp_path / "fresh")


# What a 10-shot run logs on every BLAS kernel: fig2a's perm082 at phi = 0.005 and
# fig3a's I_m0500 at phi = 0.02 are count tables with a rational determinant of 0,
# which OpenBLAS's SkylakeX LU gives a finite roundoff log-det; the condition limit
# excludes them on every kernel
TEN_SHOT_STDERR = {
    "fig2a": ["WARNING ctxdep.analysis: singular tables flagged: perm082"],
    "fig2b": [],
    "fig3a": ["WARNING ctxdep.analysis: excluding singular members from fit: I_m0500"],
}


@pytest.mark.parametrize("scenario", ["fig2a", "fig2b", "fig3a"])
def test_ten_shot_runs_raise_no_warning(tmp_path, scenario):
    # some bootstrap log-dets are -inf at 10 shots: their non-finite rows go
    # through the tests' own quantile helper, on the spread path (fig2a) and
    # the repetition path (fig3a); fig2b's reference is too noisy for the delta
    # method, and its cyclic bootstrap has non-finite and singular reference draws
    out = _python_child([*DEV_WARNINGS, "-m", "ctxdep.cli", "run", "--scenario", scenario,
                         "--shots", "10", "--out", str(tmp_path)])
    assert (out.returncode, out.stderr.splitlines()) == (0, TEN_SHOT_STDERR[scenario])


@pytest.mark.parametrize("kernel", [{}, PINNED_KERNEL], ids=["default", "Prescott"])
def test_singular_count_table_is_excluded_on_every_kernel(tmp_path, kernel):
    # perm082's LU has a zero pivot on the Haswell and Prescott kernels and a
    # pivot of roundoff size on SkylakeX; the report must not depend on which
    out = _python_child(["-m", "ctxdep.cli", "run", "--scenario", "fig2a", "--shots", "10",
                         "--out", str(tmp_path)], **kernel)
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "phi_0.005" / "report_permdet.json").read_text())
    assert report["details"]["singular_members"] == ["perm082"]
    assert list(report["details"]["excluded_condition"]) == ["perm082"]


THREADS_CHILD = """
import os, sys, time
os.environ.pop("OPENBLAS_NUM_THREADS", None)  # as in a shell that never set it
from ctxdep.cli import main
status = main(sys.argv[1:])
# the writer thread's OS thread may outlive its join() by a moment
deadline = time.monotonic() + 5
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
print(len(os.listdir("/proc/self/task")))
sys.exit(status)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc and at least 2 CPUs")
def test_run_starts_no_openblas_workers(tmp_path):
    # every product is 16x16 or smaller, so OpenBLAS's nproc - 1 workers would
    # only spin; main starts it with one thread, and no other thread outlives a run
    path = tmp_path / "run.cfg"
    path.write_text('scenario = custom\nfamily = cyclic\ngates = "X_pi I*5"\n'
                    "shots = exact\nphi_values = [0]\n")
    out = _python_child(["-c", THREADS_CHILD, "run", "--config", str(path), "--out",
                         str(tmp_path / "out")])
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "1"


def _assert_runs_without_svd(tmp_path, monkeypatch, argv, status):
    """Run ``ctxdep run argv`` plain, then with numpy's svd and lstsq refused: the
    second run must exit the same way and write the same bytes."""
    argv = ["run", *argv, "--out"]
    assert main([*argv, str(tmp_path / "plain")]) == status
    linalg = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]

    def refuse(*args, **kwargs):
        raise AssertionError("svd or lstsq called")

    for module in (linalg, sys.modules["numpy.linalg"]):
        monkeypatch.setattr(module, "svd", refuse)
        monkeypatch.setattr(module, "lstsq", refuse)
    assert main([*argv, str(tmp_path / "no-svd")]) == status
    assert _tree_digest(tmp_path / "no-svd") == _tree_digest(tmp_path / "plain")


# fig2b and fig3a at 1e3 shots find no ContextDependent member (fig3a's phi = 0.02
# fit is Inconclusive)
@pytest.mark.parametrize("scenario,shots,status", [("fig2a", "exact", 2),
                                                   ("fig2b", "exact", 2), ("fig2b", "1000", 0),
                                                   ("fig3a", "exact", 2), ("fig3a", "1000", 0),
                                                   ("fig3b", "exact", 2)])
def test_runs_need_no_svd(tmp_path, capsys, monkeypatch, scenario, shots, status):
    # an exact permutation run needs LU factorizations only (numpy's 2-norm
    # cond, norm(., 2) and matrix_rank all call the svd of numpy's linalg
    # module); the repetition line fit is a closed form, where numpy's lstsq
    # calls LAPACK's SVD-based gelsd; the cyclic test settles its condition gate
    # and its delta-method rule from 1-norm and Frobenius bounds, which are
    # decisive for these references
    _assert_runs_without_svd(tmp_path, monkeypatch, ["--scenario", scenario, "--shots", shots],
                             status)


def test_package_exports_each_layers_all():
    # the layers' own __all__ are the only lists of the package's names
    import ctxdep

    layers = [importlib.import_module(f"ctxdep.{name}")
              for name in ("gates", "ptm", "noise", "experiment", "analysis")]
    assert ctxdep.__all__ == sorted(set().union(*(module.__all__ for module in layers)))
    with pytest.raises(ImportError):
        from ctxdep import no_such_name  # noqa: F401


def test_package_names_are_their_modules_objects():
    # the package resolves its names on first use; each must be the very
    # object its module defines, and a star import must see them all
    import ctxdep

    layers = [importlib.import_module(f"ctxdep.{name}")
              for name in ("gates", "ptm", "noise", "experiment", "analysis")]
    for name in ctxdep.__all__:
        homes = [module for module in layers if hasattr(module, name)]
        assert homes, name
        assert all(getattr(module, name) is getattr(ctxdep, name) for module in homes), name
    namespace: dict = {}
    exec("from ctxdep import *", namespace)
    assert {name: namespace[name] for name in ctxdep.__all__} == {
        name: getattr(ctxdep, name) for name in ctxdep.__all__}
    assert set(ctxdep.__all__) <= set(dir(ctxdep))
    with pytest.raises(AttributeError):
        ctxdep.no_such_name


def test_run_without_numpy_fails_with_a_sentence(tmp_path):
    # -S hides site-packages: validate still works, a run must say why it cannot start
    probe = _python_child(["-S", "-c", "import numpy"])
    if probe.returncode == 0:
        pytest.skip("numpy is importable without site-packages")
    out = _python_child(["-S", "-m", "ctxdep.cli", "run", "--scenario", "fig3b",
                      "--out", str(tmp_path / "out")])
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "numpy" in out.stderr
    assert "Traceback" not in out.stderr


# a host program that calls main
MAIN_CHILD = "import sys\nfrom ctxdep.cli import main\nsys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("level", ["info", "debug"])
def test_log_level_prints_stage_and_path_lines(tmp_path, level):
    # in a child, whose logging loads for CTXDEP_LOG alone (pytest loads it
    # first): each phi's stage times at info, and at debug also the product
    # path of each family, in main's format
    path = tmp_path / "run.cfg"
    path.write_text('scenario = custom\nfamily = cyclic\ngates = "X_pi I*5"\n'
                    "shots = exact\nphi_values = [0, 0.005]\n")
    out = _python_child(["-c", MAIN_CHILD, "run", "--config", str(path), "--out",
                         str(tmp_path / "out")], CTXDEP_LOG=level)
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    stages = [re.sub(r": \d+\.\d{3} s$", ": … s", line) for line in lines
              if line.startswith("INFO ")]
    assert stages == [f"INFO ctxdep.cli: phi={phi} {stage}: … s" for phi in ("0", "0.005")
                      for stage in ("model build", "tables", "tests", "emit")]
    paths = ["DEBUG ctxdep.experiment: rotations of X_piIIIII: cyclic-shaped products"] * 2
    assert [line for line in lines if not line.startswith("INFO ")] == (
        paths if level == "debug" else [])


def test_module_run_logs_as_ctxdep_cli(tmp_path):
    # under `python -m` the module's __name__ is __main__, which a level or
    # handler set on the `ctxdep` logger would miss
    out = _python_child(["-m", "ctxdep.cli", "run", "--scenario", "fig3b", "--shots", "exact",
                         "--out", str(tmp_path / "out")], CTXDEP_LOG="info")
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert lines and all(line.startswith("INFO ctxdep.cli: phi=") for line in lines), lines


def test_unknown_log_level_falls_back_to_warning():
    # `logging.BASIC_FORMAT` is a string, not a level; basicConfig used to raise on it
    out = _python_child(["-m", "ctxdep.cli", "validate"], CTXDEP_LOG="basic_format")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ok: ")
    assert out.stderr == ""
