"""Command-line tests: subcommand behavior, config handling, output files,
determinism, and exit codes (0 ok / 1 verification failure / 2 config error)."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import logiclab
from logiclab import autodiff as ad
from logiclab import checks, cli


def run_cli(*argv):
    return cli.main(list(argv))


FAST_TRAIN = ("--seeds", "2", "--epochs", "2")


def _fast_config(tmp_path, extra=""):
    path = tmp_path / "config.ini"
    path.write_text(
        "[train]\n"
        "epochs = 2\n"
        "seeds = 2\n"
        "passes_per_epoch = 2\n"
        "n_train = 10\n"
        "n_test = 20\n"
        + extra
    )
    return str(path)


class TestTrain:
    def test_smoke_writes_outputs_and_table(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli("train", "--config", _fast_config(tmp_path), "--out", str(out))
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()
        table = capsys.readouterr().out
        for name in ("MLP-Sigmoid", "MLP-ReLU", "MLP-GeLU", "Logicron", "Logicron+Neg"):
            assert name in table

    def test_two_seed_one_epoch_smoke_under_two_seconds(self, tmp_path):
        import time

        t0 = time.perf_counter()
        code = run_cli("train", "--out", str(tmp_path / "o"), "--seeds", "2", "--epochs", "1")
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 2.0

    def test_rerun_bit_identical(self, tmp_path):
        cfg = _fast_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("train", "--config", cfg, "--out", str(out_a)) == 0
        assert run_cli("train", "--config", cfg, "--out", str(out_b)) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "results"
        code = run_cli("train", "--config", _fast_config(tmp_path), "--out", str(out),
                       "--seeds", "3")
        assert code == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["config"]["seeds"] == [0, 1, 2]

    def test_summary_reports_param_counts(self, tmp_path):
        out = tmp_path / "results"
        run_cli("train", "--config", _fast_config(tmp_path), "--out", str(out))
        payload = json.loads((out / "summary.json").read_text())
        assert payload["models"]["MLP-ReLU"]["parameters"] == 97
        assert payload["models"]["Logicron"]["parameters"] == 90
        assert payload["models"]["Logicron+Neg"]["parameters"] == 110

    def test_single_seed_rejected(self, tmp_path):
        assert run_cli("train", "--out", str(tmp_path / "o"), "--seeds", "1") == 2

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run_cli("train", "--config", _fast_config(tmp_path),
                       "--out", str(blocker / "sub"))
        assert code == 2

    def test_model_subset(self, tmp_path):
        out = tmp_path / "results"
        cfg = _fast_config(tmp_path, "[models]\ninclude = logicron, mlp-relu\n")
        assert run_cli("train", "--config", cfg, "--out", str(out)) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert set(payload["models"]) == {"Logicron", "MLP-ReLU"}

    def test_unknown_model_rejected(self, tmp_path):
        cfg = _fast_config(tmp_path, "[models]\ninclude = resnet\n")
        assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_bad_formula_rejected(self, tmp_path):
        cfg = _fast_config(tmp_path, "[task]\nformula = x1 &&& x9(\n")
        assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("formula, width", [("x1 & x2", 2), ("x2 -> x4", 4)])
    def test_formula_of_any_width_trains(self, formula, width, tmp_path):
        out = tmp_path / "results"
        cfg = tmp_path / "config.ini"
        cfg.write_text(f"[task]\nformula = {formula}\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(out),
                       "--seeds", "2", "--epochs", "1") == 0
        assert (out / "results.csv").exists()
        payload = json.loads((out / "summary.json").read_text())
        assert payload["config"]["formula"] == formula
        # w_hidden is width x 24, so the models were sized to the formula.
        breakdown = dict(payload["models"]["MLP-ReLU"]["parameter_breakdown"])
        assert breakdown["w_hidden"] == width * 24


class TestSingleClassWarning:
    def test_tautology_warns_on_stderr_and_exits_0(self, tmp_path, capsys):
        # x1 -> x1 labels every point 1, so every model reports 1.000 ± 0.000.
        out = tmp_path / "o"
        cfg = tmp_path / "config.ini"
        cfg.write_text("[task]\nformula = x1 -> x1\n[train]\nepochs = 1\nseeds = 2\n"
                       "passes_per_epoch = 1\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: the {split} labels of seeds [0, 1] are all one class; "
            "accuracy on that split shows nothing learned"
            for split in ("train", "test")
        ]
        assert "1.000 ± 0.000    1.000 ± 0.000" in captured.out
        assert "warning" not in captured.out
        assert (out / "results.csv").exists() and (out / "summary.json").exists()

    def test_only_the_single_class_split_is_named(self, tmp_path, capsys):
        # The 20 training labels of this conjunction are all 0 at data seed 0
        # and hold 3 positives at seed 1; both seeds' 200 test labels hold
        # positives.
        cfg = tmp_path / "config.ini"
        cfg.write_text("[task]\nformula = x1 & x2 & x3 & x4\n[train]\nepochs = 1\n"
                       "seeds = 2\npasses_per_epoch = 1\n[models]\ninclude = logicron\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: the train labels of seeds [0] are all one class; "
            "accuracy on that split shows nothing learned"
        ]

    def test_default_run_is_byte_equal_to_before(self, tmp_path, capsys):
        # Recorded before the warning existed: stdout and the written files
        # of a two-seed, two-epoch default run, with no stderr.
        out = tmp_path / "o"
        assert run_cli("train", "--out", str(out), *FAST_TRAIN) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "task: (x1 | x2) & ~x3   seeds: 2   epochs: 2\n"
            "model          params        train_acc         test_acc\n"
            "MLP-Sigmoid        97    0.850 ± 0.071    0.865 ± 0.014\n"
            "MLP-ReLU           97    0.900 ± 0.000    0.885 ± 0.007\n"
            "MLP-GeLU           97    0.925 ± 0.035    0.883 ± 0.018\n"
            "Logicron           90    0.900 ± 0.000    0.883 ± 0.025\n"
            "Logicron+Neg      110    0.900 ± 0.000    0.865 ± 0.014\n"
            f"wrote {out / 'results.csv'} and summary.json\n"
        )
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("results.csv", "summary.json")}
        assert got == {
            "results.csv": "894b4e5f6a74139bd2c77116397a0f79a197c117ca853e95412391f288b03d80",
            "summary.json": "cca1f2f8d330d9bc36da87cb9ed61501587f6a44f96c496016774339d86294ed",
        }


class TestBoundary:
    def test_default_inventory(self, tmp_path):
        out = tmp_path / "grids"
        code = run_cli("boundary", "--out", str(out), "--resolution", "21")
        assert code == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert len(files) == 10
        assert "boundary_hard_and.csv" in files
        assert "boundary_lnu_or_beta100.csv" in files
        assert "boundary_inner_relu_bias-0.5.csv" in files

    def test_beta_list_flag(self, tmp_path):
        out = tmp_path / "grids"
        code = run_cli("boundary", "--out", str(out), "--resolution", "11", "--beta", "2,20")
        assert code == 0
        files = {p.name for p in out.glob("*.csv")}
        assert "boundary_lnu_and_beta2.csv" in files
        assert "boundary_lnu_and_beta20.csv" in files
        assert len(files) == 2 + 4 + 2

    def test_svg_flag(self, tmp_path):
        out = tmp_path / "grids"
        code = run_cli("boundary", "--out", str(out), "--resolution", "5", "--svg")
        assert code == 0
        assert len(list(out.glob("*.svg"))) == 10

    def test_hard_and_corner_contents(self, tmp_path):
        out = tmp_path / "grids"
        run_cli("boundary", "--out", str(out), "--resolution", "11")
        grid = np.loadtxt(out / "boundary_hard_and.csv", delimiter=",")
        assert (grid[0, 0], grid[-1, 0], grid[0, -1], grid[-1, -1]) == (0, 0, 0, 1)

    def test_reports_agreement_against_hard_grids(self, tmp_path, capsys):
        from logiclab.experiments import (
            GridSpec, decision_boundary_grid, grid_agreement, grid_mean_abs_deviation,
        )

        assert run_cli("boundary", "--out", str(tmp_path / "g"), "--resolution", "21",
                       "--beta", "2,50") == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if " vs " in line]
        assert len(lines) == 4
        for line in lines:
            name, rest = line.split(" vs ")
            hard_name, fields = rest.split(": ")
            kind, beta = name.split("_beta")
            assert hard_name == kind.replace("lnu_", "hard_")
            grid = decision_boundary_grid(GridSpec(kind, 21, sharpness=float(beta)))
            hard = decision_boundary_grid(GridSpec(hard_name, 21))
            assert fields == (f"agreement={grid_agreement(grid, hard):.6f} "
                              f"mean_abs_deviation={grid_mean_abs_deviation(grid, hard):.6f}")

    def test_resolution_too_small(self, tmp_path):
        assert run_cli("boundary", "--out", str(tmp_path / "g"), "--resolution", "1") == 2

    def test_bad_beta_list(self, tmp_path):
        assert run_cli("boundary", "--out", str(tmp_path / "g"), "--beta", "1,foo") == 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("boundary", "--out", str(a), "--resolution", "31")
        run_cli("boundary", "--out", str(b), "--resolution", "31")
        name = "boundary_lnu_and_beta10.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTruthTable:
    def test_prints_all_operators(self, capsys):
        assert run_cli("truth-table") == 0
        out = capsys.readouterr().out
        for name in ("godel_and", "nln_or", "lnn_and", "soft_or"):
            assert name in out

    def test_arity_three(self, capsys):
        assert run_cli("truth-table", "--arity", "3") == 0
        assert "(1, 1, 1)" in capsys.readouterr().out

    def test_python_dash_m_matches_main(self, capsys):
        assert run_cli("truth-table") == 0
        expected = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(logiclab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "logiclab", "truth-table"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


class TestGradcheck:
    def test_passes_and_lists_ops(self, capsys):
        assert run_cli("gradcheck", "--points", "2") == 0
        out = capsys.readouterr().out
        listed = [line for line in out.splitlines() if "max_rel_err" in line]
        assert len(listed) >= 10

    def test_injected_wrong_backward_fails(self, capsys, monkeypatch):
        def draw(rng):
            return [rng.uniform(0.5, 1.5, (2, 2))], []

        def forward(g, params, consts):
            x = g.leaf(params[0])

            def bad_backward(grad):
                x.grad += 3.0 * grad  # true rule is 2x

            y = g.record(x.value**2, (x,), bad_backward, op="bad_square")
            return ad.reduce_sum(ad.reduce_sum(y, "cols"), "rows"), [x]

        monkeypatch.setitem(checks.GRADCHECKS, "bad_square", (draw, forward))
        assert run_cli("gradcheck", "--points", "1") == 1
        assert "FAIL" in capsys.readouterr().out


class TestLogicChecks:
    def test_emits_passing_json(self, capsys):
        assert run_cli("logic-checks") == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["pass"] for entry in payload.values())
        assert "demorgan_duality" in payload
        assert payload["demorgan_duality"]["max_residual"] <= 1e-12

    def test_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "logic_check_suite",
            lambda: {"demorgan_duality": {"pass": False, "max_residual": 1.0, "tolerance": 0.0}},
        )
        assert run_cli("logic-checks") == 1


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("train", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path / "o")) == 2

    def test_malformed_config_value(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[train]\nepochs = soon\n")
        assert run_cli("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_defaults_match_standard_setup(self):
        cfg = cli.load_config(None)
        assert cfg.epochs == 30
        assert cfg.seeds == 20
        assert cfg.n_train == 20 and cfg.n_test == 200
        assert cfg.betas == (1.0, 10.0, 100.0)
        assert cfg.resolution == 101

    def test_help_documents_csv_schema(self):
        text = cli.build_parser().format_help()
        assert "results.csv" in text
        assert "model,seed,epoch,split,accuracy,loss" in text


class TestExitCodeContract:
    """Bad input exits 2 with one error line, no traceback and no output files."""

    @pytest.mark.parametrize("argv", [
        ("train", "--epochs", "0"),
        ("gradcheck", "--points", "0"),
        ("gradcheck", "--points", "-1"),
        ("boundary", "--beta=-1"),
        ("boundary", "--beta=nan"),
        ("truth-table", "--sharpness=nan"),
        ("truth-table", "--sharpness=-1"),
    ])
    def test_rejected_with_one_line(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        extra = () if argv[0] in ("gradcheck", "truth-table") else ("--out", str(out))
        assert run_cli(*argv, *extra) == 2
        self._assert_one_error_line(capsys, out)

    @pytest.mark.parametrize("argv", [
        ("truth-table", "--sharpness", "0"),
        ("boundary", "--beta", "0", "--resolution", "3"),
    ])
    def test_a_fixed_sharpness_of_zero_is_accepted(self, argv, tmp_path):
        # Only a trained sharpness, softplus(rho), must start above 0.
        extra = ("--out", str(tmp_path)) if argv[0] == "boundary" else ()
        assert run_cli(*argv, *extra) == 0

    @pytest.mark.parametrize("section", [
        "[task]\nformula = " + "~" * 5000 + "x1\n",
        "[task]\nformula = " + " & ".join(["x1"] * 1200) + "\n",
        "[models]\nsharpness = nan\n",
        "[models]\nsharpness = inf\n",
        "[models]\nsharpness = 0\n",
        "[models]\nperceptron_hidden = 0\n",
    ])
    def test_bad_train_config_rejected_with_one_line(self, section, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = tmp_path / "config.ini"
        cfg.write_text(section)
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        self._assert_one_error_line(capsys, out)

    @pytest.mark.parametrize("content", [
        b"epochs = 2\n",  # no section header
        b"[train]\nepochs = 2\n# caf\xe9\n",  # Latin-1, not UTF-8
    ], ids=["no-section-header", "not-utf8"])
    def test_config_file_that_is_not_ini_rejected_with_one_line(self, content, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = tmp_path / "config.ini"
        cfg.write_bytes(content)
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        line = self._assert_one_error_line(capsys, out)
        assert line.startswith(f"error: bad config file {cfg}: ")

    @pytest.mark.parametrize("content, message", [
        ("[train]\nepoch = 2\n", "unknown key 'epoch' in [train]"),
        ("[train]\nformula = x1 -> x1\n", "unknown key 'formula' in [train]"),
        ("[trian]\nepochs = 2\n", "unknown section [trian]"),
        ("[Train]\nepochs = 2\n", "unknown section [Train]"),
        ("[DEFAULT]\nepochs = 2\n", "unknown section [DEFAULT]"),
        ("[DEFAULT]\nepochs = 2\n[train]\nseeds = 2\n", "unknown section [DEFAULT]"),
    ], ids=["misspelt-key", "key-of-another-section", "misspelt-section", "section-case",
            "default-section", "default-section-beside-a-known-one"])
    def test_unknown_section_or_key_rejected_with_one_line(self, content, message, tmp_path, capsys):
        # Each of these used to run a default setup and exit 0.
        out = tmp_path / "o"
        cfg = tmp_path / "config.ini"
        cfg.write_text(content)
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        line = self._assert_one_error_line(capsys, out)
        assert message in line
        assert run_cli("boundary", "--config", str(cfg), "--out", str(out)) == 2
        assert message in self._assert_one_error_line(capsys, out)

    def test_every_key_the_help_lists_is_accepted(self, tmp_path):
        cfg = tmp_path / "config.ini"
        cfg.write_text(
            "[task]\nformula = x1 & x2\n"
            "[train]\nepochs = 3\nlearning_rate = 0.1\npasses_per_epoch = 4\nseeds = 5\n"
            "n_train = 6\nn_test = 7\n"
            "[models]\ninclude = logicron\nperceptron_hidden = 8\nlogicron_units = 9\n"
            "logicron_neg_units = 10\nsharpness = 11\n"
            "[boundary]\nresolution = 12\nbetas = 13, 14\nsvg = yes\n"
            "[output]\ndir = elsewhere\n"
        )
        loaded = cli.load_config(str(cfg))
        assert loaded == cli.ExperimentConfig(
            formula="x1 & x2", epochs=3, learning_rate=0.1, passes_per_epoch=4, seeds=5,
            n_train=6, n_test=7, include=("logicron",), perceptron_hidden=8, logicron_units=9,
            logicron_neg_units=10, sharpness=11.0, resolution=12, betas=(13.0, 14.0), svg=True,
            out_dir="elsewhere",
        )
        help_text = cli.build_parser().format_help()
        for section in ("task", "train", "models", "boundary", "output"):
            assert f"[{section}]" in help_text

    @pytest.mark.parametrize("setting", [
        "n_train = 0", "n_test = 0",
        "learning_rate = nan", "learning_rate = inf", "learning_rate = 0", "learning_rate = -1",
    ])
    def test_untrainable_setting_rejected_with_one_line(self, setting, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = tmp_path / "config.ini"
        cfg.write_text(f"[train]\nseeds = 2\nepochs = 1\n{setting}\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        self._assert_one_error_line(capsys, out)

    @pytest.mark.parametrize("command, target", [
        ("boundary", "logiclab.cli.decision_boundary_grid"),
        ("train", "logiclab.experiments.generate_toy_data"),
    ])
    def test_allocation_failure_exits_2_with_one_line(self, command, target, tmp_path,
                                                      capsys, monkeypatch):
        # Stands in for `boundary --resolution 1000000` or a huge n_train,
        # without making the allocation.
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 931. GiB for an array")

        monkeypatch.setattr(target, fail)
        assert run_cli(command, "--out", str(tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {command} ran out of memory; use a smaller configuration "
                                "(Unable to allocate 931. GiB for an array)\n")

    @staticmethod
    def _assert_one_error_line(capsys, out):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
        return lines[0]
