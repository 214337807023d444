"""Command-line tests: subcommand behavior, config handling, output files,
determinism, and exit codes (0 ok / 1 verification failure / 2 config error)."""

import json

import numpy as np
import pytest

from logiclab import autodiff as ad
from logiclab import checks, cli
from logiclab.autodiff import Graph


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


class TestGradcheck:
    def test_passes_and_lists_ops(self, capsys):
        assert run_cli("gradcheck", "--points", "2") == 0
        out = capsys.readouterr().out
        listed = [line for line in out.splitlines() if "max_rel_err" in line]
        assert len(listed) >= 10

    def test_injected_wrong_backward_fails(self, capsys, monkeypatch):
        def broken_builder(rng):
            x0 = rng.uniform(0.5, 1.5, (2, 2))

            def f(params, value_only=False):
                g = Graph()
                x = g.leaf(params[0])

                def bad_backward(grad):
                    x.grad += 3.0 * grad  # true rule is 2x

                y = g.record(x.value**2, (x,), bad_backward, op="bad_square")
                loss = ad.reduce_sum(ad.reduce_sum(y, "cols"), "rows")
                if value_only:
                    return loss.item(), None
                g.backward(loss)
                return loss.item(), [x.grad]

            return f, [x0]

        monkeypatch.setitem(checks.GRADCHECKS, "bad_square", broken_builder)
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

    @pytest.mark.parametrize("section", [
        "[task]\nformula = " + "~" * 5000 + "x1\n",
        "[task]\nformula = " + " & ".join(["x1"] * 1200) + "\n",
        "[models]\nsharpness = nan\n",
        "[models]\nsharpness = inf\n",
        "[models]\nperceptron_hidden = 0\n",
    ])
    def test_bad_train_config_rejected_with_one_line(self, section, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = tmp_path / "config.ini"
        cfg.write_text(section)
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
        self._assert_one_error_line(capsys, out)

    @staticmethod
    def _assert_one_error_line(capsys, out):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
