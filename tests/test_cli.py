"""Command-line interface: config files, flag precedence, subcommands,
output files, and exit codes."""

import hashlib
import os
import re

import numpy as np
import pytest

from fedunroll import unrolled_net
from fedunroll.baselines import run_baseline
from fedunroll.cli import main, parse_config_file
from fedunroll.config import ExperimentConfig
from fedunroll.datagen import SettingSpec, generate_setting, ingest_delimited
from fedunroll.diagnostics import check_descent, trace_from_tape
from fedunroll.errors import ConfigError, NonFiniteInput
from fedunroll.federation import run_unrolled_experiment
from fedunroll.metrics import COLUMNS
from fedunroll.unrolled_net import forward_network


GOOD_INI = """\
[experiment]
setting = 1
m = 3
n_per_client = 30
trials = 1
seed = 7
methods = unrolled,local
rounds = 2

[unrolled]
layers = 3
epochs_per_round = 1
lr = 0.02
tied = true

[baselines]
lr = 0.05
local_epochs = 1
"""


def tiny_run_args(tmp_path, method="unrolled", extra=()):
    return [
        "run", "--method", method,
        "--setting", "1", "--seed", "5", "--clients", "3",
        "--samples", "30", "--rounds", "2", "--layers", "2",
        "--epochs", "1", "--trials", "1",
        "--out", str(tmp_path),
        *extra,
    ]


class TestConfigFile:
    def test_parse_good(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(GOOD_INI)
        values = parse_config_file(str(path))
        assert values["setting"] == 1
        assert values["M"] == 3
        assert values["seed"] == 7
        assert values["methods"] == ["unrolled", "local"]
        assert values["L"] == 3
        assert values["tied"] is True
        assert values["lr"] == 0.02
        assert values["baseline_lr"] == 0.05
        assert values["local_epochs"] == 1

    def test_readme_example_parses_and_validates(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            (block,) = re.findall(r"```ini\n(.*?)```", fh.read(), flags=re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        values = parse_config_file(str(path))
        ExperimentConfig(**values).validate()
        assert values["setting"] == 1 and values["M"] == 10 and values["L"] == 10
        assert values["batch_size"] == 64
        assert values["baseline_batch"] is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nseed = 1\nbogus_knob = 3\n")
        with pytest.raises(ConfigError, match="bogus_knob"):
            parse_config_file(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nseed = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config_file(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "nope.ini"))

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nwat = 1\n")
        rc = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path):
        # the file says seed 7: with --seed 11 the run gives the numbers of
        # the same file edited to seed 11, and not those of seed 7
        def rows(name, ini, *flags):
            path = tmp_path / f"{name}.ini"
            path.write_text(ini)
            out = tmp_path / name
            rc = main([
                "run", "--config", str(path), "--method", "local",
                "--rounds", "1", "--out", str(out), *flags,
            ])
            assert rc == 0
            lines = (out / "metrics_local.csv").read_text().splitlines()
            assert lines[0] == ",".join(COLUMNS)
            return [row.rsplit(",", 1)[0] for row in lines[1:]]  # without wall_ms

        assert GOOD_INI.count("seed = 7") == 1
        flagged = rows("flag", GOOD_INI, "--seed", "11")
        assert flagged == rows("edited", GOOD_INI.replace("seed = 7", "seed = 11"))
        assert flagged != rows("own", GOOD_INI)


class TestUsageErrors:
    def test_missing_seed_exits_2(self, tmp_path, capsys):
        rc = main([
            "run", "--setting", "1", "--clients", "3", "--samples", "20",
            "--rounds", "1", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_method_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--method", "quantum"])

    def test_bad_participation_exits_2(self, tmp_path, capsys):
        rc = main(tiny_run_args(tmp_path, extra=["--participation", "1.5"]))
        assert rc == 2

    @pytest.mark.parametrize("section, line", [
        ("unrolled", "batch_size = 0"),
        ("unrolled", "batch_size = -5"),
        ("baselines", "batch = 0"),
    ])
    def test_batch_below_one_exits_2(self, tmp_path, capsys, section, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{line}\n")
        for method in ("unrolled", "fedavg"):
            rc = main(tiny_run_args(tmp_path, method=method, extra=["--config", str(path)]))
            assert rc == 2
            assert "batch" in capsys.readouterr().err

    @pytest.mark.parametrize("command, ini, flags, message", [
        ("run", "", ["--clients", "1"], "at least 2 clients"),
        ("run", "[experiment]\nnoise_std = -1\n", [], "noise_std"),
        ("compare", "[experiment]\nn_per_client = 1\n", [], "n_per_client must be >= 2"),
        ("compare", "[experiment]\nmethods = ,\n", [], "at least one method"),
    ])
    def test_bad_benchmark_config_exits_2(self, tmp_path, capsys, command, ini, flags, message):
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        rc = main([command, "--config", str(path), "--setting", "1", "--seed", "1",
                   "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_batch_sizes_are_validated(self):
        ExperimentConfig(seed=1, batch_size=1, baseline_batch=1).validate()
        ExperimentConfig(seed=1, baseline_batch=None).validate()
        for kw in ({"batch_size": 0}, {"batch_size": -5}, {"baseline_batch": 0}):
            with pytest.raises(ConfigError, match="batch"):
                ExperimentConfig(seed=1, **kw).validate()

    @pytest.mark.parametrize("method, kw", [
        ("unrolled", {"mode": "grad", "batch_size": 0}),
        ("fedavg", {"baseline_batch": 0}),
        ("unrolled", {"seed": None}),
        ("fedavg", {"seed": None}),
    ])
    def test_library_drivers_validate_their_config(self, method, kw):
        # a library caller gets the CLI's ConfigError, not a "trained"
        # result or a numerical error from deep inside the run
        shards = generate_setting(SettingSpec(setting=3, M=5, n_per_client=60, seed=1))
        cfg = ExperimentConfig(seed=1, setting=3, M=5, n_per_client=60, rounds=2).replace(**kw)
        with pytest.raises(ConfigError):
            if method == "unrolled":
                run_unrolled_experiment(cfg, shards)
            else:
                run_baseline(method, shards, cfg)


class TestRun:
    def test_writes_metrics_csv(self, tmp_path, capsys):
        rc = main(tiny_run_args(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean test rmse" in out
        text = (tmp_path / "metrics_unrolled.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(COLUMNS)
        body = lines[1:]
        assert len(body) == 2  # one row per round
        rounds = [row.split(",")[0] for row in body]
        assert rounds == ["1", "2"]
        for row in body:
            assert row.split(",")[2] == "unrolled"

    def test_baseline_method(self, tmp_path):
        rc = main(tiny_run_args(tmp_path, method="fedavg"))
        assert rc == 0
        text = (tmp_path / "metrics_fedavg.csv").read_text()
        assert len(text.splitlines()) == 3  # header + 2 rounds

    def test_transcript_and_diagnostics_outputs(self, tmp_path, capsys):
        rc = main(tiny_run_args(tmp_path, extra=["--transcript", "--diagnostics"]))
        assert rc == 0
        assert "descent check" in capsys.readouterr().out
        tpath = tmp_path / "transcript_unrolled_trial0.csv"
        lines = tpath.read_text().splitlines()
        assert lines[0] == "round,epoch,layer,kind,client_id,digest"
        # 2 rounds x 1 epoch, each: M*L vectors + L broadcasts + M reports + 1 sum
        assert len(lines) - 1 == 2 * (3 * 2 + 2 + 3 + 1)
        lpath = tmp_path / "lambda_unrolled_trial0.csv"
        llines = lpath.read_text().splitlines()
        assert llines[0].startswith("client,final_c0")
        assert len(llines) == 1 + 3 + 1  # header, one per client, cross-client row

    def test_transcript_and_diagnostics_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            args = tiny_run_args(out, extra=["--transcript", "--diagnostics"])
            assert main(args) == 0
        for name in ("transcript_unrolled_trial0.csv", "lambda_unrolled_trial0.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_diverged_trial_prints_no_value(self, tmp_path, monkeypatch, capsys):
        # the aggregation turns non-finite in round 2: the trial line
        # carries the marker instead of round 1's error
        calls = []
        original = unrolled_net._aggregate_client_vectors

        def failing(*args):
            calls.append(None)
            if len(calls) > 2:  # epochs per round x layers
                raise NonFiniteInput("aggregated vector is not finite")
            return original(*args)

        monkeypatch.setattr(unrolled_net, "_aggregate_client_vectors", failing)
        assert main(tiny_run_args(tmp_path)) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line == "unrolled trial 0: mean test rmse DIVERGED"
        rows = (tmp_path / "metrics_unrolled.csv").read_text().splitlines()[1:]
        assert rows[1].split(",")[5] == "DIVERGED"

    def test_grad_mode_diagnostics_describe_the_trained_network(self, tmp_path, capsys):
        # the summary's forward takes the trained step size, step count
        # and minibatches drawn from the trial seed
        path = tmp_path / "grad.ini"
        path.write_text(
            "[experiment]\nsetting = 3\nm = 4\nn_per_client = 40\nseed = 3\n"
            "rounds = 2\ndiagnostics = true\n"
            "[unrolled]\nlayers = 4\nmode = grad\nbatch_size = 16\n"
            "grad_lr = 0.005\ngrad_steps = 3\n"
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines() if "descent check" in ln]

        cfg = ExperimentConfig(**parse_config_file(str(path)))
        shards = generate_setting(SettingSpec(
            setting=3, M=4, n_per_client=40, noise_std=cfg.noise_std, seed=3,
        ))
        result = run_unrolled_experiment(cfg, shards)
        _, tape = forward_network(
            shards, result.params, L=4, mode="grad", dual_update=cfg.dual_update, seed=3,
            batch_rng=np.random.default_rng(3), batch_size=16, grad_lr=0.005, grad_steps=3,
        )
        rep = check_descent(trace_from_tape(tape, params_trained=True))
        assert printed == [
            f"  descent check: {len(rep.violations)} violation(s) over "
            f"{rep.n_transitions} transitions ({rep.classification}), "
            f"min penalty {rep.rho_min:.3g}"
        ]

    @pytest.mark.parametrize("methods, flag, trained", [
        ("fedavg", None, "fedavg"),
        ("fedavg,local", None, "fedavg"),
        ("fedavg", "local", "local"),
        (None, None, "unrolled"),
    ])
    def test_method_from_flag_else_file_else_unrolled(self, tmp_path, capsys, methods, flag, trained):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nsetting = 1\nm = 3\nn_per_client = 30\nseed = 5\nrounds = 1\n"
            + (f"methods = {methods}\n" if methods else "")
            + "[unrolled]\nlayers = 2\nepochs_per_round = 1\n"
        )
        out = tmp_path / "o"
        args = ["run", "--config", str(path), "--out", str(out)]
        assert main(args + (["--method", flag] if flag else [])) == 0
        assert [p.name for p in out.iterdir()] == [f"metrics_{trained}.csv"]
        assert capsys.readouterr().out.startswith(f"{trained} trial 0: mean test rmse ")

    def test_multi_trial_concatenates(self, tmp_path):
        args = tiny_run_args(tmp_path)
        args[args.index("--trials") + 1] = "2"
        rc = main(args)
        assert rc == 0
        lines = (tmp_path / "metrics_unrolled.csv").read_text().splitlines()
        assert len(lines) - 1 == 2 * 2


class TestCompare:
    def run_compare(self, out_dir):
        return main([
            "compare", "--methods", "local,fedavg",
            "--setting", "1", "--seed", "3", "--trials", "2",
            "--clients", "3", "--samples", "30", "--rounds", "3",
            "--out", str(out_dir),
        ])

    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_compare(a) == 0
        assert self.run_compare(b) == 0
        for name in ("summary.csv", "final_rmse.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_summary_shape(self, tmp_path):
        out = tmp_path / "c"
        assert self.run_compare(out) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "method,setting,trials,mean_rmse,std_rmse"
        assert len(lines) == 3
        methods = [row.split(",")[0] for row in lines[1:]]
        assert methods == ["local", "fedavg"]
        for row in lines[1:]:
            parts = row.split(",")
            assert parts[1] == "1" and parts[2] == "2"
            assert np.isfinite(float(parts[3]))
        fl = (out / "final_rmse.csv").read_text().splitlines()
        assert fl[0] == "method,trial,seed,mean_rmse,client_std"
        assert len(fl) == 1 + 2 * 2
        seeds = [row.split(",")[2] for row in fl[1:3]]
        assert seeds == ["3", "4"]

    def test_diverged_unrolled_trial_reported_as_diverged(self, tmp_path, monkeypatch, capsys):
        # the aggregation turns non-finite from round 2 on; the last good
        # round's error must not stand in for the trial's result
        calls = []
        original = unrolled_net._aggregate_client_vectors

        def failing(*args):
            calls.append(None)
            if len(calls) > 2 * 3:  # epochs per round x layers
                raise NonFiniteInput("aggregated vector is not finite")
            return original(*args)

        monkeypatch.setattr(unrolled_net, "_aggregate_client_vectors", failing)
        out = tmp_path / "d"
        rc = main([
            "compare", "--methods", "unrolled,local",
            "--setting", "1", "--seed", "3", "--trials", "1",
            "--clients", "3", "--samples", "30", "--rounds", "3", "--layers", "3",
            "--epochs", "2", "--out", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "setting 1 trial 0 unrolled: mean test rmse DIVERGED"
        assert printed[1].startswith("setting 1 trial 0 local: mean test rmse ")
        assert np.isfinite(float(printed[1].rsplit(" ", 1)[1]))
        trials = (out / "final_rmse.csv").read_text().splitlines()
        assert trials[1].split(",")[:4] == ["unrolled", "0", "3", "DIVERGED"]
        assert np.isfinite(float(trials[2].split(",")[3]))
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].split(",")[3:] == ["DIVERGED", "DIVERGED"]
        assert np.isfinite(float(summary[2].split(",")[3]))


DIVERGING_INI = """\
[experiment]
setting = 1
m = 3
n_per_client = 30
seed = 1
methods = unrolled,fedavg,local
rounds = 400

[baselines]
lr = 10
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergedBaselines:
    # a step size of 10 overflows the gradient baselines' models within a
    # few hundred rounds; the unrolled network does not read that step

    def test_compare_reports_them_and_writes_both_tables(self, tmp_path, capsys):
        path = tmp_path / "d.ini"
        path.write_text(DIVERGING_INI)
        out = tmp_path / "c"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("setting 1 trial 0 unrolled: mean test rmse ")
        assert np.isfinite(float(printed[0].rsplit(" ", 1)[1]))
        assert printed[1:3] == [
            "setting 1 trial 0 fedavg: mean test rmse DIVERGED",
            "setting 1 trial 0 local: mean test rmse DIVERGED",
        ]
        summary = [row.split(",") for row in (out / "summary.csv").read_text().splitlines()]
        assert [row[0] for row in summary[1:]] == ["unrolled", "fedavg", "local"]
        assert np.isfinite(float(summary[1][3]))
        assert summary[2][3:] == summary[3][3:] == ["DIVERGED", "DIVERGED"]
        trials = [row.split(",") for row in (out / "final_rmse.csv").read_text().splitlines()]
        assert [row[3] for row in trials[2:]] == ["DIVERGED", "DIVERGED"]

    def test_run_reports_it_and_writes_the_diverged_round(self, tmp_path, capsys):
        path = tmp_path / "d.ini"
        path.write_text(DIVERGING_INI)
        assert main(["run", "--method", "fedavg", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "fedavg trial 0: mean test rmse DIVERGED"
        rows = [row.split(",") for row in (tmp_path / "metrics_fedavg.csv").read_text().splitlines()]
        assert 1 < len(rows) - 1 < 400
        assert rows[-1][4:6] == ["DIVERGED", "DIVERGED"]
        assert np.isfinite(float(rows[1][5]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_runaway_baseline_run_ends_at_its_first_non_finite_round(tmp_path, capsys):
    # fedavg's models stay finite for dozens of rounds after their errors
    # overflow; none of those rounds is written as a normal row
    path = tmp_path / "d.ini"
    path.write_text(DIVERGING_INI)
    assert main(["run", "--method", "fedavg", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = [row.split(",") for row in (tmp_path / "metrics_fedavg.csv").read_text().splitlines()]
    assert rows[0][4:6] == ["train_rmse", "test_rmse"]
    assert rows[-1][4:6] == ["DIVERGED", "DIVERGED"]
    for row in rows[1:-1]:
        assert all(np.isfinite(float(x)) for x in row[4:6]), row
    assert [int(row[0]) for row in rows[1:]] == list(range(1, len(rows)))


class TestPinnedOutputs:
    """Three commands whose output files must not change by a byte: a
    linear-mode run with transcript and diagnostics, a grad-mode run with
    partial participation, and a compare of every method. The metrics
    file is hashed without its wall_ms column."""

    def test_output_files_are_byte_identical(self, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main([
            "run", "--method", "unrolled", "--setting", "1", "--seed", "42", "--rounds", "3",
            "--transcript", "--diagnostics", "--out", str(a),
        ]) == 0
        assert main([
            "run", "--method", "unrolled", "--setting", "3", "--seed", "42", "--rounds", "3",
            "--mode", "grad", "--participation", "0.5", "--dual-update", "unit_step",
            "--transcript", "--out", str(b),
        ]) == 0
        assert main([
            "compare", "--methods", "unrolled,local,local_exact,fedavg,fedprox,fedavg_ft,fedprox_ft,ditto",
            "--setting", "2", "--seed", "7", "--trials", "2", "--rounds", "5", "--out", str(c),
        ]) == 0
        metrics = (a / "metrics_unrolled.csv").read_bytes()
        metrics = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in metrics.splitlines())
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in [
                ("a/transcript", (a / "transcript_unrolled_trial0.csv").read_bytes()),
                ("a/lambda", (a / "lambda_unrolled_trial0.csv").read_bytes()),
                ("a/metrics without wall_ms", metrics),
                ("b/transcript", (b / "transcript_unrolled_trial0.csv").read_bytes()),
                ("c/summary", (c / "summary.csv").read_bytes()),
                ("c/final_rmse", (c / "final_rmse.csv").read_bytes()),
            ]
        }
        assert digests == {
            "a/transcript": "8aa52efc54b15b7b4529aba2dc347cc2a0d3e0d938a6aef576177c223a9ff8cb",
            "a/lambda": "779e9748342b3a560485210837e686fc1840834c9e7fd82e2ac0f8e3dce3bbe0",
            "a/metrics without wall_ms": "79921744241f2f21a01c0268880e92788f4fcb67148a321de073439cfb482259",
            "b/transcript": "21acb5a0f73c304ebca809a9e0bf8727729c413fe5ad37ec7eb97a1c511d4444",
            "c/summary": "e4e19600dd9927cd8a6277831aa859319404ee120a26c1b9cb9fff8c5a4e9eed",
            "c/final_rmse": "8efaf6b083e86cb5e8eb223ca96c0feccd0683aac66df8836c981a778f678605",
        }


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--instances", "2"])
        assert rc == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_a_gradient_below_the_default_steps_resolution_passes(self, capsys):
        # instance 3 of seed 18 holds a gradient of about 7e-8 on a loss of
        # 0.7, which the central difference at h = 1e-5 misses by 1.5e-4;
        # the check retries at h = 1e-4
        rc = main(["gradcheck", "--seed", "18"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out

    def test_fails_at_impossible_tolerance(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--instances", "1",
                   "--tolerance", "1e-300"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestDatagen:
    def test_writes_shards_and_roundtrips(self, tmp_path, capsys):
        rc = main([
            "datagen", "--setting", "1", "--seed", "9",
            "--clients", "4", "--samples", "40", "--out", str(tmp_path),
        ])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.glob("client_*.csv"))
        assert files == [f"client_{i:02d}.csv" for i in range(1, 5)]
        shard, skipped = ingest_delimited(
            str(tmp_path / "client_02.csv"),
            target_column="y",
            feature_columns=["x0", "x1", "x2", "x3"],
            client_id=2,
        )
        assert skipped == 0
        assert shard.X_train.shape == (36, 4)
        assert shard.X_test.shape == (4, 4)

    @pytest.mark.parametrize("flags, message", [
        (["--samples", "1"], "n_per_client must be >= 2"),
        (["--samples", "0"], "n_per_client must be >= 2"),
        (["--clients", "1"], "at least 2 clients"),
    ])
    def test_bad_spec_exits_1_and_writes_no_shard(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        rc = main(["datagen", "--setting", "1", "--seed", "1", "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestReport:
    def test_summarizes_run_output(self, tmp_path, capsys):
        assert main(tiny_run_args(tmp_path, method="local")) == 0
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "metrics_local.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "local: final round 2" in out
        assert "test rmse" in out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "absent.csv")])
        assert rc == 1
        assert "i/o error" in capsys.readouterr().err

    def test_compare_summary_is_not_a_metrics_csv(self, tmp_path, capsys):
        assert TestCompare().run_compare(tmp_path) == 0
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "summary.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "round" in err

    def test_empty_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("round,epoch,method\n")
        rc = main(["report", str(path)])
        assert rc == 1
