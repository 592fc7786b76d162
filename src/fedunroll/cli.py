"""Command-line interface.

Subcommands
  run        train one method on the synthetic benchmark, write metrics CSV
  compare    train several methods across trials, write deterministic
             summary tables (no wall-clock columns, byte-stable reruns)
  gradcheck  compare the hand-written reverse pass against central
             finite differences on random small instances
  datagen    write the per-client benchmark shards as delimited files
  report     summarize a previously written metrics CSV

Exit codes: 0 on success, 1 on runtime failure, 2 on bad usage or
configuration. Config files are INI: an [experiment] section for the
shared knobs plus optional [unrolled] and [baselines] sections; any
unknown section or key is rejected. Command-line flags override file
values.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
from typing import List, Optional

import numpy as np

from .baselines import run_baseline
from .config import FIELD_TYPES, METHODS, ExperimentConfig, coerce_field
from .datagen import SETTINGS, SettingSpec, export_delimited, generate_setting
from .diagnostics import check_descent, lambda_report, trace_from_tape
from .errors import ConfigError, FedunrollError, MissingColumn
from .federation import run_unrolled_experiment
from .learner import OPTIMIZERS, PARAM_FIELDS, POLICIES, backward, fd_gradient
from .metrics import COLUMNS, DIVERGED, format_value, write_csv
from .unrolled_net import DUAL_UPDATES, MODES, forward_network, init_params

_EXPERIMENT_KEYS = {
    "setting", "m", "n_per_client", "noise_std", "trials", "seed",
    "methods", "rounds", "out_dir", "transcript", "diagnostics",
}
_UNROLLED_KEYS = {
    "layers", "epochs_per_round", "lr", "optimizer", "policy", "tied",
    "participation", "mode", "dual_update", "batch_size", "grad_lr", "grad_steps",
}
_BASELINE_KEYS = {
    "local_epochs", "lr", "batch", "mu", "lambda_ditto", "ft_epochs", "standardize",
}

_ALIAS = {"m": "M", "layers": "L"}


def parse_config_file(path: str) -> dict:
    """Read an INI config into a {field: value} dict (typed)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section in parser.sections():
        if section == "experiment":
            allowed, prefix = _EXPERIMENT_KEYS, {}
        elif section == "unrolled":
            allowed, prefix = _UNROLLED_KEYS, {}
        elif section == "baselines":
            allowed = _BASELINE_KEYS
            prefix = {"lr": "baseline_lr", "batch": "baseline_batch"}
        else:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field = prefix.get(key, _ALIAS.get(key, key))
            out[field] = coerce_field(field, raw)
    return out


def _add_shared_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--setting", type=int, choices=SETTINGS)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--rounds", type=int)
    sp.add_argument("--layers", dest="L", type=int)
    sp.add_argument("--clients", dest="M", type=int, help="number of clients M")
    sp.add_argument("--samples", dest="n_per_client", type=int, help="samples per client")
    sp.add_argument("--out", dest="out_dir", help="output directory (created if absent)")
    sp.add_argument("--transcript", action="store_true", default=None,
                    help="dump per-round message transcripts")
    sp.add_argument("--diagnostics", action="store_true", default=None,
                    help="write consensus-weight report and descent summary")
    sp.add_argument("--policy", choices=POLICIES)
    sp.add_argument("--participation", type=float)
    sp.add_argument("--mode", choices=MODES)
    sp.add_argument("--dual-update", dest="dual_update", choices=DUAL_UPDATES)
    sp.add_argument("--optimizer", choices=OPTIMIZERS)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--epochs", dest="epochs_per_round", type=int)
    sp.add_argument("--tied", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fedunroll",
        description="Personalized federated learning by unrolling a consensus "
                    "splitting scheme into a trainable network, with reference "
                    "methods and a synthetic polynomial benchmark.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one method, write metrics CSV")
    run.add_argument("--method", choices=METHODS, default="unrolled")
    _add_shared_flags(run)

    cmp_ = sub.add_parser("compare", help="train several methods across trials")
    cmp_.add_argument("--methods", help="comma-separated method list")
    _add_shared_flags(cmp_)

    gc = sub.add_parser("gradcheck", help="reverse pass vs finite differences")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--instances", type=int, default=5)
    gc.add_argument("--tolerance", type=float, default=1e-5)

    dg = sub.add_parser("datagen", help="write benchmark shards as CSV")
    dg.add_argument("--setting", type=int, choices=SETTINGS, required=True)
    dg.add_argument("--seed", type=int, required=True)
    dg.add_argument("--clients", type=int, default=10)
    dg.add_argument("--samples", type=int, default=200)
    dg.add_argument("--out", default=".")

    rp = sub.add_parser("report", help="summarize a metrics CSV")
    rp.add_argument("csv", help="path to a metrics CSV written by run/compare")
    return p


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    # flags are named (or given dest=) after the config fields they set
    for name, val in vars(args).items():
        if name in FIELD_TYPES and val is not None:
            values[name] = val
    if getattr(args, "method", None):
        values["methods"] = [args.method]
    elif getattr(args, "methods", None):
        values["methods"] = coerce_field("methods", args.methods)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _trials(cfg: ExperimentConfig):
    """Yield (trial, the trial's config, its shards); trial t runs on
    seed + t."""
    for trial in range(cfg.trials):
        tcfg = cfg.replace(seed=cfg.seed + trial)
        spec = SettingSpec(
            setting=tcfg.setting,
            M=tcfg.M,
            n_per_client=tcfg.n_per_client,
            noise_std=tcfg.noise_std,
            seed=tcfg.seed,
        )
        yield trial, tcfg, generate_setting(spec)


def _run_method(method: str, cfg: ExperimentConfig, shards):
    if method == "unrolled":
        return run_unrolled_experiment(cfg, shards)
    return run_baseline(method, shards, cfg)


def _transcript_rows(transcripts):
    for t in transcripts:
        for m in t.messages:
            yield t.round_index, t.epoch, m.layer, m.kind, m.client_id, m.digest()


def _write_lambda_report(path: str, params) -> None:
    rep = lambda_report(params)
    M, k = rep.final_layer.shape
    header = ["client"] + [f"final_c{j}" for j in range(k)] + [f"mean_c{j}" for j in range(k)]
    rows = [[i + 1, *rep.final_layer[i], *rep.layer_mean[i]] for i in range(M)]
    rows.append(["cross_client", *rep.cross_client_final, *rep.cross_client_mean])
    write_csv(path, header, rows)


def _diag_summary(cfg: ExperimentConfig, shards, result) -> str:
    # the network as trained: grad mode's step size, step count and batch
    # size, with the minibatches drawn from the trial seed
    _, tape = forward_network(
        shards,
        result.params,
        L=cfg.L,
        mode=cfg.mode,
        dual_update=cfg.dual_update,
        seed=cfg.seed,
        batch_rng=np.random.default_rng(cfg.seed) if cfg.mode == "grad" else None,
        batch_size=cfg.batch_size,
        grad_lr=cfg.grad_lr,
        grad_steps=cfg.grad_steps,
    )
    trace = trace_from_tape(tape, params_trained=True)
    rep = check_descent(trace)
    return (
        f"descent check: {len(rep.violations)} violation(s) over "
        f"{rep.n_transitions} transitions ({rep.classification}), "
        f"min penalty {rep.rho_min:.3g}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    method = cfg.methods[0]
    os.makedirs(cfg.out_dir, exist_ok=True)
    records = []
    for trial, tcfg, shards in _trials(cfg):
        result = _run_method(method, tcfg, shards)
        records.extend(result.records)
        # a diverged trial's NaN error prints as DIVERGED
        print(f"{method} trial {trial}: mean test rmse {format_value(result.mean_test_rmse)}")
        if method == "unrolled":
            if cfg.transcript and result.transcripts:
                write_csv(
                    os.path.join(cfg.out_dir, f"transcript_{method}_trial{trial}.csv"),
                    ("round", "epoch", "layer", "kind", "client_id", "digest"),
                    _transcript_rows(result.transcripts),
                )
            if cfg.diagnostics:
                _write_lambda_report(
                    os.path.join(cfg.out_dir, f"lambda_{method}_trial{trial}.csv"),
                    result.params,
                )
                if not result.diverged:
                    print("  " + _diag_summary(tcfg, shards, result))
    out_path = os.path.join(cfg.out_dir, f"metrics_{method}.csv")
    write_csv(out_path, COLUMNS, map(dataclasses.astuple, records))
    print(f"wrote {out_path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    finals: dict = {m: [] for m in cfg.methods}
    for trial, tcfg, shards in _trials(cfg):
        for method in cfg.methods:
            result = _run_method(method, tcfg, shards)
            finals[method].append(result.mean_test_rmse)
            print(
                f"setting {cfg.setting} trial {trial} {method}: "
                f"mean test rmse {format_value(result.mean_test_rmse)}"
            )
    # a diverged trial's NaN carries through to its method's mean and std
    summary_path = os.path.join(cfg.out_dir, "summary.csv")
    write_csv(
        summary_path,
        ("method", "setting", "trials", "mean_rmse", "std_rmse"),
        [(m, cfg.setting, cfg.trials, np.mean(v), np.std(v)) for m, v in finals.items()],
    )
    trials_path = os.path.join(cfg.out_dir, "final_rmse.csv")
    write_csv(
        trials_path,
        ("method", "trial", "seed", "mean_rmse", "client_std"),
        [(m, t, cfg.seed + t, val, None) for m, v in finals.items() for t, val in enumerate(v)],
    )
    print(f"wrote {summary_path} and {trials_path}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    from .datagen import DataShard
    from .math_core import design_matrix

    for inst in range(args.instances):
        M, k, L, n = 3, 4, 3, 20
        shards = []
        for i in range(M):
            coeffs = rng.uniform(-1, 1, k)
            X = design_matrix(rng.uniform(-1, 1, n), k - 1)
            Y = X @ coeffs + rng.normal(0, 0.1, n)
            Xt = design_matrix(rng.uniform(-1, 1, 5), k - 1)
            shards.append(
                DataShard(
                    client_id=i + 1, X_train=X, Y_train=Y,
                    X_test=Xt, Y_test=Xt @ coeffs, gt_coeffs=coeffs,
                )
            )
        params = init_params(M, k, L)
        params.lam_raw += rng.uniform(-0.5, 0.5, params.lam_raw.shape)
        params.rho_raw += rng.uniform(-0.5, 0.5, params.rho_raw.shape)
        params.p += rng.uniform(-0.5, 0.5, params.p.shape)
        seed = int(rng.integers(0, 2**31))
        _, tape = forward_network(shards, params, L=L, seed=seed)
        grads = backward(tape, shards)
        for field in PARAM_FIELDS:
            arr = getattr(params, field)
            flat = arr.reshape(-1)
            probe = rng.choice(flat.shape[0], size=min(6, flat.shape[0]), replace=False)
            for pos in probe:
                idx = np.unravel_index(pos, arr.shape)
                an = getattr(grads, field)[idx]
                # h = 1e-5 cannot resolve a component far below the loss
                # scale: when it misses 5e-6, keep the better with h = 1e-4
                rel = np.inf
                for h in (1e-5, 1e-4):
                    fd = fd_gradient(shards, params, (field, idx), h=h, seed=seed)
                    rel = min(rel, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
                    if rel <= 5e-6:
                        break
                worst = max(worst, rel)
    print(f"gradcheck: {args.instances} instance(s), worst relative error {worst:.3e}")
    if worst > args.tolerance:
        print(f"FAIL: exceeds tolerance {args.tolerance:.1e}")
        return 1
    return 0


def cmd_datagen(args: argparse.Namespace) -> int:
    spec = SettingSpec(setting=args.setting, M=args.clients, n_per_client=args.samples,
                       seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    shards = generate_setting(spec)
    for sh in shards:
        path = os.path.join(args.out, f"client_{sh.client_id:02d}.csv")
        export_delimited(sh, path)
    print(f"wrote {len(shards)} shard file(s) to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import csv as csv_mod

    with open(args.csv, newline="") as fh:
        reader = csv_mod.DictReader(fh)
        rows = list(reader)
    if not rows:
        print("empty metrics file")
        return 1
    missing = [c for c in ("round", "method", "test_rmse") if c not in reader.fieldnames]
    if missing:
        raise MissingColumn(f"{args.csv} is not a metrics CSV: no column(s) {', '.join(missing)}")
    last: dict = {}
    diverged = set()
    for row in rows:
        m = row["method"]
        last[m] = row
        if any(row.get(c) == DIVERGED for c in ("train_rmse", "test_rmse")):
            diverged.add(m)
    for m, row in sorted(last.items()):
        note = " DIVERGED" if m in diverged else ""
        print(
            f"{m}: final round {row['round']}, "
            f"test rmse {row['test_rmse']}{note}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "gradcheck": cmd_gradcheck,
        "datagen": cmd_datagen,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FedunrollError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
