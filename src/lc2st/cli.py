"""Command-line interface.

Subcommands: simulate, train-npe, test, sweep.  ``test`` writes its result
and, from the same classifier, null and scored points, the PP-plot and
heatmap that explain it.  ``sweep`` runs any plan, a bench plan included.
Usage problems (unknown flags, missing files, dimension mismatches) exit 2;
runtime failures (failed fits, diverged training, exhausted oracles) exit 1.
Either way a single-line reason goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import c2st
from .core import (
    ConfigurationError,
    DataFormatError,
    Lc2stError,
    RngStream,
    derive_stream,
    save_csv,
    save_dataset,
    save_json,
)
from .flows import NpeConfig, load_flow, save_flow, train_npe
from .harness import (
    ExperimentPlan,
    _build_estimator,
    _classifier_fit,
    _observation,
    run_oracle_correlation,
    run_power,
    run_sigma_sweep,
    run_type1,
)
from .tasks import make_task

_USAGE_ERRORS = (ConfigurationError, DataFormatError, FileNotFoundError)


def _task_params(args) -> dict:
    names = ("m", "noise_std", "noise_var", "bound")
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _classifier(args):
    if args.clf == "qda":
        return _classifier_fit({"kind": "qda"})
    return _classifier_fit({"kind": "mlp", "hidden_mult": args.hidden_mult, "max_epochs": args.epochs})


def _estimator(args, task):
    given = {k: v for k, v in (("shift", args.distort_shift), ("scale", args.distort_scale)) if v is not None}
    if args.flow:
        if given:
            raise ConfigurationError(f"--distort-{next(iter(given))} does not apply to a --flow checkpoint")
        return load_flow(args.flow)
    if given.get("shift", 0.0) == 0.0 and given.get("scale", 1.0) == 1.0:
        given = {}  # the identity distortion is the exact posterior
    return _build_estimator({"kind": "distortion" if given else "exact", **given}, task, flow=False)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    task = make_task(args.task, **_task_params(args))
    data = task.sample_joint(args.n, RngStream(seed=args.seed))
    out = _out_dir(args)
    save_dataset(data, out / "dataset.csv", seed=args.seed, task_name=task.name)
    return 0


def _cmd_train_npe(args) -> int:
    task = make_task(args.task, **_task_params(args))
    hidden, cfg = (args.hidden, args.hidden), NpeConfig(max_epochs=args.epochs)
    fitted, trace = train_npe(task, args.n_train, RngStream(seed=args.seed), args.layers, hidden, cfg)
    out = _out_dir(args)
    save_flow(fitted, out / "flow.json")
    holdout = trace["holdout_nll"] or [float("nan")] * len(trace["train_nll"])
    rows = ((epoch, tr, va) for epoch, (tr, va) in enumerate(zip(trace["train_nll"], holdout)))
    save_csv(out / "loss_trace.csv", "epoch,train_nll,holdout_nll", rows)
    return 0


def _cmd_test(args) -> int:
    """One ``run_test``: ``result.json``, and from its classifier, null and
    scored points ``ppplot.csv`` (local tests with a null) and
    ``heatmap.csv`` (lc2st-nf)."""
    task = make_task(args.task, **_task_params(args))
    if args.method == "lc2st-nf" and not args.flow:
        raise ConfigurationError("method lc2st-nf requires --flow <checkpoint>")
    _, x_o = _observation(task, args.x_seed)
    estimator = _estimator(args, task)
    run = c2st.run_test(
        args.method, task, estimator, x_o, args.n_cal, args.n_null, args.n_v, _classifier(args),
        derive_stream(args.seed, "test"), conservative=args.conservative,
    )
    result, csvs = run.results[0], {}
    if args.method in ("lc2st", "lc2st-nf") and len(run.ensemble):
        pp = c2st.pp_plot(run.classifier, run.ensemble, result.points, alpha=args.alpha)
        csvs["ppplot.csv"] = ("level,cdf,lower,upper", pp.rows())
    if args.method == "lc2st-nf":
        maps = c2st.probability_heatmap(run.classifier, estimator, result.points, args.bins)
        csvs["heatmap.csv"] = ("dim_i,dim_j,bin_i,bin_j,count,mean_prob", c2st.heatmap_rows(maps))
    out = _out_dir(args)
    result.save(out / "result.json")
    for name, (header, rows) in csvs.items():
        save_csv(out / name, header, rows)
    return 0


def _cmd_sweep(args) -> int:
    plan = ExperimentPlan.load(args.plan)
    out = _out_dir(args)
    if plan.kind == "sigma-sweep":
        result = run_sigma_sweep(plan)
        result.save_power_csv(out / "power.csv", "mse0")
        result.save_power_csv(out / "power_acc0.csv", "acc0")
        save_json({"plan": plan.to_dict(), "records": result.records}, out / "results.json")
        return 0
    if plan.kind == "correlation":
        result = run_oracle_correlation(plan)
        rows = ((p["obs_index"], p["distortion_frac"], p["oracle"], p["local"]) for p in result.pairs)
        save_csv(out / "correlation.csv", "obs_index,distortion_frac,oracle_stat,local_stat", rows)
        payload = {"plan": plan.to_dict(), "spearman_rho": result.spearman_rho, "p_value": result.p_value}
        save_json(payload, out / "results.json")
        return 0
    sweep = run_power(plan) if plan.kind == "power" else run_type1(plan)
    sweep.save_runtime_csv(out / "runtime.csv")
    if plan.kind == "bench":
        # a bench plan's per-phase medians, and the machine they were timed on
        machine = {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        }
        save_json(machine, out / "machine.json")
        return 0
    if plan.kind == "type1":
        sweep.save_rates_csv(out / "type1.csv", "rate")
    else:
        sweep.save_rates_csv(out / "power.csv", "tpr")
    sweep.save_json(out / "results.json")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", default="gaussian_conjugate")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--noise-std", dest="noise_std", type=float, default=None)
    p.add_argument("--noise-var", dest="noise_var", type=float, default=None)
    p.add_argument("--bound", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lc2st", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw joint samples and write a dataset CSV")
    _add_task_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("train-npe", help="train a coupling flow by maximum likelihood")
    _add_task_flags(p)
    p.add_argument("--n-train", dest="n_train", type=int, required=True)
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_npe)

    p = sub.add_parser("test", help="one test at a seeded observation, with its PP-plot and heatmap")
    _add_task_flags(p)
    p.add_argument("--method", choices=["lc2st", "lc2st-nf", "oracle-c2st-acc", "oracle-c2st-mse"], default="lc2st")
    p.add_argument("--n-cal", dest="n_cal", type=int, default=1000)
    p.add_argument("--n-null", dest="n_null", type=int, default=100)
    p.add_argument("--n-v", dest="n_v", type=int, default=10_000)
    p.add_argument("--x-seed", dest="x_seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clf", choices=["qda", "mlp"], default="qda")
    p.add_argument("--hidden-mult", dest="hidden_mult", type=int, default=10)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--flow", default=None, help="flow checkpoint JSON")
    p.add_argument("--distort-shift", dest="distort_shift", type=float, default=None)
    p.add_argument("--distort-scale", dest="distort_scale", type=float, default=None)
    p.add_argument("--conservative", action="store_true", help="(1+k)/(n+1) p-values")
    p.add_argument("--alpha", type=float, default=0.05, help="PP-plot band: the null's 1-alpha range")
    p.add_argument("--bins", type=int, default=20, help="heatmap bins per axis (lc2st-nf)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("sweep", help="run an experiment plan (type1/power/sigma-sweep/correlation/bench)")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except Lc2stError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
