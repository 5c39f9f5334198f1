"""Command-line interface.

Subcommands: simulate, train-npe, test, ppplot, heatmap, sweep, bench.
Usage problems (unknown flags, missing files, dimension mismatches) exit 2;
runtime failures (diverged training, exhausted oracles) exit 1.  Either way a
single-line reason goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import c2st
from .classifiers import MlpConfig, mlp_factory, qda_factory
from .core import (
    ConfigurationError,
    DataFormatError,
    Lc2stError,
    RngStream,
    derive_stream,
    save_dataset,
)
from .flows import NpeConfig, build_coupling_flow, flow_fit_npe, load_flow, save_flow
from .harness import (
    ExperimentPlan,
    run_oracle_correlation,
    run_power,
    run_runtime_bench,
    run_sigma_sweep,
    run_type1,
)
from .tasks import distort, make_task

_USAGE_ERRORS = (ConfigurationError, DataFormatError, FileNotFoundError, TypeError, KeyError)


def _task_params(args) -> dict:
    params = {}
    for flag, key in (
        ("m", "m"),
        ("noise_std", "noise_std"),
        ("noise_var", "noise_var"),
        ("eps", "eps"),
        ("budget", "budget"),
        ("bound", "bound"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            params[key] = value
    return params


def _classifier(args):
    if args.clf == "qda":
        return qda_factory()
    cfg = MlpConfig(hidden_mult=args.hidden_mult, max_epochs=args.epochs)
    return mlp_factory(cfg)


def _estimator(args, task):
    if getattr(args, "flow", None):
        return load_flow(args.flow)
    if task.reference is None:
        raise ConfigurationError(f"task {task.name!r} has no reference posterior to test")
    est = task.reference
    shift = getattr(args, "distort_shift", 0.0) or 0.0
    scale = getattr(args, "distort_scale", 1.0) or 1.0
    if shift != 0.0 or scale != 1.0:
        est = distort(est, np.full(task.m, shift), scale)
    return est


def _observation(args, task):
    return task.observation(derive_stream(args.x_seed, "obs", 0))


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
    train = task.sample_joint(args.n_train, derive_stream(args.seed, "npe-data"))
    flow = build_coupling_flow(
        task.m, task.d, n_layers=args.layers, hidden=(args.hidden, args.hidden),
        stream=derive_stream(args.seed, "npe-init"),
    )
    cfg = NpeConfig(max_epochs=args.epochs)
    fitted, trace = flow_fit_npe(flow, train, cfg, derive_stream(args.seed, "npe-fit"))
    out = _out_dir(args)
    save_flow(fitted, out / "flow.json")
    with (out / "loss_trace.csv").open("w", encoding="utf-8") as fh:
        fh.write("epoch,train_nll,holdout_nll\n")
        holdout = trace["holdout_nll"] or [float("nan")] * len(trace["train_nll"])
        for epoch, (tr, va) in enumerate(zip(trace["train_nll"], holdout)):
            fh.write(f"{epoch},{tr!r},{va!r}\n")
    return 0


def _run_local_test(args, task, fit_fn):
    _, x_o = _observation(args, task)
    stream = derive_stream(args.seed, "test")
    cal = task.sample_joint(args.n_cal, stream.child("cal"))
    if args.method == "lc2st":
        estimator = _estimator(args, task)
        clf, ensemble = c2st.lc2st_train(estimator, cal, fit_fn, args.n_null, stream)
        result = c2st.lc2st_evaluate(
            clf, ensemble, estimator, x_o, args.n_v, stream.child("test"),
            conservative=args.conservative,
        )
        return result, clf, ensemble, x_o, None
    if args.method == "lc2st-nf":
        if not args.flow:
            raise ConfigurationError("method lc2st-nf requires --flow <checkpoint>")
        flow = load_flow(args.flow)
        clf = c2st.lc2st_nf_train(flow, cal, fit_fn, stream.child("train"))
        ensemble = c2st.lc2st_nf_null(cal.xs, flow.m, fit_fn, max(args.n_null, 1), stream.child("null"))
        result = c2st.lc2st_nf_evaluate(
            clf, ensemble, x_o, flow.m, args.n_v, stream.child("test"),
            conservative=args.conservative,
        )
        return result, clf, ensemble, x_o, flow
    raise ConfigurationError(f"method {args.method!r} is not a local test")


def _cmd_test(args) -> int:
    task = make_task(args.task, **_task_params(args))
    fit_fn = _classifier(args)
    if args.method in ("lc2st", "lc2st-nf"):
        result, _, _, _, _ = _run_local_test(args, task, fit_fn)
    else:  # oracle variants need reference samples at x_o
        if task.reference is None:
            raise ConfigurationError(f"oracle methods need a reference posterior for {task.name!r}")
        estimator = _estimator(args, task)
        _, x_o = _observation(args, task)
        stream = derive_stream(args.seed, "test")
        train = c2st.LabeledPairDataset.from_class_arrays(
            estimator.sample(x_o, args.n_cal, stream.child("q-train")),
            task.reference.sample(x_o, args.n_cal, stream.child("p-train")),
        )
        val = c2st.LabeledPairDataset.from_class_arrays(
            estimator.sample(x_o, args.n_v, stream.child("q-val")),
            task.reference.sample(x_o, args.n_v, stream.child("p-val")),
        )
        stat_fn = (
            (lambda clf: c2st.t_acc(clf, val))
            if args.method == "oracle-c2st-acc"
            else (lambda clf: c2st.t_mse(clf, val))
        )
        result = c2st.c2st_permutation_test(
            train, stat_fn, fit_fn, args.n_null, stream, args.method, x_o, args.n_v,
            conservative=args.conservative,
        )
    out = _out_dir(args)
    result.save(out / "result.json")
    return 0


def _cmd_ppplot(args) -> int:
    task = make_task(args.task, **_task_params(args))
    fit_fn = _classifier(args)
    result, clf, ensemble, x_o, flow = _run_local_test(args, task, fit_fn)
    stream = derive_stream(args.seed, "ppplot")
    if args.method == "lc2st":
        estimator = _estimator(args, task)
        points = estimator.sample(x_o, args.n_v, stream)
    else:
        points = stream.generator().standard_normal((args.n_v, flow.m))
    ws = c2st.append_conditioning(points, x_o)
    data = c2st.pp_plot(clf, ensemble, ws, alpha=args.alpha)
    out = _out_dir(args)
    with (out / "ppplot.csv").open("w", encoding="utf-8") as fh:
        fh.write("level,cdf,lower,upper\n")
        for level, cdf, lower, upper in data.rows():
            fh.write(f"{level!r},{cdf!r},{lower!r},{upper!r}\n")
    result.save(out / "result.json")
    return 0


def _cmd_heatmap(args) -> int:
    task = make_task(args.task, **_task_params(args))
    if not args.flow:
        raise ConfigurationError("heatmap requires --flow <checkpoint>")
    fit_fn = _classifier(args)
    args.method = "lc2st-nf"
    _, clf, _, x_o, flow = _run_local_test(args, task, fit_fn)
    maps = c2st.probability_heatmap(
        clf, flow, x_o, args.n_v, args.bins, derive_stream(args.seed, "heatmap")
    )
    out = _out_dir(args)
    with (out / "heatmap.csv").open("w", encoding="utf-8") as fh:
        fh.write("dim_i,dim_j,bin_i,bin_j,count,mean_prob\n")
        for row in c2st.heatmap_rows(maps):
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    plan = ExperimentPlan.load(args.plan)
    out = _out_dir(args)
    if plan.kind == "sigma-sweep":
        result = run_sigma_sweep(plan)
        result.save_power_csv(out / "power.csv", "mse0")
        result.save_power_csv(out / "power_acc0.csv", "acc0")
        with (out / "results.json").open("w", encoding="utf-8") as fh:
            json.dump({"plan": plan.to_dict(), "records": result.records}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    if plan.kind == "correlation":
        result = run_oracle_correlation(plan)
        with (out / "correlation.csv").open("w", encoding="utf-8") as fh:
            fh.write("obs_index,distortion_frac,oracle_stat,local_stat\n")
            for p in result.pairs:
                fh.write(
                    f"{p['obs_index']},{p['distortion_frac']!r},{p['oracle']!r},{p['local']!r}\n"
                )
        with (out / "results.json").open("w", encoding="utf-8") as fh:
            json.dump(
                {"plan": plan.to_dict(), "spearman_rho": result.spearman_rho, "p_value": result.p_value},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        return 0
    if plan.kind == "bench":
        result = run_runtime_bench(plan)
        result.save_csv(out / "runtime.csv")
        return 0
    if plan.kind == "type1":
        sweep = run_type1(plan)
        sweep.save_rates_csv(out / "type1.csv", "rate")
    elif plan.kind == "power":
        sweep = run_power(plan)
        sweep.save_rates_csv(out / "power.csv", "tpr")
    else:
        raise ConfigurationError(f"unknown plan kind {plan.kind!r}")
    sweep.save_json(out / "results.json")
    sweep.save_runtime_csv(out / "runtime.csv")
    return 0


def _cmd_bench(args) -> int:
    plan = ExperimentPlan.load(args.plan)
    result = run_runtime_bench(plan)
    out = _out_dir(args)
    result.save_csv(out / "runtime.csv")
    with (out / "machine.json").open("w", encoding="utf-8") as fh:
        json.dump(result.machine, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", default="gaussian_conjugate")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--noise-std", dest="noise_std", type=float, default=None)
    p.add_argument("--noise-var", dest="noise_var", type=float, default=None)
    p.add_argument("--eps", type=float, default=None, help="rejection-oracle tolerance")
    p.add_argument("--budget", type=int, default=None, help="rejection-oracle draw budget")
    p.add_argument("--bound", type=float, default=None)


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=["lc2st", "lc2st-nf", "oracle-c2st-acc", "oracle-c2st-mse"], default="lc2st")
    p.add_argument("--n-cal", dest="n_cal", type=int, default=1000)
    p.add_argument("--n-null", dest="n_null", type=int, default=100)
    p.add_argument("--n-v", dest="n_v", type=int, default=10_000)
    p.add_argument("--x-seed", dest="x_seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--clf", choices=["qda", "mlp"], default="qda")
    p.add_argument("--hidden-mult", dest="hidden_mult", type=int, default=10)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--flow", default=None, help="flow checkpoint JSON")
    p.add_argument("--distort-shift", dest="distort_shift", type=float, default=0.0)
    p.add_argument("--distort-scale", dest="distort_scale", type=float, default=1.0)
    p.add_argument("--conservative", action="store_true", help="(1+k)/(n+1) p-values")


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

    p = sub.add_parser("test", help="run one local or oracle test at a seeded observation")
    _add_task_flags(p)
    _add_test_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("ppplot", help="PP-plot of predicted class-0 probabilities")
    _add_task_flags(p)
    _add_test_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ppplot)

    p = sub.add_parser("heatmap", help="predicted-probability heatmaps over flow marginals")
    _add_task_flags(p)
    _add_test_flags(p)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_heatmap)

    p = sub.add_parser("sweep", help="run an experiment plan (type1/power/sigma-sweep/correlation)")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bench", help="runtime benchmark per method and cell")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

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
