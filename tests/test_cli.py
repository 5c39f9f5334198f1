"""CLI contracts: subcommands, output files, exit codes."""

import argparse
import json

import numpy as np
import pytest

from lc2st import (
    MlpConfig,
    NpeConfig,
    build_coupling_flow,
    conjugate_affine_flow,
    derive_stream,
    distort,
    flow_fit_npe,
    lc2st_evaluate,
    lc2st_train,
    load_dataset,
    load_flow,
    load_metadata,
    make_task,
    mlp_factory,
    pp_plot,
    probability_heatmap,
    qda_factory,
    run_test,
    save_flow,
)
from lc2st import cli
from lc2st.c2st import heatmap_rows
from lc2st.cli import build_parser, main
from lc2st.harness import METHODS, ExperimentPlan
from test_c2st import CountingFitter


def test_simulate_writes_dataset_and_sidecar(tmp_path):
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--task", "gaussian_conjugate", "--m", "2", "--n", "50", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    data = load_dataset(out / "dataset.csv")
    assert data.n == 50 and data.m == 2
    assert load_metadata(out / "dataset.csv")["task_name"] == "gaussian_conjugate"


def test_test_subcommand_writes_result_json(tmp_path):
    out = tmp_path / "r"
    code = main(
        [
            "test", "--method", "lc2st", "--task", "gaussian_conjugate",
            "--n-cal", "500", "--n-null", "20", "--n-v", "500", "--x-seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["method"] == "lc2st"
    assert payload["n_h"] == 20 and payload["n_v"] == 500
    assert len(payload["null_statistics"]) == 20
    count = sum(1 for t in payload["null_statistics"] if t > payload["statistic"])
    assert payload["p_value"] == count / 20
    assert len(payload["x_o"]) == 2


@pytest.fixture
def affine_flow(tmp_path):
    path = tmp_path / "affine.json"
    save_flow(conjugate_affine_flow(2, 1.0, scale_mult=1.3), path)
    return path


def test_lc2st_result_equals_library_train_and_evaluate(tmp_path, affine_flow):
    # every method's result.json is run_test's byte for byte; for lc2st that is
    # the paired-flip null of lc2st_train, not a free permutation
    task = make_task("gaussian_conjugate")
    _, x_o = task.observation(derive_stream(3, "obs", 0))
    stream = derive_stream(5, "test")
    args = ["--n-cal", "400", "--n-null", "15", "--n-v", "300", "--x-seed", "3", "--seed", "5"]
    for method in METHODS:
        out, expected = tmp_path / method, tmp_path / f"{method}.json"
        flow = ["--flow", str(affine_flow)] if method == "lc2st-nf" else []
        assert main(["test", "--method", method, "--task", "gaussian_conjugate", *args, *flow, "--out", str(out)]) == 0
        estimator = load_flow(affine_flow) if flow else task.reference
        run_test(method, task, estimator, x_o, 400, 15, 300, qda_factory(), stream).results[0].save(expected)
        assert (out / "result.json").read_text() == expected.read_text(), method
    cal = task.sample_joint(400, stream.child("cal"))
    clf, ensemble = lc2st_train(task.reference, cal, qda_factory(), 15, stream)
    lc2st_evaluate(clf, ensemble, task.reference, x_o, 300, stream.child("test")).save(tmp_path / "steps.json")
    assert (tmp_path / "lc2st" / "result.json").read_text() == (tmp_path / "steps.json").read_text()


@pytest.mark.parametrize(
    "flags, estimator, fit",
    [
        (["--distort-shift", "0.3"], lambda task: distort(task.reference, np.full(2, 0.3), 1.0), qda_factory),
        (["--clf", "mlp", "--epochs", "3"], lambda task: task.reference, lambda: mlp_factory(MlpConfig(hidden_mult=10, max_epochs=3))),
    ],
)
def test_flagged_result_equals_run_test(tmp_path, flags, estimator, fit):
    args = ["--n-cal", "200", "--n-null", "5", "--n-v", "200", "--x-seed", "3", "--seed", "5"]
    assert main(["test", "--method", "lc2st", *args, *flags, "--out", str(tmp_path)]) == 0
    task = make_task("gaussian_conjugate")
    _, x_o = task.observation(derive_stream(3, "obs", 0))
    run = run_test("lc2st", task, estimator(task), x_o, 200, 5, 200, fit(), derive_stream(5, "test"))
    run.results[0].save(tmp_path / "expected.json")
    assert (tmp_path / "result.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_train_npe_equals_flow_fit_npe(tmp_path):
    argv = ["train-npe", "--task", "gaussian_conjugate", "--n-train", "120", "--layers", "2", "--hidden", "8"]
    assert main([*argv, "--epochs", "6", "--seed", "4", "--out", str(tmp_path / "cli")]) == 0
    task = make_task("gaussian_conjugate")
    train = task.sample_joint(120, derive_stream(4, "npe-data"))
    flow = build_coupling_flow(task.m, task.d, n_layers=2, hidden=(8, 8), stream=derive_stream(4, "npe-init"))
    fitted, trace = flow_fit_npe(flow, train, NpeConfig(max_epochs=6), derive_stream(4, "npe-fit"))
    save_flow(fitted, tmp_path / "flow.json")
    rows = [f"{e},{tr!r},{va!r}\n" for e, (tr, va) in enumerate(zip(trace["train_nll"], trace["holdout_nll"]))]
    (tmp_path / "loss_trace.csv").write_text("epoch,train_nll,holdout_nll\n" + "".join(rows))
    assert len(rows) == 6
    for name in ("flow.json", "loss_trace.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_conservative_result_records_p_value_kind(tmp_path):
    args = ["test", "--method", "lc2st", "--n-cal", "300", "--n-null", "10", "--n-v", "300"]
    for flag, kind in (([], "strict"), (["--conservative"], "conservative")):
        assert main([*args, *flag, "--out", str(tmp_path / kind)]) == 0
        payload = json.loads((tmp_path / kind / "result.json").read_text())
        assert payload["p_value_kind"] == kind
    nulls, stat = np.array(payload["null_statistics"]), payload["statistic"]
    assert payload["p_value"] == (1 + np.sum(nulls >= stat)) / 11


def test_nf_without_null_reports_no_p_value(tmp_path, affine_flow):
    args = ["test", "--method", "lc2st-nf", "--flow", str(affine_flow), "--n-cal", "200", "--n-null", "0"]
    assert main([*args, "--n-v", "200", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["p_value"] is None and payload["p_value_kind"] is None
    assert payload["null_statistics"] == [] and payload["n_h"] == 0


def _csv_text(header, rows) -> str:
    lines = [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def test_one_training_writes_result_ppplot_and_heatmap(tmp_path, monkeypatch, affine_flow):
    # one main fit and one null ensemble; both plots are those of the
    # classifier, null and scored points behind result.json
    fitters, classifier = [], cli._classifier

    def counting(args):
        fitters.append(CountingFitter(classifier(args)))
        return fitters[-1]

    monkeypatch.setattr(cli, "_classifier", counting)
    args = ["--flow", str(affine_flow), "--n-cal", "300", "--n-null", "8", "--n-v", "400", "--bins", "4", "--x-seed", "2", "--seed", "6"]
    assert main(["test", "--method", "lc2st-nf", *args, "--out", str(tmp_path / "cli")]) == 0
    assert [(f.calls, f.ensembles) for f in fitters] == [(1, 1)]
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == ["heatmap.csv", "ppplot.csv", "result.json"]
    task, flow = make_task("gaussian_conjugate"), load_flow(affine_flow)
    _, x_o = task.observation(derive_stream(2, "obs", 0))
    run = run_test("lc2st-nf", task, flow, x_o, 300, 8, 400, qda_factory(), derive_stream(6, "test"))
    result = run.results[0]
    result.save(tmp_path / "result.json")
    (tmp_path / "ppplot.csv").write_text(
        _csv_text("level,cdf,lower,upper", pp_plot(run.classifier, run.ensemble, result.points).rows())
    )
    maps = probability_heatmap(run.classifier, flow, result.points, 4)
    (tmp_path / "heatmap.csv").write_text(_csv_text("dim_i,dim_j,bin_i,bin_j,count,mean_prob", heatmap_rows(maps)))
    for name in ("result.json", "ppplot.csv", "heatmap.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_alpha_sets_only_the_ppplot_band(tmp_path):
    args = ["test", "--method", "lc2st", "--n-cal", "300", "--n-null", "20", "--n-v", "300", "--x-seed", "4"]
    for alpha in ("0.2", "0.05"):
        assert main([*args, "--alpha", alpha, "--out", str(tmp_path / alpha)]) == 0
    assert (tmp_path / "0.2" / "result.json").read_bytes() == (tmp_path / "0.05" / "result.json").read_bytes()
    wide, narrow = ([r.split(",") for r in (tmp_path / a / "ppplot.csv").read_text().splitlines()] for a in ("0.2", "0.05"))
    assert [r[:2] for r in wide] == [r[:2] for r in narrow]
    assert [r[2:] for r in wide] != [r[2:] for r in narrow]


def test_subcommands_are_the_five(tmp_path, capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["simulate", "train-npe", "test", "sweep"]
    for command in ("ppplot", "heatmap", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--method", "lc2st", "--out", str(tmp_path)])
        assert exc.value.code == 2 and f"invalid choice: '{command}'" in capsys.readouterr().err


def _usage_error(capsys, argv) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1
    return err


def test_task_parameter_the_builder_does_not_take_is_named(tmp_path, capsys):
    err = _usage_error(capsys, ["simulate", "--task", "gaussian_conjugate", "--bound", "2", "--n", "5", "--out", str(tmp_path)])
    assert "'bound'" in err


def test_unknown_plan_key_is_named(tmp_path, capsys):
    plan = {**ExperimentPlan(kind="type1").to_dict(), "n_run": 3}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    err = _usage_error(capsys, ["sweep", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path)])
    assert "'n_run'" in err


def test_wrongly_typed_plan_value_is_named(tmp_path, capsys):
    plan = {**ExperimentPlan(kind="type1").to_dict(), "n_runs": "3"}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    err = _usage_error(capsys, ["sweep", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path)])
    assert "n_runs" in err


def test_string_sigma_grid_is_named(tmp_path, capsys):
    plan = {**ExperimentPlan(kind="sigma-sweep").to_dict(), "sigma_grid": "12"}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    err = _usage_error(capsys, ["sweep", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path)])
    assert "sigma_grid" in err and not (tmp_path / "power.csv").exists()


@pytest.mark.parametrize(
    "estimator, key",
    [
        ({"kind": "distortion", "shfit": 0.3}, "shfit"),
        ({"kind": "npe", "max_epochs": 2, "n_layer": 2}, "n_layer"),
        ({"kind": "exact", "scale": 2.0}, "scale"),
    ],
)
def test_unknown_estimator_key_is_named(tmp_path, capsys, estimator, key):
    # a type-I plan never reads its estimator spec, so the plan itself checks it
    kind = "type1" if estimator["kind"] == "exact" else "power"
    plan = ExperimentPlan(kind="type1", n_train_grid=[1], n_cal_grid=[50], n_runs=1, n_observations=1).to_dict()
    (tmp_path / "plan.json").write_text(json.dumps({**plan, "kind": kind, "estimator": estimator}))
    err = _usage_error(capsys, ["sweep", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path)])
    assert repr(key) in err


def test_flow_checkpoint_without_a_key_is_named(tmp_path, capsys, affine_flow):
    checkpoint = json.loads(affine_flow.read_text())
    del checkpoint["spec"]["noise_std"]
    affine_flow.write_text(json.dumps(checkpoint))
    err = _usage_error(capsys, ["test", "--method", "lc2st-nf", "--flow", str(affine_flow), "--out", str(tmp_path)])
    assert "'noise_std'" in err


def test_oracle_method_via_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "test", "--method", "oracle-c2st-mse", "--task", "gaussian_conjugate",
            "--n-cal", "300", "--n-null", "10", "--n-v", "300", "--distort-scale", "2.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["p_value"] == 0.0  # scale-2 distortion is blatant
    assert [p.name for p in out.iterdir()] == ["result.json"]  # no PP-plot or heatmap for an oracle test


@pytest.mark.parametrize("flag", [["--distort-shift", "0.5"], ["--distort-scale", "3"]])
def test_distortion_of_a_flow_checkpoint_is_a_usage_error(tmp_path, capsys, affine_flow, flag):
    err = _usage_error(capsys, ["test", "--method", "lc2st", "--flow", str(affine_flow), *flag, "--out", str(tmp_path)])
    assert flag[0] in err and not (tmp_path / "result.json").exists()


def test_lc2st_nf_without_flow_is_usage_error(tmp_path, capsys):
    code = main(["test", "--method", "lc2st-nf", "--task", "gaussian_conjugate", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["lc2st", "oracle-c2st-acc", "oracle-c2st-mse"])
@pytest.mark.parametrize("flag, field", [("--n-cal", "n_cal"), ("--n-null", "n_null"), ("--n-v", "n_v")])
def test_negative_size_is_usage_error_naming_its_field(tmp_path, capsys, method, flag, field):
    code = main(["test", "--method", method, "--n-v", "50", flag, "-5", "--out", str(tmp_path)])
    assert code == 2 and not (tmp_path / "result.json").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: usage: {field} must be") and err.count("\n") == 1


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["test", "--no-such-flag", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_plan_file_is_usage_error(tmp_path, capsys):
    code = main(["sweep", "--plan", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert code == 2


def test_fit_failure_is_runtime_error(tmp_path, capsys):
    # two calibration rows per class cannot fit a QDA covariance: FitError
    code = main(["test", "--n-cal", "2", "--n-null", "5", "--n-v", "50", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: runtime:") and err.count("\n") == 1


def test_train_npe_then_nf_test_and_heatmap(tmp_path):
    flow_dir = tmp_path / "flow"
    code = main(
        [
            "train-npe", "--task", "gaussian_conjugate", "--n-train", "400",
            "--layers", "2", "--hidden", "8", "--epochs", "3", "--seed", "1",
            "--out", str(flow_dir),
        ]
    )
    assert code == 0
    flow = load_flow(flow_dir / "flow.json")
    assert flow.m == 2
    trace_lines = (flow_dir / "loss_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "epoch,train_nll,holdout_nll"
    assert len(trace_lines) >= 2

    test_dir = tmp_path / "nf"
    code = main(
        [
            "test", "--method", "lc2st-nf", "--task", "gaussian_conjugate",
            "--flow", str(flow_dir / "flow.json"), "--n-cal", "300", "--n-null", "10",
            "--n-v", "300", "--bins", "5", "--out", str(test_dir),
        ]
    )
    assert code == 0
    assert (test_dir / "result.json").exists()
    lines = (test_dir / "heatmap.csv").read_text().splitlines()
    assert lines[0] == "dim_i,dim_j,bin_i,bin_j,count,mean_prob"
    assert len(lines) == 1 + 2 * 5 + 25


def test_ppplot_writes_monotone_cdf(tmp_path):
    out = tmp_path / "pp"
    code = main(
        [
            "test", "--method", "lc2st", "--task", "gaussian_conjugate",
            "--n-cal", "400", "--n-null", "20", "--n-v", "400", "--out", str(out),
        ]
    )
    assert code == 0
    rows = (out / "ppplot.csv").read_text().splitlines()
    assert rows[0] == "level,cdf,lower,upper"
    cdf = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(cdf) >= 0)


def test_sweep_sigma_plan_power_csv(tmp_path):
    plan = ExperimentPlan(
        kind="sigma-sweep",
        sigma_grid=[1.0],
        task_params={"dim": 2},
        n_per_class=300,
        n_runs=2,
        n_null=10,
        n_v=300,
        seed=9,
    )
    plan_path = tmp_path / "plan.json"
    plan.save(plan_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--plan", str(plan_path), "--out", str(out)]) == 0
    lines = (out / "power.csv").read_text().splitlines()
    assert lines[0] == "sigma,n_runs,tpr,se"
    assert (out / "power_acc0.csv").exists()
    assert (out / "results.json").exists()


def test_sweep_type1_outputs(tmp_path):
    plan = ExperimentPlan(
        kind="type1",
        method="lc2st",
        task="gaussian_conjugate",
        task_params={"m": 2, "noise_std": 1.0},
        n_train_grid=[1],
        n_cal_grid=[200],
        n_observations=1,
        n_runs=2,
        n_null=10,
        n_v=200,
        seed=2,
    )
    plan_path = tmp_path / "plan.json"
    plan.save(plan_path)
    out = tmp_path / "t1"
    assert main(["sweep", "--plan", str(plan_path), "--out", str(out)]) == 0
    assert (out / "type1.csv").read_text().splitlines()[0] == "n_train,n_cal,rate,se"
    assert (out / "runtime.csv").read_text().splitlines()[0] == "method,n_train,n_cal,phase,median_seconds"
    payload = json.loads((out / "results.json").read_text())
    assert {"plan", "records", "aggregates", "small_sample_warning"} <= set(payload)


def test_bench_outputs(tmp_path):
    plan = ExperimentPlan(
        kind="bench",
        method="lc2st",
        task="gaussian_conjugate",
        task_params={"m": 2, "noise_std": 1.0},
        n_train_grid=[1],
        n_cal_grid=[200],
        n_observations=1,
        n_runs=3,
        n_null=5,
        n_v=200,
        seed=2,
    )
    plan_path = tmp_path / "plan.json"
    plan.save(plan_path)
    out = tmp_path / "bench"
    assert main(["sweep", "--plan", str(plan_path), "--out", str(out)]) == 0
    assert (out / "runtime.csv").read_text().splitlines()[0] == "method,n_train,n_cal,phase,median_seconds"
    assert sorted(p.name for p in out.iterdir()) == ["machine.json", "runtime.csv"]
    machine = json.loads((out / "machine.json").read_text())
    assert machine["cpu_count"] >= 1
    assert set(machine) == {"platform", "python", "numpy", "cpu_count"}


@pytest.mark.parametrize("classifier, named", [({"kind": "mlp", "hidden_sizes": 5}, "MlpConfig.hidden_sizes"), ({"kind": "qda", "ridge": "1"}, "QdaFitter.ridge")])
def test_bad_classifier_setting_is_a_usage_error(tmp_path, capsys, classifier, named):
    plan = ExperimentPlan(kind="type1", n_train_grid=[1], n_cal_grid=[50], n_runs=1, n_observations=1, classifier=classifier)
    plan.save(tmp_path / "plan.json")
    err = _usage_error(capsys, ["sweep", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path)])
    assert f"cell (n_train=1): {named} " in err and not (tmp_path / "results.json").exists()


def test_vector_shift_for_a_flow_is_a_usage_error(tmp_path, capsys):
    plan = ExperimentPlan(
        kind="power", method="lc2st-nf", n_train_grid=[1], n_cal_grid=[50], n_runs=3, n_observations=1, n_null=2,
        n_v=50, estimator={"kind": "distortion", "shift": [0.3, -0.2]},
    )
    plan.save(tmp_path / "plan.json")
    err = _usage_error(capsys, ["sweep", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path)])
    assert "'shift'" in err and not (tmp_path / "power.csv").exists()


@pytest.mark.parametrize(
    "over, named",
    [({"estimator": {"kind": "distortion", "scale": "2"}}, "scale"), ({"classifier": "qda"}, "classifier"), ({"kind": "type1", "task_params": {"m": 2.5}}, "m")],
)
def test_wrongly_typed_plan_value_is_a_usage_error(tmp_path, capsys, over, named):
    plan = {"kind": "power", "n_train_grid": [1], "n_cal_grid": [50], "n_runs": 1, "n_observations": 1, "n_null": 2, "n_v": 50}
    (tmp_path / "plan.json").write_text(json.dumps({**plan, **over}))
    err = _usage_error(capsys, ["sweep", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path)])
    assert f": {named} must be" in err and not (tmp_path / "power.csv").exists()


def test_negative_npe_epochs_is_a_usage_error(tmp_path, capsys):
    argv = ["train-npe", "--task", "gaussian_conjugate", "--n-train", "20", "--out", str(tmp_path)]
    for flags, named in ((["--epochs", "-3"], "NpeConfig.max_epochs"), (["--hidden", "0"], "hidden"), (["--hidden", "-3"], "hidden")):
        err = _usage_error(capsys, [*argv, *flags])
        assert f": {named} " in err and not (tmp_path / "flow.json").exists()
