"""CLI contracts: subcommands, output files, exit codes."""

import json

import numpy as np
import pytest

from lc2st import load_dataset, load_flow, load_metadata
from lc2st.cli import main
from lc2st.harness import ExperimentPlan


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


def test_lc2st_result_equals_library_train_and_evaluate(tmp_path):
    # the CLI builds the paired-flip null of lc2st_train, not a free permutation
    from lc2st import RngStream, derive_stream, lc2st_evaluate, lc2st_train, make_task, qda_factory

    out = tmp_path / "r"
    args = ["--n-cal", "400", "--n-null", "15", "--n-v", "300", "--x-seed", "3", "--seed", "5"]
    assert main(["test", "--method", "lc2st", "--task", "gaussian_conjugate", *args, "--out", str(out)]) == 0
    task = make_task("gaussian_conjugate")
    _, x_o = task.observation(derive_stream(3, "obs", 0))
    stream = derive_stream(5, "test")
    cal = task.sample_joint(400, stream.child("cal"))
    clf, ensemble = lc2st_train(task.reference, cal, qda_factory(), 15, stream)
    expected = tmp_path / "expected.json"
    lc2st_evaluate(clf, ensemble, task.reference, x_o, 300, stream.child("test")).save(expected)
    assert (out / "result.json").read_text() == expected.read_text()


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


def test_lc2st_nf_without_flow_is_usage_error(tmp_path, capsys):
    code = main(["test", "--method", "lc2st-nf", "--task", "gaussian_conjugate", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["test", "--no-such-flag", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_plan_file_is_usage_error(tmp_path, capsys):
    code = main(["sweep", "--plan", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert code == 2


def test_oracle_budget_exhaustion_is_runtime_error(tmp_path, capsys):
    code = main(
        [
            "test", "--method", "oracle-c2st-mse", "--task", "two_moons",
            "--eps", "1e-9", "--budget", "1000", "--n-cal", "50", "--n-v", "50",
            "--out", str(tmp_path),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: runtime:")


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
            "--n-v", "300", "--out", str(test_dir),
        ]
    )
    assert code == 0
    assert (test_dir / "result.json").exists()

    heat_dir = tmp_path / "heat"
    code = main(
        [
            "heatmap", "--task", "gaussian_conjugate", "--flow", str(flow_dir / "flow.json"),
            "--n-cal", "300", "--n-null", "5", "--n-v", "500", "--bins", "5",
            "--out", str(heat_dir),
        ]
    )
    assert code == 0
    lines = (heat_dir / "heatmap.csv").read_text().splitlines()
    assert lines[0] == "dim_i,dim_j,bin_i,bin_j,count,mean_prob"
    assert len(lines) == 1 + 2 * 5 + 25


def test_ppplot_writes_monotone_cdf(tmp_path):
    out = tmp_path / "pp"
    code = main(
        [
            "ppplot", "--method", "lc2st", "--task", "gaussian_conjugate",
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
        method="oracle-c2st-mse",
        sigma_grid=[1.0],
        task_params={"dim": 2},
        n_per_class=300,
        n_runs=2,
        n_null=10,
        n_v=300,
        seed=9,
        n_train_grid=[1],
        n_cal_grid=[1],
        n_observations=1,
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
        n_runs=1,
        n_null=5,
        n_v=200,
        seed=2,
    )
    plan_path = tmp_path / "plan.json"
    plan.save(plan_path)
    out = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out)]) == 0
    assert (out / "runtime.csv").exists()
    assert json.loads((out / "machine.json").read_text())["cpu_count"] >= 1
