"""Benchmark of lc2st local tests: one seeded workload per process.

    python3 benchmark/run.py --workload qda-amortized --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --smoke

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The lines
before it record the environment, the output digest and, for traced runs,
the exact counts and span coverage.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads; the harness pool stays off.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("LC2ST_THREADS", None)

import argparse  # noqa: E402
import fnmatch  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Instrumentation, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SETUP_REPEATS = 3
CPUS = sorted(os.sched_getaffinity(0))
SMOKE_SECONDS = 0.5
END_TO_END = [("tests_per_s", "tests/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_rev() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(ROOT / ".git" / ref)
    if rev:
        return rev
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3"):
            caches[f"l{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2", "unknown"),
        "l3_cache": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "lc2st_threads": os.environ.get("LC2ST_THREADS"),
    }


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def run_rounds(lc2st, workload, state, size, seed: int, rounds) -> tuple[list, list[float]]:
    """Run the given rounds; round r is pinned to the r-th allowed CPU, in turn.

    On a shared host each CPU has its own slow and fast phases, lasting
    seconds, so rotating the CPU lets the fastest time per test position
    come from whichever CPU was quiet.
    """
    outcomes, times = [], []
    try:
        for r in rounds:
            os.sched_setaffinity(0, {CPUS[r % len(CPUS)]})
            t0 = time.perf_counter()
            outcomes.extend(workload.run_round(lc2st, state, size, seed, r))
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, CPUS)
    return outcomes, times


def fastest_round(outcomes: list, tests_per_round: int) -> float:
    """Sum over a round's test positions of the fastest time at that position.

    Every round runs the same sequence of tests on fresh inputs of one size,
    and other tenants of a shared machine only ever slow a test down, so the
    fastest time per position is the steadiest estimate of the code's speed.
    """
    return sum(min(o.seconds for o in outcomes[j::tests_per_round]) for j in range(tests_per_round))


def import_seconds() -> float:
    """Time of ``import lc2st`` in a fresh child interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import lc2st; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_run(lc2st, workload, size, seed: int, seconds: float, import_s: float) -> tuple[dict, list]:
    """Untraced: median of repeated set-ups, then rounds while another round
    of median length still ends within ``seconds`` (at least one round).

    ``tests_per_s`` is tests per round over :func:`fastest_round`.
    """
    import_times = [import_s] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(lc2st, size, seed)
        setup_times.append(time.perf_counter() - t0)
    outcomes, round_times = [], []
    start = time.perf_counter()
    r = 0
    while not round_times or time.perf_counter() - start + statistics.median(round_times) <= seconds:
        out, times = run_rounds(lc2st, workload, state, size, seed, [r])
        outcomes += out
        round_times += times
        r += 1
    values = {
        "tests_per_s": workload.tests_per_round / fastest_round(outcomes, workload.tests_per_round),
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    log(
        f"{workload.name}: {r} rounds in {time.perf_counter() - start:.2f} s; "
        "imports " + " ".join(f"{t:.4f}" for t in import_times)
        + "; set-ups " + " ".join(f"{t:.4f}" for t in setup_times)
        + "; rounds " + " ".join(f"{t:.4f}" for t in round_times)
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, outcomes


def coverage_errors(workload, inst: Instrumentation, fired: set) -> list[str]:
    errors = []
    for pattern in workload.expect:
        if not fnmatch.filter(inst.installed, pattern):
            log(f"coverage: {pattern} missing (no such wrapper target)")
        elif not fnmatch.filter(fired, pattern):
            errors.append(f"expected span {pattern} stayed silent")
    for pattern in workload.silent:
        for name in fnmatch.filter(fired, pattern):
            errors.append(f"span {name} fired but {workload.name} declares it silent")
    return errors


def traced_run(lc2st, workload, size, seed: int, seconds: float) -> tuple[dict, list, list[str]]:
    """The same rounds untraced, then traced, then round 0 traced again.

    The round count is fixed by ``seconds`` and the size's nominal round
    time, so counts are exact functions of the code, seed and ``seconds``.
    """
    k = max(1, int(seconds / (2.0 * size.round_s)))
    state = workload.setup(lc2st, size, seed)
    untraced, untraced_times = run_rounds(lc2st, workload, state, size, seed, range(k))

    inst = Instrumentation().install()
    try:
        setup_tracer = Tracer()
        inst.tracer = setup_tracer
        state = workload.setup(lc2st, size, seed)
        tracer = inst.tracer = Tracer()
        t0 = time.perf_counter()
        traced, _ = run_rounds(lc2st, workload, state, size, seed, [0])
        first_counts = tracer.counts()
        more, _ = run_rounds(lc2st, workload, state, size, seed, range(1, k))
        traced_s = time.perf_counter() - t0
        traced += more
        again_tracer = inst.tracer = Tracer()
        again, _ = run_rounds(lc2st, workload, state, size, seed, [0])
    finally:
        inst.uninstall()

    errors = coverage_errors(workload, inst, tracer.fired())
    for name in inst.missing:
        log(f"coverage: wrapper target {name} missing")
    again_counts = again_tracer.counts()
    if again_counts != first_counts:
        diff = {
            key: (first_counts.get(key), again_counts.get(key))
            for key in set(first_counts) | set(again_counts)
            if first_counts.get(key) != again_counts.get(key)
        }
        errors.append(f"traced counts differ between two traced runs of round 0: {diff}")

    def pairs(outcomes):
        return [(o.statistic, o.p_value) for o in outcomes]

    if pairs(traced) != pairs(untraced) or pairs(again) != pairs(untraced[: len(again)]):
        errors.append("traced results differ from untraced results of the same rounds")
    counts = tracer.counts()
    print("trace-counts " + json.dumps({"rounds": k, **counts}, sort_keys=True))
    n_tests = k * workload.tests_per_round
    metrics = layer_metrics(tracer, n_tests, setup_tracer, traced_s, sum(untraced_times))
    log(f"{workload.name}: traced {k} rounds in {traced_s:.2f} s, untraced {sum(untraced_times):.2f} s")
    return metrics, untraced + traced + again, errors


def load_digests() -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    size_name = "tiny" if args.tiny else "full"
    size = workload.sizes[size_name]
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lc2st
    except ImportError as exc:
        log(f"cannot import lc2st from {ROOT / 'src'}: {exc}")
        return 2
    import_s = time.perf_counter() - t0

    errors: list[str] = []
    if args.trace:
        metrics, outcomes, errors = traced_run(lc2st, workload, size, args.seed, args.seconds)
    else:
        metrics, outcomes = timed_run(lc2st, workload, size, args.seed, args.seconds, import_s)
    failures = [o.error for o in outcomes if o.error is not None]
    for error in failures[:5]:
        log(f"failed test: {error}")
    for error in errors:
        log(f"ERROR: {error}")

    first = digest(outcomes[: workload.tests_per_round])
    recorded = load_digests().get(size_name, {}).get(workload.name, {}).get(str(args.seed))
    state = "unrecorded" if recorded is None else ("unchanged" if recorded == first else "changed")
    print(f"digest {workload.name} size={size_name} seed={args.seed} round0 sha256={first} {state}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(
        f"summary {workload.name} attempted={len(outcomes)} failed={len(failures)} "
        f"failed_frac={len(failures) / len(outcomes):.6g} "
        + " ".join(f"{name}={m['value']:.6g}{m['unit']}" for name, m in metrics.items() if not args.trace)
    )
    result = {
        "correct": not failures and not errors,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------


def smoke() -> int:
    """All workloads at tiny size, untraced and traced twice, in child processes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems, rows = [], []
    for name in WORKLOADS:
        seen_counts = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "0",
                   "--seconds", str(SMOKE_SECONDS), "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {units} != BENCHMARK.json {expected[trace]}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: not correct\n{proc.stderr}")
            if trace:
                seen_counts.append(next(l for l in lines if l.startswith("trace-counts ")))
            else:
                m = result["metrics"]
                rows.append(
                    f"{name:14s} tests_per_s={m['tests_per_s']['value']:10.4g} tests/s  "
                    f"setup_s={m['setup_s']['value']:8.4g} s  peak_rss_mb={m['peak_rss_mb']['value']:8.4g} MB  "
                    f"failed_frac={result['failed'] / result['attempted']:.3g} ratio"
                )
        if len(seen_counts) == 2 and seen_counts[0] != seen_counts[1]:
            problems.append(f"{name}: traced counts differ across two traced runs\n{seen_counts}")
    print("\n".join(rows))
    for problem in problems:
        log(f"SMOKE FAILURE: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny input sizes (smoke mode uses these)")
    parser.add_argument("--smoke", action="store_true", help="run every workload tiny, untraced and traced")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
