"""The benchmark's smoke run: every workload tiny, untraced and traced."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    # fails when a refactor silences a span a workload expects, makes traced
    # counts nondeterministic, or breaks what the benchmark calls
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert out.stdout.strip().splitlines()[-1] == "smoke: ok"
    # the smoke run only logs a span target that no longer resolves
    spec = importlib.util.spec_from_file_location("benchmark_spans", ROOT / "benchmark" / "spans.py")
    spans = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
        inst = spans.Instrumentation().install()
        try:
            assert inst.missing == []
        finally:
            inst.uninstall()
    finally:
        del sys.modules[spec.name]
