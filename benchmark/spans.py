"""Span tracing of the lc2st layers, installed from outside the package.

Every target is a public function or method of one lc2st module (a layer).
:class:`Instrumentation` replaces each target with a wrapper that records a
span: name, duration, the time covered by its child spans, and counts
(calls, rows, MLP epochs).  Names bound by ``from .x import y`` in other
lc2st modules are replaced too, so a call is traced whichever module makes
it.  Nothing under ``src/`` is edited, and ``uninstall`` restores every
original.

A target that no longer exists is reported in ``missing`` and skipped.

Self time of a span is its duration minus the durations of its direct child
spans.  A group's time is the sum of its outermost spans, so a span nested in
another span of the same group (``DistortedPosterior.sample`` calling its
base's ``sample``) is counted once.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "lc2st"
NULL_GROUP = "c2st.null_fit"
FIT_GROUP = "classifiers.fit"


def _rows_arg(index: int):
    def rows(args, kwargs, out) -> int:
        return len(args[index])

    return rows


def _rows_out(args, kwargs, out) -> int:
    return len(out)


def _rows_joint(args, kwargs, out) -> int:
    return int(out.n)


# (group, module, qualname, rows-of-call or None).  The span name is
# "<module>.<qualname>".
TARGETS = [
    ("harness.run_type1", "harness", "run_type1", None),
    ("c2st.training_set", "c2st", "lc2st_training_set", None),
    ("c2st.train", "c2st", "lc2st_train", None),
    ("c2st.train", "c2st", "lc2st_nf_train", None),
    (NULL_GROUP, "c2st", "fit_null_ensemble", None),
    (NULL_GROUP, "c2st", "lc2st_nf_null", None),
    ("c2st.score", "c2st", "lc2st_evaluate", None),
    ("c2st.score", "c2st", "lc2st_nf_evaluate", None),
    (FIT_GROUP, "classifiers", "qda_fit", None),
    (FIT_GROUP, "classifiers", "mlp_fit", None),
    ("classifiers.predict", "classifiers", "QdaModel.predict_proba", _rows_arg(1)),
    ("classifiers.predict", "classifiers", "MlpModel.predict_proba", _rows_arg(1)),
    ("nets.forward", "nets", "mlp_forward", None),
    ("nets.backward", "nets", "mlp_backward", None),
    ("nets.adam", "nets", "Adam.step", None),
    ("tasks.sample_joint", "tasks", "Task.sample_joint", _rows_joint),
    ("flows.inverse", "flows", "ConditionalAffineFlow.inverse", _rows_arg(1)),
    ("flows.inverse", "flows", "ConditionalFlow.inverse", _rows_arg(1)),
    ("core.rng", "core", "RngStream.generator", None),
    ("core.rng", "core", "RngStream.child", None),
    ("core.dataset", "core", "LabeledPairDataset.__init__", None),
]
# Reference posteriors: ``sample`` and ``sample_conditional`` of every
# PosteriorBase subclass that defines them, found when installing.
REFERENCE_GROUP = "tasks.reference"
REFERENCE_METHODS = ("sample", "sample_conditional")


@dataclass
class SpanStats:
    calls: int = 0
    rows: int = 0
    self_seconds: float = 0.0


@dataclass
class Tracer:
    """In-memory span aggregates for one traced interval."""

    spans: dict = field(default_factory=lambda: defaultdict(SpanStats))
    groups: dict = field(default_factory=lambda: defaultdict(float))
    extra: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)
    _depth: dict = field(default_factory=lambda: defaultdict(int))

    def call(self, name, group, rows_of, fn, args, kwargs):
        outermost = self._depth[group] == 0
        if group == FIT_GROUP and self._depth[NULL_GROUP]:
            self.extra["null_member_fits"] += 1
        frame = [0.0]  # time covered by direct children
        self._stack.append(frame)
        self._depth[group] += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._depth[group] -= 1
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            stats = self.spans[name]
            stats.calls += 1
            stats.self_seconds += dt - frame[0]
            if outermost:
                self.groups[group] += dt
        if outermost and rows_of is not None:
            stats.rows += rows_of(args, kwargs, out)
        metadata = getattr(out, "metadata", None)
        if group == FIT_GROUP and isinstance(metadata, dict) and "epochs_run" in metadata:
            self.extra["mlp_epochs"] += int(metadata["epochs_run"])
            self.extra["mlp_best_epochs"] += int(metadata["best_epoch"])
        return out

    def counts(self) -> dict:
        """Every count the tracer holds (no times), for exact comparisons."""
        out = {f"{name}.calls": s.calls for name, s in self.spans.items() if s.calls}
        out.update({f"{name}.rows": s.rows for name, s in self.spans.items() if s.rows})
        out.update({key: v for key, v in self.extra.items() if v})
        return dict(sorted(out.items()))

    def fired(self) -> set:
        return {name for name, s in self.spans.items() if s.calls}


class Instrumentation:
    """Wrappers over the lc2st layers that report to a swappable tracer.

    With ``tracer`` set to None the wrappers call straight through.
    """

    def __init__(self):
        self.tracer: Tracer | None = None
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self) -> list:
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _resolve(self, module: str, qualname: str):
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return None, None, None
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        fn = getattr(owner, attr, None) if attr in vars(owner) else None
        return owner, attr, fn

    def _wrap(self, name: str, group: str, rows_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            return tracer.call(name, group, rows_of, fn, args, kwargs)

        return wrapper

    def _install_one(self, group: str, module: str, qualname: str, rows_of) -> None:
        name = f"{module}.{qualname}"
        owner, attr, fn = self._resolve(module, qualname)
        if fn is None:
            self.missing.append(name)
            return
        wrapper = self._wrap(name, group, rows_of, fn)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        if "." not in qualname:
            # Rebind copies imported by name into other lc2st modules.
            for mod in self._modules():
                if mod is not owner and getattr(mod, attr, None) is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        self.installed.append(name)

    def install(self) -> "Instrumentation":
        for group, module, qualname, rows_of in TARGETS:
            self._install_one(group, module, qualname, rows_of)
        base_owner, _, _ = self._resolve("tasks", "PosteriorBase.sample")
        if base_owner is None:
            self.missing.extend(f"tasks.PosteriorBase.{m}" for m in REFERENCE_METHODS)
            return self
        tasks = importlib.import_module(f"{PACKAGE}.tasks")
        for cls in list(vars(tasks).values()):
            if isinstance(cls, type) and issubclass(cls, base_owner):
                for method in REFERENCE_METHODS:
                    if method in vars(cls):
                        self._install_one(REFERENCE_GROUP, "tasks", f"{cls.__name__}.{method}", _rows_out)
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        self.tracer = None


# Per-layer metrics: (name, unit).  Counts and seconds are per local test of
# the traced timed phase, except where the unit says otherwise.
LAYER_METRICS = [
    ("harness.self_s", "s/test"),
    ("c2st.training_set_s", "s/test"),
    ("c2st.train_s", "s/test"),
    ("c2st.null_fit_s", "s/test"),
    ("c2st.score_s", "s/test"),
    ("c2st.null_fits_timed", "count/test"),
    ("c2st.setup_null_fit_s", "s"),
    ("classifiers.fits", "count/test"),
    ("classifiers.fit_s", "s/test"),
    ("classifiers.predict_rows", "count/test"),
    ("classifiers.predict_s", "s/test"),
    ("classifiers.predict_ns_per_row", "ns"),
    ("classifiers.mlp_epochs", "count/test"),
    ("classifiers.mlp_useful_epoch_frac", "ratio"),
    ("nets.forward_calls", "count/test"),
    ("nets.forward_s", "s/test"),
    ("nets.backward_s", "s/test"),
    ("nets.adam_steps", "count/test"),
    ("nets.adam_s", "s/test"),
    ("tasks.sample_joint_rows", "count/test"),
    ("tasks.sample_joint_s", "s/test"),
    ("tasks.reference_calls", "count/test"),
    ("tasks.reference_rows", "count/test"),
    ("tasks.reference_s", "s/test"),
    ("flows.inverse_rows", "count/test"),
    ("flows.inverse_s", "s/test"),
    ("core.generators", "count/test"),
    ("core.child_streams", "count/test"),
    ("core.rng_s", "s/test"),
    ("core.datasets", "count/test"),
    ("core.dataset_s", "s/test"),
    ("trace.test_s", "s/test"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(
    tracer: Tracer,
    n_tests: int,
    setup_tracer: Tracer,
    traced_seconds: float,
    untraced_seconds: float,
) -> dict:
    """Per-layer metric values from one traced interval of ``n_tests`` tests.

    ``traced_seconds`` is the interval's wall time and ``untraced_seconds``
    the wall time of the same tests run untraced, so
    ``trace.overhead_frac`` is 1 - traced tests/s over untraced tests/s.
    """
    spans, groups, extra = tracer.spans, tracer.groups, tracer.extra

    def calls(*names: str) -> int:
        return sum(spans[n].calls for n in names if n in spans)

    def rows(*names: str) -> int:
        return sum(spans[n].rows for n in names if n in spans)

    reference = [n for n in spans if n.startswith("tasks.") and n.rsplit(".", 1)[1] in REFERENCE_METHODS]
    fits = ("classifiers.qda_fit", "classifiers.mlp_fit")
    predicts = ("classifiers.QdaModel.predict_proba", "classifiers.MlpModel.predict_proba")
    epochs = extra["mlp_epochs"]
    predict_rows = rows(*predicts)
    per_test = {
        "harness.self_s": spans["harness.run_type1"].self_seconds if "harness.run_type1" in spans else 0.0,
        "c2st.training_set_s": groups["c2st.training_set"],
        "c2st.train_s": groups["c2st.train"],
        "c2st.null_fit_s": groups[NULL_GROUP],
        "c2st.score_s": groups["c2st.score"],
        "c2st.null_fits_timed": extra["null_member_fits"],
        "classifiers.fits": calls(*fits),
        "classifiers.fit_s": groups[FIT_GROUP],
        "classifiers.predict_rows": predict_rows,
        "classifiers.predict_s": groups["classifiers.predict"],
        "classifiers.mlp_epochs": epochs,
        "nets.forward_calls": calls("nets.mlp_forward"),
        "nets.forward_s": groups["nets.forward"],
        "nets.backward_s": groups["nets.backward"],
        "nets.adam_steps": calls("nets.Adam.step"),
        "nets.adam_s": groups["nets.adam"],
        "tasks.sample_joint_rows": rows("tasks.Task.sample_joint"),
        "tasks.sample_joint_s": groups["tasks.sample_joint"],
        "tasks.reference_calls": calls(*reference),
        "tasks.reference_rows": rows(*reference),
        "tasks.reference_s": groups[REFERENCE_GROUP],
        "flows.inverse_rows": rows("flows.ConditionalAffineFlow.inverse", "flows.ConditionalFlow.inverse"),
        "flows.inverse_s": groups["flows.inverse"],
        "core.generators": calls("core.RngStream.generator"),
        "core.child_streams": calls("core.RngStream.child"),
        "core.rng_s": groups["core.rng"],
        "core.datasets": calls("core.LabeledPairDataset.__init__"),
        "core.dataset_s": groups["core.dataset"],
        "trace.test_s": traced_seconds,
    }
    values = {name: value / n_tests for name, value in per_test.items()}
    values["c2st.setup_null_fit_s"] = setup_tracer.groups[NULL_GROUP]
    values["classifiers.predict_ns_per_row"] = (
        1e9 * groups["classifiers.predict"] / predict_rows if predict_rows else 0.0
    )
    values["classifiers.mlp_useful_epoch_frac"] = extra["mlp_best_epochs"] / epochs if epochs else 0.0
    values["trace.overhead_frac"] = 1.0 - untraced_seconds / traced_seconds
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in LAYER_METRICS}
