"""Core domain types: datasets, seeded RNG streams, serialization.

Everything downstream (tasks, classifiers, flows, tests, sweeps) builds on the
types in this module.  All arrays are float64, validated finite at
construction, and frozen (read-only numpy views) so instances can be shared
freely between workers.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

__all__ = [
    "Lc2stError",
    "ConfigurationError",
    "DataFormatError",
    "FitError",
    "TrainingError",
    "NumericError",
    "OracleUnavailableError",
    "UndefinedPointError",
    "reject_unknown_keys",
    "check_count",
    "check_real",
    "RngStream",
    "derive_stream",
    "JointDataset",
    "LabeledPairDataset",
    "save_json",
    "load_json_object",
    "save_csv",
    "save_dataset",
    "load_dataset",
    "load_metadata",
]

_U64 = 1 << 64


class Lc2stError(Exception):
    """Base class for all library errors."""


class ConfigurationError(Lc2stError):
    """Invalid sizes, grids, or parameter values."""


class DataFormatError(Lc2stError):
    """Malformed on-disk data (CSV header, cells, row shapes)."""


class FitError(Lc2stError):
    """Closed-form classifier fit failed (degenerate classes, singular covariance)."""


class TrainingError(Lc2stError):
    """Iterative training diverged; the message names the epoch, and NPE errors carry the flow in ``.flow``."""


class NumericError(Lc2stError):
    """Non-finite value produced where a finite one is required."""


class OracleUnavailableError(Lc2stError):
    """A reference posterior's rejection rounds left rows without a draw.

    Every reference is exact; this marks an observation the prior can (almost)
    never produce, such as two_moons at (5, 5).
    """


class UndefinedPointError(Lc2stError):
    """Bayes probability is undefined (both class densities zero)."""


def reject_unknown_keys(keys, valid, what: str) -> None:
    """Raise ``ConfigurationError`` naming the first of ``keys`` not in ``valid``."""
    unknown = sorted(set(keys) - set(valid))
    if unknown:
        raise ConfigurationError(f"unknown {what} {unknown[0]!r}; valid: {sorted(valid)}")


def check_count(name: str, value, low: int) -> None:
    """Raise ``ConfigurationError`` naming ``name`` unless ``value`` is an
    integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, what: str, valid) -> None:
    """Raise ``ConfigurationError`` naming ``name`` unless ``value`` is a real
    number (not a bool) for which ``valid(value)`` holds; ``what`` says
    which values are valid."""
    if isinstance(value, bool) or not isinstance(value, Real) or not valid(value):
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")


# ---------------------------------------------------------------------------
# Seeded random-number contract
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Handle for one reproducible, platform-stable random stream.

    The generator is Philox (counter-based) keyed by the 128-bit value
    ``seed * 2**64 + stream_id``, so distinct (seed, stream_id) pairs index
    distinct, statistically independent streams and identical pairs reproduce
    identical draw sequences across runs and platforms.

    Streams are cheap value objects; derive as many as needed with
    :meth:`child` and give each worker its own.  Never share a ``Generator``
    instance between workers.  A null's member keys come from
    :meth:`child_keys`, one hashed prefix for all members.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not (0 <= v < _U64):
                raise ConfigurationError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=(int(self.seed) << 64) | int(self.stream_id)))

    def child(self, *path: int | str) -> "RngStream":
        """Derive an independent stream from this one and a path of labels.

        The derivation hashes (seed, stream_id, *path) with BLAKE2b, so child
        streams are deterministic, order-sensitive, and collision-resistant.
        String labels separate unrelated purposes ("obs", "null", ...).
        """
        if not path:
            raise ConfigurationError("child() requires at least one path element")
        h = self._hashed(path)
        a, b = struct.unpack("<QQ", h.digest())
        return RngStream(seed=a, stream_id=b)

    def child_keys(self, label: str, n: int) -> list[tuple[int, int]]:
        """(seed, stream_id) of ``child(label, h)`` for h in ``range(n)``,
        bitwise, from one hashed prefix: each key copies the hash state of
        (seed, stream_id, label) and adds h, with no stream built."""
        prefix = self._hashed((label,))
        keys = []
        for h in range(n):
            state = prefix.copy()
            state.update(b"i" + h.to_bytes(8, "little"))
            keys.append(struct.unpack("<QQ", state.digest()))
        return keys

    def _hashed(self, path):
        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<QQ", self.seed, self.stream_id))
        for part in path:
            if isinstance(part, str):
                h.update(b"s" + part.encode("utf-8") + b"\x00")
            elif isinstance(part, (int, np.integer)) and 0 <= int(part) < _U64:
                h.update(b"i" + struct.pack("<Q", int(part)))
            else:
                raise ConfigurationError(f"stream path elements must be uint64 or str, got {part!r}")
        return h


def derive_stream(master_seed: int, *path: int | str) -> RngStream:
    """Stream derived from a master seed and a label path (sweep sub-seeding)."""
    return RngStream(seed=int(master_seed)).child(*path)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains NaN or Inf")
    arr = np.ascontiguousarray(arr)
    if arr.flags.writeable:  # a read-only view, which leaves the caller's array writeable
        arr = arr.view()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointDataset:
    """Paired parameter/observation samples drawn from the joint distribution.

    ``thetas`` is (N, m), ``xs`` is (N, d); rows are aligned.  N may be zero,
    the column counts must be positive.
    """

    thetas: np.ndarray
    xs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", _as_matrix(self.thetas, "thetas"))
        object.__setattr__(self, "xs", _as_matrix(self.xs, "xs"))
        if self.thetas.shape[0] != self.xs.shape[0]:
            raise ConfigurationError(
                f"thetas and xs must have equal row counts, got {self.thetas.shape[0]} vs {self.xs.shape[0]}"
            )
        if self.thetas.shape[1] < 1 or self.xs.shape[1] < 1:
            raise ConfigurationError("parameter and observation dimensions must be positive")

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    @property
    def m(self) -> int:
        return self.thetas.shape[1]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDataset):
            return NotImplemented
        return np.array_equal(self.thetas, other.thetas) and np.array_equal(self.xs, other.xs)  # shapes included


@dataclass(frozen=True)
class LabeledPairDataset:
    """Binary classification set over feature vectors w = (theta, x) or (z, x).

    Labels are 0/1 and balanced to within one sample; all features finite.
    """

    ws: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ws", _as_matrix(self.ws, "ws"))
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != self.ws.shape[0]:
            raise ConfigurationError("labels must be a vector aligned with ws rows")
        if not ((labels == 0) | (labels == 1)).all():
            raise ConfigurationError("labels must be binary (0 or 1)")
        labels = np.ascontiguousarray(labels.astype(np.int64))
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        n1 = int(labels.sum())
        n0 = labels.size - n1
        if abs(n0 - n1) > 1:
            raise ConfigurationError(f"labels must be balanced to within one sample, got {n0} vs {n1}")

    @property
    def n(self) -> int:
        return self.ws.shape[0]

    @property
    def dim(self) -> int:
        return self.ws.shape[1]

    @property
    def n_class0(self) -> int:
        return self.n - self.n_class1

    @property
    def n_class1(self) -> int:
        return int(self.labels.sum())

    @staticmethod
    def from_class_arrays(w0: np.ndarray, w1: np.ndarray) -> "LabeledPairDataset":
        w0 = np.atleast_2d(np.asarray(w0, dtype=np.float64))
        w1 = np.atleast_2d(np.asarray(w1, dtype=np.float64))
        ws = np.vstack([w0, w1])
        labels = np.concatenate([np.zeros(len(w0), dtype=np.int64), np.ones(len(w1), dtype=np.int64)])
        return LabeledPairDataset(ws, labels)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _format_value(v: float) -> str:
    # Shortest decimal that round-trips in binary64; integral values drop ".0"
    # so a row (1,2,3,4) serializes as "1,2,3,4".
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def save_dataset(
    data: JointDataset,
    path: str | Path,
    *,
    seed: int | None = None,
    task_name: str | None = None,
) -> None:
    """Write ``data`` as CSV plus a JSON metadata sidecar.

    Header is ``theta_0,...,theta_{m-1},x_0,...,x_{d-1}``; values use the
    shortest round-trip decimal representation so ``load_dataset`` restores
    them bit-exactly.
    """
    path = Path(path)
    header = [f"theta_{j}" for j in range(data.m)] + [f"x_{j}" for j in range(data.d)]
    rows = ([_format_value(v) for v in row] for row in np.hstack([data.thetas, data.xs]))
    save_csv(path, ",".join(header), rows)
    meta = {"m": data.m, "d": data.d, "N": data.n, "seed": seed, "task_name": task_name}
    save_json(meta, _sidecar_path(path))


def save_json(payload, path: str | Path) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file ``path``, which should hold ``what``;
    anything else raises ``DataFormatError`` naming the file and ``what``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError before it
        raise DataFormatError(f"{path}: expected {what}, not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected {what} as a JSON object, got {payload!r:.40}")
    return payload


def save_csv(path: str | Path, header: str, rows) -> None:
    """Write comma-joined ``rows`` under ``header``, lines ending in "\\n" on every
    platform, floats as their (round-trip exact) repr: pass Python floats, as
    a numpy 2 scalar's repr names its type."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _parse_header(header_line: str, path: Path) -> tuple[int, int]:
    names = header_line.rstrip("\n").split(",")
    m = sum(1 for s in names if s.startswith("theta_"))
    d = len(names) - m
    expected = [f"theta_{j}" for j in range(m)] + [f"x_{j}" for j in range(d)]
    if m < 1 or d < 1 or names != expected:
        raise DataFormatError(f"{path}: line 1: malformed header {header_line.rstrip()!r}")
    return m, d


def load_dataset(path: str | Path) -> JointDataset:
    """Read a CSV dataset written by :func:`save_dataset`.

    Parse errors name the offending physical line (header is line 1) and
    column.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise DataFormatError(f"{path}: empty file, expected a header line")
        m, d = _parse_header(header, path)
        width = m + d
        values: list[list[float]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != width:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(cells)}"
                )
            row = []
            for col, cell in enumerate(cells):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {lineno}: column {col} ({cell!r}) is not numeric"
                    ) from None
            values.append(row)
    arr = np.asarray(values, dtype=np.float64).reshape(len(values), width)
    return JointDataset(arr[:, :m], arr[:, m:])


def load_metadata(path: str | Path) -> dict:
    """Read the JSON sidecar written alongside a dataset CSV."""
    return load_json_object(_sidecar_path(Path(path)), "dataset metadata")
