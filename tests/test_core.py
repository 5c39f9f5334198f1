"""Datasets, splitting, RNG streams, and serialization round-trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lc2st import (
    ConfigurationError,
    DataFormatError,
    ExperimentPlan,
    JointDataset,
    LabeledPairDataset,
    RngStream,
    load_classifier,
    load_dataset,
    load_flow,
    load_metadata,
    save_dataset,
)
from lc2st.core import save_csv


def make_joint(n, m=2, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return JointDataset(rng.standard_normal((n, m)), rng.standard_normal((n, d)))


class TestRngStream:
    def test_identical_pairs_reproduce_sequences(self):
        a = RngStream(seed=123, stream_id=7).generator().standard_normal(100)
        b = RngStream(seed=123, stream_id=7).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(seed=123, stream_id=0).generator().standard_normal(100)
        b = RngStream(seed=123, stream_id=1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_child_deterministic_and_label_sensitive(self):
        s = RngStream(seed=5)
        assert s.child("null", 3) == s.child("null", 3)
        assert s.child("null", 3) != s.child("null", 4)
        assert s.child("null") != s.child("fit")

    @pytest.mark.parametrize("n", [0, 1, 100])
    def test_child_keys_are_the_children_bitwise(self, n):
        for s in (RngStream(seed=123, stream_id=7), RngStream(seed=(1 << 64) - 1, stream_id=(1 << 64) - 1)):
            assert s.child_keys("trial", n) == [(c.seed, c.stream_id) for c in (s.child("trial", h) for h in range(n))]

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ConfigurationError):
            RngStream(seed=-1)
        with pytest.raises(ConfigurationError):
            RngStream(seed=1 << 64)


class TestDatasets:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ConfigurationError):
            JointDataset([[np.nan, 0.0]], [[1.0, 2.0]])
        with pytest.raises(ConfigurationError):
            JointDataset([[1.0, 0.0]], [[np.inf, 2.0]])
        with pytest.raises(ConfigurationError):
            LabeledPairDataset([[np.nan]], [0])

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ConfigurationError):
            JointDataset(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_labels_must_be_balanced(self):
        ws = np.zeros((4, 2))
        with pytest.raises(ConfigurationError):
            LabeledPairDataset(ws, [0, 0, 0, 1])
        LabeledPairDataset(ws, [0, 0, 1, 1])  # balanced is fine

    def test_labels_must_be_binary(self):
        with pytest.raises(ConfigurationError):
            LabeledPairDataset(np.zeros((2, 1)), [0, 2])

    @pytest.mark.parametrize("bad", [0.5, 2, -1, np.nan])
    def test_each_non_binary_label_is_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="binary"):
            LabeledPairDataset(np.zeros((2, 1)), [0, bad])
        assert LabeledPairDataset(np.zeros((2, 1)), [1.0, 0.0]).labels.tolist() == [1, 0]

    def test_class_accessors(self):
        data = LabeledPairDataset.from_class_arrays(np.zeros((3, 2)), np.ones((3, 2)))
        assert data.n_class0 == data.n_class1 == 3
        assert np.all(data.ws[data.labels == 1] == 1.0)

    def test_read_only_views_leave_the_callers_arrays_writeable(self):
        thetas, xs, ws = np.zeros((4, 2)), np.ones((4, 3)), np.arange(8.0).reshape(4, 2)
        joint, labeled = JointDataset(thetas, xs), LabeledPairDataset(ws, [0, 1, 0, 1])
        for own, given in ((joint.thetas, thetas), (joint.xs, xs), (labeled.ws, ws)):
            assert not own.flags.writeable and given.flags.writeable
            assert np.shares_memory(own, given)  # a view, not a copy
            with pytest.raises(ValueError, match="read-only"):
                own[0, 0] = 1.0
        # an array that is already read-only is kept as it is
        assert JointDataset(joint.thetas, joint.xs).thetas is joint.thetas


class TestSerialization:
    def test_empty_dataset_round_trip(self, tmp_path):
        data = JointDataset(np.empty((0, 2)), np.empty((0, 2)))
        path = tmp_path / "empty.csv"
        save_dataset(data, path)
        assert path.read_text().splitlines() == ["theta_0,theta_1,x_0,x_1"]
        loaded = load_dataset(path)
        assert loaded.n == 0 and loaded.m == 2 and loaded.d == 2

    def test_single_row_exact_line(self, tmp_path):
        data = JointDataset([[1.0, 2.0]], [[3.0, 4.0]])
        path = tmp_path / "one.csv"
        save_dataset(data, path)
        assert path.read_text().splitlines()[1] == "1,2,3,4"
        assert load_dataset(path) == data

    def test_csv_rows_write_floats_as_their_repr(self, tmp_path):
        save_csv(tmp_path / "t.csv", "a,b,c", [(1, 0.1, "x"), (2, 1e-20, True), (3, float("nan"), -0.0)])
        assert (tmp_path / "t.csv").read_text() == "a,b,c\n1,0.1,x\n2,1e-20,True\n3,nan,-0.0\n"

    def test_metadata_sidecar(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(make_joint(3), path, seed=11, task_name="gaussian_conjugate")
        meta = load_metadata(path)
        assert meta == {"m": 2, "d": 2, "N": 3, "seed": 11, "task_name": "gaussian_conjugate"}

    @pytest.mark.parametrize("load, what", [
        (ExperimentPlan.load, "an experiment plan"),
        (load_flow, "a flow checkpoint"),
        (load_classifier, "a classifier checkpoint"),
        (load_metadata, "dataset metadata"),
    ], ids=["plan", "flow", "classifier", "metadata"])
    @pytest.mark.parametrize("text, got", [
        ('{"kind": "qda", ', "not valid JSON (Expecting property name"),
        ("\xff{}", "not valid JSON ('utf-8' codec can't decode byte 0xff"),
        ("[]", "as a JSON object, got []"),
        ("[1]", "as a JSON object, got [1]"),
        ('"x"', "as a JSON object, got 'x'"),
    ], ids=["truncated", "not-utf-8", "empty-list", "list", "string"])
    def test_json_readers_want_an_object_and_name_the_file(self, tmp_path, load, what, text, got):
        path = tmp_path / "input.json"
        read = path.with_name(path.name + ".meta.json") if load is load_metadata else path  # a dataset's sidecar
        read.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{read}: expected {what}')},? {re.escape(got)}"):
            load(path)

    def test_ragged_row_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta_0,theta_1,x_0,x_1\n1,2,3,4\n1,2,3\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_dataset(path)

    def test_non_numeric_cell_cites_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta_0,x_0\n1,oops\n")
        with pytest.raises(DataFormatError, match=r"line 2.*column 1"):
            load_dataset(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(path)

    def test_awkward_values_round_trip(self, tmp_path):
        thetas = np.array([[0.1, -0.0], [1e16, 5e-324], [np.pi, -1.7976931348623157e308]])
        xs = np.array([[1.0], [2.0 / 3.0], [1e-300]])
        data = JointDataset(thetas, xs)
        path = tmp_path / "awkward.csv"
        save_dataset(data, path)
        assert load_dataset(path) == data

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=1000),
        m=st.integers(min_value=1, max_value=10),
        d=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_property(self, n, m, d, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-12, 12)
        data = JointDataset(scale * rng.standard_normal((n, m)), scale * rng.standard_normal((n, d)))
        path = tmp_path_factory.mktemp("rt") / "data.csv"
        save_dataset(data, path)
        assert load_dataset(path) == data
