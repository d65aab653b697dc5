import json
import re

import numpy as np
import pytest

from robust_recourse.data import (
    MU0,
    MU1,
    SIGMA,
    DataError,
    Dataset,
    SyntheticSpec,
    apply_norm,
    compute_norm_stats,
    generate_synthetic,
    ingest_csv,
    kfold,
)


def test_synthetic_class_statistics():
    spec = SyntheticSpec(n_points=20000, seed=3)
    ds = generate_synthetic(spec)
    assert ds.n == 20000 and ds.dim == 2
    for label, mu in ((0, MU0), (1, MU1)):
        block = ds.features[ds.labels == label]
        np.testing.assert_allclose(block.mean(axis=0), mu, atol=0.05)
        np.testing.assert_allclose(block.var(axis=0), SIGMA, atol=0.05)
    # labels roughly balanced
    assert abs(ds.labels.mean() - 0.5) < 0.02


def test_synthetic_deterministic():
    a = generate_synthetic(SyntheticSpec(seed=1))
    b = generate_synthetic(SyntheticSpec(seed=1))
    assert a.to_json() == b.to_json()
    c = generate_synthetic(SyntheticSpec(seed=2))
    assert a.to_json() != c.to_json()


def test_shifted_zero_is_identity():
    spec = SyntheticSpec(n_points=500, seed=4)
    assert spec.shift == 0.0
    for zero in (0.0, -0.0, 0):
        shifted = SyntheticSpec(n_points=500, seed=4, shift=zero)
        assert generate_synthetic(shifted).to_json() == generate_synthetic(spec).to_json()


def test_shifted_moves_only_class_zero_axis_zero():
    spec = SyntheticSpec(n_points=4000, seed=5)
    base = generate_synthetic(spec)
    moved = generate_synthetic(SyntheticSpec(n_points=4000, seed=5, shift=0.7))
    np.testing.assert_array_equal(base.labels, moved.labels)
    ones = base.labels == 1
    np.testing.assert_array_equal(base.features[ones], moved.features[ones])
    zeros = ~ones
    np.testing.assert_allclose(
        moved.features[zeros, 0] - base.features[zeros, 0], 0.7, atol=1e-12
    )
    np.testing.assert_array_equal(base.features[zeros, 1], moved.features[zeros, 1])


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(features=np.zeros(3), labels=np.zeros(3))
    with pytest.raises(DataError):
        Dataset(features=np.zeros((3, 2)), labels=np.zeros(2))
    with pytest.raises(DataError):
        Dataset(features=np.array([[np.nan, 0.0]]), labels=np.array([1]))
    with pytest.raises(DataError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 3]))
    with pytest.raises(DataError, match="at least one column"):
        Dataset(features=np.zeros((2, 0)), labels=np.array([0, 1]))


@pytest.mark.parametrize("kw, message", [
    (dict(shift=float("inf")), "shift must be finite"),
    (dict(shift=float("nan")), "shift must be finite"),
    (dict(shift="0.5"), "shift must be a number"),
    (dict(n_points=True), "n_points must be an integer"),
    (dict(seed=1.0), "seed must be an integer"),
])
def test_synthetic_spec_validation(kw, message):
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**kw)


def test_dataset_json_round_trip():
    ds = generate_synthetic(SyntheticSpec(n_points=50, seed=6))
    payload = json.loads(ds.to_json())
    assert set(payload) == {"features", "labels", "feature_names"}
    # files written with the old "norm_stats" key still read
    for back in (Dataset.from_json(ds.to_json()),
                 Dataset.from_json(json.dumps(dict(payload, norm_stats=None)))):
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.labels, back.labels)
        assert ds.feature_names == back.feature_names


# -------------------------------------------------------------------- csv


def _write_csv(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_ingest_round_trip(tmp_path):
    path = _write_csv(tmp_path, "a,label,b\n1.0,yes,2.0\n3.5,no,-1.0\n")
    ds = ingest_csv(path, "label", "yes")
    assert ds.feature_names == ("a", "b")
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.5, -1.0]])
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_ingest_missing_column(tmp_path):
    path = _write_csv(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="no column named 'label'"):
        ingest_csv(path, "label", "yes")


def test_ingest_positive_label_absent(tmp_path):
    path = _write_csv(tmp_path, "a,label\n1,no\n2,no\n")
    with pytest.raises(DataError, match="never occurs"):
        ingest_csv(path, "label", "yes")


def test_ingest_unparsable_rows_listed(tmp_path):
    path = _write_csv(tmp_path, "a,label\n1,yes\noops,no\n3,yes\n4\n")
    with pytest.raises(DataError, match=r"unparsable rows: 2, 4"):
        ingest_csv(path, "label", "yes")


def test_ingest_empty_file(tmp_path):
    path = _write_csv(tmp_path, "")
    with pytest.raises(DataError, match="empty file"):
        ingest_csv(path, "label", "yes")
    header_only = _write_csv(tmp_path, "a,label\n", name="h.csv")
    with pytest.raises(DataError, match="no data rows"):
        ingest_csv(header_only, "label", "yes")


def test_ingest_label_only_file_is_a_data_error(tmp_path):
    path = _write_csv(tmp_path, "label\nyes\nno\nyes\nno\n")
    with pytest.raises(DataError, match=f"^{re.escape(path)}: no feature column besides 'label'$"):
        ingest_csv(path, "label", "yes")


# ---------------------------------------------------------- normalization


def test_normalize_statistics():
    ds = generate_synthetic(SyntheticSpec(n_points=300, seed=7))
    normed = apply_norm(compute_norm_stats(ds.features), ds.features)
    assert np.abs(normed.mean(axis=0)).max() <= 1e-9
    np.testing.assert_allclose(normed.std(axis=0), 1.0, atol=1e-12)


def test_normalize_constant_feature():
    feats = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    stats = compute_norm_stats(feats)
    assert stats.constant.tolist() == [True, False]
    normed = apply_norm(stats, feats)
    assert (normed[:, 0] == 0.0).all()
    # single-vector path
    one = apply_norm(stats, feats[0])
    assert one[0] == 0.0
    np.testing.assert_array_equal(one, normed[0])


# ------------------------------------------------------------------ folds


def test_kfold_partition():
    plan = kfold(10, 5, seed=9)
    seen = np.concatenate([plan.test_indices(f) for f in range(5)])
    assert sorted(seen.tolist()) == list(range(10))
    for f in range(5):
        assert plan.test_indices(f).size == 2
        train = plan.train_indices(f)
        assert train.size == 8
        assert not np.intersect1d(train, plan.test_indices(f)).size


def test_kfold_sizes_differ_by_at_most_one():
    plan = kfold(13, 4, seed=0)
    sizes = sorted(plan.test_indices(f).size for f in range(4))
    assert sizes == [3, 3, 3, 4]


def test_kfold_edge_cases():
    single = kfold(6, 1)
    assert single.test_indices(0).size == 6
    with pytest.raises(DataError):
        kfold(3, 4)
    with pytest.raises(DataError):
        kfold(3, 0)


def test_kfold_deterministic():
    np.testing.assert_array_equal(kfold(20, 5, seed=1).assignment, kfold(20, 5, seed=1).assignment)
    assert not np.array_equal(kfold(20, 5, seed=1).assignment, kfold(20, 5, seed=2).assignment)
