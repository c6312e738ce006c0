import numpy as np
import pytest

from ppunlearn.data import (Dataset, ForgetSpec, SplitResult, check_blobs,
                            gen_blobs, load_csv, load_dataset, make_forget_split,
                            save_dataset)
from ppunlearn.errors import (DataError, LabelMappingError, ParseError,
                              SpecError)
from ppunlearn.model import ModelLayout, TrainConfig, init_model, train_ce
from ppunlearn.evaluate import error_rate

from oracles import nearest_centroid_fit, nearest_centroid_predict


class TestGenBlobs:
    def test_deterministic(self):
        a = gen_blobs(5, 8, 125, 0.6, seed=3)
        b = gen_blobs(5, 8, 125, 0.6, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        for name in a.splits:
            assert np.array_equal(a.splits[name], b.splits[name])
        assert a.provenance["content_hash"] == b.provenance["content_hash"]

    def test_split_sizes_per_class(self):
        ds = gen_blobs(5, 8, 125, 0.6, seed=3)
        # floor rounding: 12 validation + 25 test, remainder 88 to train
        assert len(ds.splits["train"]) == 5 * 88
        assert len(ds.splits["validation"]) == 5 * 12
        assert len(ds.splits["test"]) == 5 * 25

    def test_balanced_splits(self):
        ds = gen_blobs(4, 3, 50, 0.4, seed=1)
        for name in ("train", "validation", "test"):
            counts = np.bincount(ds.labels[ds.splits[name]], minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_tight_blobs_are_learnable(self):
        ds = gen_blobs(2, 2, 100, 0.1, seed=5)
        xt, yt = ds.split_arrays("train")
        xe, ye = ds.split_arrays("test")
        centroids = nearest_centroid_fit(xt, yt, 2)
        oracle_err = 100.0 * np.mean(nearest_centroid_predict(centroids, xe) != ye)
        assert oracle_err <= 5.0
        model = train_ce(init_model(ModelLayout(2, 8, 2), seed=0), xt, yt,
                         TrainConfig(lr=0.1, epochs=40, batch_size=16, seed=1))
        assert error_rate(model, xe, ye) <= 5.0

    def test_preconditions(self):
        with pytest.raises(SpecError):
            gen_blobs(1, 2, 100, 0.5, seed=0)
        with pytest.raises(SpecError):
            gen_blobs(2, 0, 100, 0.5, seed=0)
        with pytest.raises(SpecError):
            gen_blobs(2, 2, 9, 0.5, seed=0)
        with pytest.raises(SpecError):
            gen_blobs(2, 2, 100, 0.0, seed=0)
        for spread in (float("nan"), float("inf")):
            with pytest.raises(SpecError, match="spread"):
                check_blobs(3, 4, 20, spread)


class TestLoadCsv:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n7.0,8.0,1\n")
        ds = load_csv(path)
        assert ds.n == 4
        assert ds.dim == 2
        assert ds.n_classes == 2
        assert ds.labels.tolist() == [0, 1, 0, 1]

    def test_header_detected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv(path)
        assert ds.n == 2

    def test_float_label_rejected_with_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,3.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_bad_feature_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\nhello,4.0,1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_label_rejected_with_line(self, tmp_path, label):
        path = tmp_path / "data.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(ParseError, match="line 2: label"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_feature_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(f"x,y,label\n1.0,2.0,0\n3.0,{value},1\n")
        with pytest.raises(ParseError, match="line 3: non-finite feature"):
            load_csv(path)

    def test_bytes_that_are_not_utf8_rejected_with_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"1.0,2.0,0\n3.0,4.0,1\n5.0,\xff6.0,0\n")
        with pytest.raises(ParseError,
                           match=r"data\.csv: line 3: not UTF-8"):
            load_csv(path)

    def test_non_contiguous_labels_list_remap(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,2\n")
        with pytest.raises(LabelMappingError, match="remap"):
            load_csv(path)

    def test_content_hash_stable(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        a = load_csv(path)
        b = load_csv(path)
        assert a.provenance["content_hash"] == b.provenance["content_hash"]


class TestMakeForgetSplit:
    def test_class_mode_takes_whole_class(self):
        ds = gen_blobs(5, 8, 125, 0.6, seed=3)
        split = make_forget_split(ds, ForgetSpec("class", target_class=0))
        assert split.n_forget == 88
        assert (ds.labels[split.forget_idx] == 0).all()

    def test_selective_counts(self):
        ds = gen_blobs(5, 8, 143, 0.6, seed=3)  # ~500 train rows
        split = make_forget_split(
            ds, ForgetSpec("selective", target_class=0, count=25, seed=1))
        assert split.n_forget == 25
        assert split.n_retain == len(ds.splits["train"]) - 25
        assert (ds.labels[split.forget_idx] == 0).all()

    def test_selective_deterministic(self):
        ds = gen_blobs(5, 8, 125, 0.6, seed=3)
        spec = ForgetSpec("selective", target_class=2, count=10, seed=7)
        a = make_forget_split(ds, spec)
        b = make_forget_split(ds, spec)
        assert np.array_equal(a.forget_idx, b.forget_idx)

    def test_partition_property_many_specs(self):
        rng = np.random.default_rng(0)
        ds = gen_blobs(4, 3, 60, 0.5, seed=2)
        train = np.sort(ds.splits["train"])
        for _ in range(100):
            c = int(rng.integers(0, 4))
            class_size = int((ds.labels[ds.splits["train"]] == c).sum())
            if rng.random() < 0.5:
                spec = ForgetSpec("class", target_class=c)
            else:
                m = int(rng.integers(1, class_size + 1))
                spec = ForgetSpec("selective", target_class=c, count=m,
                                  seed=int(rng.integers(0, 1000)))
            split = make_forget_split(ds, spec)
            combined = np.concatenate([split.forget_idx, split.retain_idx])
            assert np.array_equal(np.sort(combined), train)
            assert len(np.intersect1d(split.forget_idx, split.retain_idx)) == 0
            assert split.n_forget + split.n_retain == len(train)

    def test_count_exceeding_class(self):
        ds = gen_blobs(5, 8, 125, 0.6, seed=3)
        with pytest.raises(SpecError):
            make_forget_split(
                ds, ForgetSpec("selective", target_class=0, count=89, seed=0))

    def test_bad_class(self):
        ds = gen_blobs(5, 8, 125, 0.6, seed=3)
        with pytest.raises(SpecError):
            make_forget_split(ds, ForgetSpec("class", target_class=9))

    def test_spec_validation(self):
        with pytest.raises(SpecError):
            ForgetSpec("everything", target_class=0)
        with pytest.raises(SpecError):
            ForgetSpec("selective", target_class=0, count=0)


class TestDatasetValidation:
    def test_overlapping_splits_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                    {"train": np.array([0, 1, 2]), "test": np.array([2, 3])},
                    n_classes=2)

    def test_missing_class_in_train(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 1]),
                    {"train": np.array([0, 1]), "test": np.array([2, 3])},
                    n_classes=2)


def test_save_load_round_trip(tmp_path):
    ds = gen_blobs(3, 4, 30, 0.5, seed=9)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == ds.n_classes
    for name in ds.splits:
        assert np.array_equal(back.splits[name], ds.splits[name])
    assert back.provenance == ds.provenance


def test_manifest_holds_no_split_lists(tmp_path):
    # the splits live in the npz alone, where load_dataset reads them
    import json
    ds = gen_blobs(3, 4, 30, 0.5, seed=9)
    save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.manifest.json").read_text())
    assert set(manifest) == {"n_classes", "provenance"}


def test_undecodable_manifest_names_the_file(tmp_path):
    ds = gen_blobs(3, 4, 30, 0.5, seed=9)
    save_dataset(ds, tmp_path / "ds")
    manifest = tmp_path / "ds.manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:9])
    with pytest.raises(DataError, match="ds.manifest.json: not valid JSON"):
        load_dataset(tmp_path / "ds")


def _save_with_train_split(path, edit):
    # a saved blob dataset whose split_train array is replaced by
    # ``edit(split_train)``
    save_dataset(gen_blobs(3, 4, 30, 0.5, seed=9), path)
    with np.load(str(path) + ".npz") as z:
        arrays = {k: z[k] for k in z.files}
    arrays["split_train"] = edit(arrays["split_train"])
    with open(str(path) + ".npz", "wb") as fh:
        np.savez(fh, **arrays)


BAD_SPLITS = {
    "2-D": lambda train: np.stack([train, train]),
    "float": lambda train: train + 0.4,
    "bool": lambda train: np.ones(train.size, dtype=bool),
}


@pytest.mark.parametrize("edit", BAD_SPLITS.values(), ids=BAD_SPLITS.keys())
def test_split_that_is_not_1d_integers_rejected(tmp_path, edit):
    _save_with_train_split(tmp_path / "ds", edit)
    with pytest.raises(DataError,
                       match=r"ds\.npz: split_train must be a 1-D integer"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("edit", BAD_SPLITS.values(), ids=BAD_SPLITS.keys())
def test_split_that_is_not_1d_integers_exit_code(tmp_path, capsys, edit):
    from ppunlearn.cli import main
    _save_with_train_split(tmp_path / "ds", edit)
    assert main(["train", "--dataset", str(tmp_path / "ds"),
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"]) == 3
    assert "split_train" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()
