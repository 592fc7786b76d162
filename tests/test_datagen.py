"""Synthetic benchmark generation, splitting, and file ingestion."""

import numpy as np
import pytest

from fedunroll.datagen import (
    DataShard,
    SettingSpec,
    export_delimited,
    generate_setting,
    ingest_delimited,
    split,
)
from fedunroll.errors import (
    EmptyData,
    InvalidSetting,
    MissingColumn,
    ParseError,
)


class TestSettingSpec:
    def test_bad_setting_rejected(self):
        with pytest.raises(InvalidSetting):
            SettingSpec(setting=4)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidSetting):
            SettingSpec(setting=1, noise_std=-0.1)

    @pytest.mark.parametrize("n", [1, 0])
    def test_fewer_than_two_samples_rejected(self, n):
        # one sample would leave each client a test row and no train row
        with pytest.raises(InvalidSetting, match="n_per_client"):
            SettingSpec(setting=1, n_per_client=n)


class TestGeneration:
    def test_shapes_and_split_sizes(self):
        shards = generate_setting(SettingSpec(setting=1, M=10, n_per_client=200, seed=0))
        assert len(shards) == 10
        for sh in shards:
            assert sh.X_train.shape == (180, 4)
            assert sh.X_test.shape == (20, 4)
            assert sh.Y_train.shape == (180,)
            assert sh.Y_test.shape == (20,)

    @pytest.mark.parametrize("setting,personal", [(1, 1), (2, 2), (3, 3)])
    def test_coefficient_sharing_structure(self, setting, personal):
        shards = generate_setting(SettingSpec(setting=setting, M=6, n_per_client=40, seed=5))
        coeffs = np.stack([sh.gt_coeffs for sh in shards])
        shared = coeffs[:, : 4 - personal]
        assert np.all(shared == shared[0])
        tails = coeffs[:, 4 - personal:]
        for i in range(1, 6):
            assert not np.array_equal(tails[i], tails[0])

    def test_coefficients_in_range(self):
        shards = generate_setting(SettingSpec(setting=3, M=5, n_per_client=30, seed=2))
        for sh in shards:
            assert np.all(np.abs(sh.gt_coeffs) <= 1.0)

    def test_test_targets_are_noiseless(self):
        shards = generate_setting(SettingSpec(setting=2, M=4, n_per_client=60, seed=7))
        for sh in shards:
            assert np.array_equal(sh.Y_test, sh.X_test @ sh.gt_coeffs)

    def test_train_targets_are_noisy(self):
        shards = generate_setting(SettingSpec(setting=1, M=4, n_per_client=200, seed=7))
        for sh in shards:
            resid = sh.Y_train - sh.X_train @ sh.gt_coeffs
            assert resid.std() > 0.05
            assert resid.std() < 0.2

    def test_noiseless_option(self):
        shards = generate_setting(
            SettingSpec(setting=1, M=3, n_per_client=30, noise_std=0.0, seed=1)
        )
        for sh in shards:
            assert np.allclose(sh.Y_train, sh.X_train @ sh.gt_coeffs, atol=1e-15)

    def test_feature_columns_are_monomials(self):
        shards = generate_setting(SettingSpec(setting=1, M=3, n_per_client=25, seed=3))
        for sh in shards:
            x = sh.X_train[:, 1]
            assert np.allclose(sh.X_train[:, 0], 1.0)
            assert np.allclose(sh.X_train[:, 2], x**2)
            assert np.allclose(sh.X_train[:, 3], x**3)
            assert np.all(np.abs(x) <= 1.0)

    def test_determinism_same_seed(self):
        a = generate_setting(SettingSpec(setting=1, M=5, n_per_client=50, seed=9))
        b = generate_setting(SettingSpec(setting=1, M=5, n_per_client=50, seed=9))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.X_train, sb.X_train)
            assert np.array_equal(sa.Y_train, sb.Y_train)
            assert np.array_equal(sa.Y_test, sb.Y_test)

    def test_different_seeds_differ(self):
        a = generate_setting(SettingSpec(setting=1, M=3, n_per_client=30, seed=1))
        b = generate_setting(SettingSpec(setting=1, M=3, n_per_client=30, seed=2))
        assert not np.array_equal(a[0].Y_train, b[0].Y_train)

    def test_clients_have_distinct_data(self):
        shards = generate_setting(SettingSpec(setting=1, M=3, n_per_client=30, seed=1))
        assert not np.array_equal(shards[0].X_train, shards[1].X_train)


class TestSplit:
    def test_sizes_and_disjointness(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(37, 2))
        Y = rng.normal(size=37)
        (Xtr, Ytr), (Xte, Yte) = split(X, Y, 0.9, seed=4)
        assert Xtr.shape[0] == 33
        assert Xte.shape[0] == 4
        seen = np.vstack([Xtr, Xte])
        assert np.array_equal(np.sort(seen, axis=0), np.sort(X, axis=0))

    def test_split_deterministic(self):
        X = np.arange(20, dtype=np.float64).reshape(10, 2)
        Y = np.arange(10, dtype=np.float64)
        a = split(X, Y, 0.7, seed=1)
        b = split(X, Y, 0.7, seed=1)
        assert np.array_equal(a[0][0], b[0][0])

    def test_empty_raises(self):
        with pytest.raises(EmptyData):
            split(np.zeros((0, 2)), np.zeros(0), 0.9, seed=0)

    def test_bad_ratio_raises(self):
        X = np.zeros((5, 1))
        with pytest.raises(ValueError):
            split(X, np.zeros(5), 1.0, seed=0)


class TestExportIngest:
    def test_roundtrip_exact(self, tmp_path):
        shards = generate_setting(SettingSpec(setting=1, M=2, n_per_client=40, seed=6))
        path = tmp_path / "c1.csv"
        export_delimited(shards[0], str(path))
        got, skipped = ingest_delimited(
            str(path), target_column="y", feature_columns=["x0", "x1", "x2", "x3"]
        )
        assert skipped == 0
        assert np.array_equal(got.X_train, shards[0].X_train)
        assert np.array_equal(got.Y_train, shards[0].Y_train)
        assert np.array_equal(got.X_test, shards[0].X_test)
        assert np.array_equal(got.Y_test, shards[0].Y_test)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            ingest_delimited(str(p), target_column="y", feature_columns=["a"])

    def test_unparsable_rows_skipped_and_counted(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x0,y\n1.0,2.0\nbad,3.0\n2.0,oops\n3.0,4.0\n4.0,5.0\n")
        shard, skipped = ingest_delimited(
            str(p), target_column="y", feature_columns=["x0"], train_ratio=0.7
        )
        assert skipped == 2
        assert shard.X_train.shape[0] + shard.X_test.shape[0] == 3

    def test_nonfinite_rows_skipped(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x0,y\n1.0,2.0\ninf,3.0\n2.0,nan\n3.0,1.0\n4.0,0.0\n")
        _, skipped = ingest_delimited(
            str(p), target_column="y", feature_columns=["x0"], train_ratio=0.7
        )
        assert skipped == 2

    def test_ragged_row_reports_line_number(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x0,y\n1.0,2.0\n1.0\n")
        with pytest.raises(ParseError) as err:
            ingest_delimited(str(p), target_column="y", feature_columns=["x0"])
        assert err.value.line_number == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            ingest_delimited(str(p), target_column="y", feature_columns=["x0"])

    def test_no_usable_rows(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x0,y\nbad,bad\n")
        with pytest.raises(EmptyData):
            ingest_delimited(str(p), target_column="y", feature_columns=["x0"])

    @pytest.mark.parametrize("text", ["x0,y\n1.0,2.0\n", "split,x0,y\ntest,1.0,2.0\n"],
                             ids=["by_ratio", "by_split_column"])
    def test_no_train_rows(self, tmp_path, text):
        # one row split by ratio lands on the test side, as a marked one does
        p = tmp_path / "f.csv"
        p.write_text(text)
        with pytest.raises(EmptyData, match="no train rows"):
            ingest_delimited(str(p), target_column="y", feature_columns=["x0"])

    def test_split_column_honored(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text(
            "split,x0,y\ntrain,1.0,2.0\ntrain,2.0,3.0\ntest,3.0,4.0\n"
        )
        shard, _ = ingest_delimited(str(p), target_column="y", feature_columns=["x0"])
        assert shard.X_train.shape[0] == 2
        assert shard.X_test.shape[0] == 1
        assert shard.X_test[0, 0] == 3.0

    def test_missing_file(self):
        with pytest.raises(ParseError):
            ingest_delimited("/nonexistent/file.csv", target_column="y", feature_columns=["x0"])
