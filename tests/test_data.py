import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rjcma import checkpoint as ck
from rjcma import data as dat
from rjcma.metrics import ccc


def records_equal(a, b):
    return (a.id == b.id and a.fps == b.fps
            and all(np.array_equal(a.features[m], b.features[m])
                    for m in dat.MODALITIES)
            and np.array_equal(a.valence, b.valence)
            and np.array_equal(a.arousal, b.arousal))


class TestSyntheticGeneration:
    def test_deterministic(self):
        cfg = dat.SyntheticConfig(n_sequences=4, t_min=30, t_max=50,
                                  dropout_prob=0.1, invalid_label_prob=0.1)
        a = dat.generate_synthetic(cfg, seed=11)
        b = dat.generate_synthetic(cfg, seed=11)
        assert all(records_equal(x, y) for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        cfg = dat.SyntheticConfig(n_sequences=2, t_min=30, t_max=30)
        a = dat.generate_synthetic(cfg, seed=1)
        b = dat.generate_synthetic(cfg, seed=2)
        assert not records_equal(a[0], b[0])

    def test_labels_in_range_or_sentinel(self):
        cfg = dat.SyntheticConfig(n_sequences=3, t_min=40, t_max=60,
                                  invalid_label_prob=0.2)
        for rec in dat.generate_synthetic(cfg, seed=3):
            for lab in (rec.valence, rec.arousal):
                valid = lab != dat.INVALID_LABEL
                assert np.all(np.abs(lab[valid]) <= 1.0)
                assert np.any(~valid)  # 20% invalid over 40+ frames

    def test_linear_readout_ceiling(self):
        # noise-free, dropout-free: least squares from any single modality
        # recovers the labels nearly perfectly
        cfg = dat.SyntheticConfig(n_sequences=2, t_min=150, t_max=200,
                                  noise_sigma=0.0, dropout_prob=0.0,
                                  invalid_label_prob=0.0)
        recs = dat.generate_synthetic(cfg, seed=4)
        for m in dat.MODALITIES:
            x = np.concatenate([r.features[m] for r in recs], axis=1)
            y = np.concatenate([r.valence for r in recs])
            w, *_ = np.linalg.lstsq(x.T, y, rcond=None)
            assert ccc(x.T @ w, y) > 0.99

    def test_modality_dims(self):
        cfg = dat.SyntheticConfig(n_sequences=1, t_min=20, t_max=20,
                                  d_a=3, d_v=5, d_t=7)
        rec = dat.generate_synthetic(cfg, seed=0)[0]
        assert rec.features["a"].shape == (3, 20)
        assert rec.features["v"].shape == (5, 20)
        assert rec.features["t"].shape == (7, 20)


def make_record(t, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return dat.SequenceRecord(
        id=f"r{t}", features={m: rng.normal(size=(d, t)) for m in dat.MODALITIES},
        valence=np.clip(rng.normal(size=t), -1, 1),
        arousal=np.clip(rng.normal(size=t), -1, 1))


class TestWindowing:
    def test_paper_geometry(self):
        wins = dat.window(make_record(700), dat.WindowSpec(K=300, stride=200))
        assert [w.offset for w in wins] == [0, 200, 400]
        assert all(w.n_padded == 0 for w in wins)

    def test_exact_fit_single_window(self):
        wins = dat.window(make_record(300), dat.WindowSpec(K=300, stride=200))
        assert len(wins) == 1
        assert wins[0].n_padded == 0

    def test_short_sequence_padded(self):
        rec = make_record(250)
        wins = dat.window(rec, dat.WindowSpec(K=300, stride=200))
        assert len(wins) == 1
        w = wins[0]
        assert w.n_padded == 50
        for m in dat.MODALITIES:
            np.testing.assert_array_equal(
                w.features[m][:, 250:],
                np.repeat(rec.features[m][:, -1:], 50, axis=1))
        assert not w.valence_mask[250:].any()
        assert not w.arousal_mask[250:].any()

    def test_unpadded_window_shares_the_record_memory(self):
        # T=250, K=200, stride 100: [0, 200) fits, [100, 250) is padded by 50
        rec = make_record(250)
        full, padded = dat.window(rec, dat.WindowSpec(K=200, stride=100))
        assert (full.n_padded, padded.n_padded) == (0, 50)
        for m in dat.MODALITIES:
            assert np.shares_memory(full.features[m], rec.features[m])
            assert not np.shares_memory(padded.features[m], rec.features[m])
            np.testing.assert_array_equal(full.features[m], rec.features[m][:, :200])
            np.testing.assert_array_equal(padded.features[m][:, :150],
                                          rec.features[m][:, 100:])

    def test_coverage(self):
        for t in (37, 100, 301, 512):
            spec = dat.WindowSpec(K=100, stride=60)
            wins = dat.window(make_record(t), spec)
            covered = np.zeros(t, bool)
            for w in wins:
                covered[w.offset:min(w.offset + spec.K, t)] = True
            assert covered.all()

    def test_windows_keep_sequence_id(self):
        rec = make_record(500, seed=1)
        for w in dat.window(rec, dat.WindowSpec(K=200, stride=150)):
            assert w.sequence_id == rec.id

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            dat.WindowSpec(K=10, stride=11)
        with pytest.raises(ValueError):
            dat.WindowSpec(K=10, stride=0)


class TestMasks:
    def test_all_true_when_clean(self):
        w = dat.window(make_record(50), dat.WindowSpec(K=50, stride=50))[0]
        assert w.valence_mask.all() and w.arousal_mask.all()

    def test_sentinel_masks_labels(self):
        rec = make_record(3)
        rec.valence = np.array([0.1, dat.INVALID_LABEL, 0.3])
        w = dat.window(rec, dat.WindowSpec(K=3, stride=3))[0]
        np.testing.assert_array_equal(w.valence_mask, [True, False, True])
        assert w.arousal_mask.all()


class TestNormalizer:
    def test_targets_reached_on_train_set(self):
        recs = dat.generate_synthetic(
            dat.SyntheticConfig(n_sequences=3, t_min=80, t_max=120), seed=5)
        norm = dat.Normalizer().fit(recs)
        for m, (t_mean, t_std) in dat.NORM_TARGETS.items():
            z = np.concatenate([norm.transform(r.features[m], m) for r in recs],
                               axis=1)
            np.testing.assert_allclose(z.mean(axis=1), t_mean, atol=1e-9)
            np.testing.assert_allclose(z.std(axis=1), t_std, atol=1e-9)

    def test_validation_uses_train_statistics(self):
        train = dat.generate_synthetic(
            dat.SyntheticConfig(n_sequences=2, t_min=60, t_max=80), seed=6)
        val = dat.generate_synthetic(
            dat.SyntheticConfig(n_sequences=2, t_min=60, t_max=80), seed=7)
        norm = dat.Normalizer().fit(train)
        z = np.concatenate([norm.transform(r.features["a"], "a") for r in val],
                           axis=1)
        assert not np.allclose(z.mean(axis=1), 0.5, atol=1e-6)

    def test_zero_variance_dim_warns_and_centers(self, caplog):
        rec = make_record(40, d=3, seed=8)
        rec.features["a"][1, :] = 7.0
        with caplog.at_level(logging.WARNING, logger="rjcma.data"):
            norm = dat.Normalizer().fit([rec])
        assert "zero-variance" in caplog.text
        z = norm.transform(rec.features["a"], "a")
        np.testing.assert_allclose(z[1, :], 0.5)

    def test_roundtrip_through_named_arrays(self):
        recs = dat.generate_synthetic(
            dat.SyntheticConfig(n_sequences=2, t_min=30, t_max=40), seed=9)
        norm = dat.Normalizer().fit(recs)
        clone = dat.Normalizer.from_named_arrays(dict(norm.named_arrays()))
        x = recs[0].features["t"]
        np.testing.assert_array_equal(norm.transform(x, "t"),
                                      clone.transform(x, "t"))


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rec = make_record(33, d=4, seed=10)
        rec.valence[5] = dat.INVALID_LABEL
        path = tmp_path / "seq.mmf"
        dat.write_features(path, rec)
        back = dat.read_features(path)
        assert records_equal(rec, back)

    def test_truncated_file(self, tmp_path):
        rec = make_record(20)
        path = tmp_path / "seq.mmf"
        dat.write_features(path, rec)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(dat.FormatError, match="truncated at byte"):
            dat.read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mmf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(dat.FormatError, match="bad magic"):
            dat.read_features(path)

    def test_empty_sequence_rejected(self, tmp_path):
        import struct
        # hand-build a T=0 file: the writer refuses to produce one
        blob = (b"MMF1" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x"
                + struct.pack("<d", 30.0) + struct.pack("<Q", 0)
                + struct.pack("<I", 3)
                + 3 * struct.pack("<Q", 2))
        path = tmp_path / "empty.mmf"
        path.write_bytes(blob)
        with pytest.raises(dat.FormatError, match="empty sequence"):
            dat.read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rec = make_record(10)
        path = tmp_path / "seq.mmf"
        dat.write_features(path, rec)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(dat.FormatError, match="trailing"):
            dat.read_features(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small valid MMF1 file and RJCM checkpoint, with their readers and
    the one error class each may raise."""
    root = tmp_path_factory.mktemp("valid")
    rec = make_record(6, d=2, seed=3)
    rec.id = "séquence-0001"      # long enough for flips to land in it often
    rec.valence[1] = dat.INVALID_LABEL
    dat.write_features(root / "seq.mmf", rec)
    ck.write_checkpoint(root / "model.bin", {"K": 3, "target": "valence"},
                        {"a/w": np.arange(6.0).reshape(2, 3), "b": np.ones((1, 1))})
    return {"mmf": (root / "seq.mmf", dat.read_features, dat.FormatError),
            "rjcm": (root / "model.bin", ck.read_checkpoint, ck.CheckpointError)}


class TestReaderFuzz:
    @pytest.mark.parametrize("kind", ["mmf", "rjcm"])
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_truncated_or_flipped_file_reads_or_raises_format_error(
            self, valid_files, kind, data):
        path, read, error = valid_files[kind]
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="xor")
        bad = path.with_name("fuzzed-" + path.name)
        bad.write_bytes(bytes(blob))
        try:
            read(bad)
        except error:
            pass


class TestFolds:
    def test_balanced_assignment(self):
        ids = [f"s{i}" for i in range(12)]
        folds = dat.make_folds(ids, 6, seed=0)
        counts = np.bincount(list(folds.values()), minlength=6)
        assert list(counts) == [2] * 6

    def test_partition_covers_all_once(self):
        ids = [f"s{i}" for i in range(10)]
        folds = dat.make_folds(ids, 5, seed=1)
        assert set(folds) == set(ids)

    def test_stable_under_seed(self):
        ids = [f"s{i}" for i in range(9)]
        assert dat.make_folds(ids, 3, seed=4) == dat.make_folds(ids, 3, seed=4)
        assert dat.make_folds(ids, 3, seed=4) != dat.make_folds(ids, 3, seed=5)

    def test_too_few_sequences(self):
        with pytest.raises(ValueError):
            dat.make_folds(["a", "b"], 3, seed=0)
