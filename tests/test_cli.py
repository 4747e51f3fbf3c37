import contextlib
import io
import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rjcma import autodiff as ad
from rjcma import checkpoint as ck
from rjcma import cli
from rjcma import data as dat
from rjcma import model as mo
from rjcma import train as tr
from rjcma.fusion import FusionConfig
from rjcma.model import RjcmaModel


SMOKE = {
    "seed": 5,
    "n_folds": 2,
    "synthetic": {"n_sequences": 4, "t_min": 40, "t_max": 50,
                  "d_a": 4, "d_v": 4, "d_t": 4, "invalid_label_prob": 0.05},
    "window": {"K": 20, "stride": 15},
    "train": {"lr_init": 3e-3, "lr_min": 1e-6, "weight_decay": 1e-4,
              "max_epochs": 2, "warmup_epochs": 1, "early_stop_patience": 5},
}


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMOKE))
    return str(path)


@pytest.fixture
def dataset(tmp_path, smoke_config):
    out = tmp_path / "data"
    assert cli.main(["gen", "--config", smoke_config, "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_files_and_manifest(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert len(manifest) == 4
        for entry in manifest:
            assert (dataset / entry["path"]).exists()
            assert entry["split"] in ("train", "val")
        assert (dataset / "config.json").exists()

    def test_deterministic_bytes(self, tmp_path, smoke_config):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["gen", "--config", smoke_config, "--out", str(a)])
        cli.main(["gen", "--config", smoke_config, "--out", str(b)])
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_out_dir(self, tmp_path, smoke_config):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        rc = cli.main(["gen", "--config", smoke_config,
                       "--out", str(blocker / "sub")])
        assert rc != 0

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not_a_key": 1}))
        assert cli.main(["gen", "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE

    def test_set_override_unknown_key(self, tmp_path, smoke_config):
        rc = cli.main(["gen", "--config", smoke_config,
                       "--set", "synthetic.bogus=3",
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_USAGE


class TestTrain:
    def run_train(self, tmp_path, smoke_config, dataset, name="runs"):
        out = tmp_path / name
        rc = cli.main(["train", "--config", smoke_config,
                       "--manifest", str(dataset / "manifest.json"),
                       "--out", str(out), "--target", "valence"])
        assert rc == 0
        return out / "run-0000"

    def test_artifacts(self, tmp_path, smoke_config, dataset):
        run = self.run_train(tmp_path, smoke_config, dataset)
        report = json.loads((run / "report.json").read_text())
        assert report["ccc_valence"] is not None
        assert report["ccc_arousal"] is None
        assert (run / "checkpoint.bin").exists()
        assert (run / "config.json").exists()
        history = (run / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_ccc,lr"
        assert len(history) == SMOKE["train"]["max_epochs"] + 1

    def test_rerun_identical(self, tmp_path, smoke_config, dataset):
        r1 = self.run_train(tmp_path, smoke_config, dataset, "runs1")
        r2 = self.run_train(tmp_path, smoke_config, dataset, "runs2")
        for name in ("report.json", "history.csv", "checkpoint.bin"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    def test_echoed_config_reruns_identical(self, tmp_path, smoke_config, dataset):
        r1 = self.run_train(tmp_path, smoke_config, dataset, "runs1")
        r2 = self.run_train(tmp_path, str(r1 / "config.json"), dataset, "runs2")
        for name in ("config.json", "report.json", "history.csv", "checkpoint.bin"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    def test_target_from_config(self, tmp_path, smoke_config, dataset):
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", smoke_config,
                         "--set", "train.target=arousal",
                         "--manifest", str(dataset / "manifest.json"),
                         "--out", str(out)]) == 0
        report = json.loads((out / "run-0000" / "report.json").read_text())
        assert report["ccc_valence"] is None
        assert report["ccc_arousal"] is not None
        assert RjcmaModel.load(out / "run-0000" / "checkpoint.bin").target == "arousal"

    def test_window_with_one_valid_frame_is_scored(self, tmp_path, smoke_config,
                                                    monkeypatch):
        # K=20, stride 15 over T=40: the val sequence's windows start at 0,
        # 15 and 30 and hold 10, 0 and 1 valid valence frames
        rng = np.random.default_rng(1)
        valence = np.full(40, dat.INVALID_LABEL)
        valence[:10] = rng.uniform(-0.5, 0.5, 10)
        valence[39] = 0.25
        val = _record("val", valence=valence)
        train = [_record(f"tr{i}", seed=i) for i in range(3)]
        manifest = _manifest(tmp_path / "data", train, [val])
        fits = []
        real_fit = tr.fit
        monkeypatch.setattr(tr, "fit", lambda *a: fits.append(real_fit(*a)) or fits[-1])
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", smoke_config, "--manifest", manifest,
                         "--out", str(out)]) == 0
        report = json.loads((out / "run-0000" / "report.json").read_text())
        assert report["n_frames"] == 11
        assert [f.best_val_ccc for f in fits] == [report["ccc_valence"]]


@pytest.mark.parametrize("argv", [
    ["train"],
    ["cv", "--target", "valence"],
    ["ablate", "--l-values", "1", "--target", "valence"],
], ids=["train", "cv", "ablate"])
def test_model_widths_come_from_the_data(tmp_path, smoke_config, argv):
    # the config's synthetic widths are 4; the features are 8 wide
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", smoke_config, "--set", "synthetic.d_a=8",
                     "--set", "synthetic.d_v=8", "--set", "synthetic.d_t=8",
                     "--out", str(data)]) == 0
    out = tmp_path / "runs"
    assert cli.main(argv + ["--config", smoke_config, "--out", str(out),
                            "--manifest", str(data / "manifest.json")]) == 0
    if argv[0] == "train":
        model = RjcmaModel.load(out / "run-0000" / "checkpoint.bin")
        assert (model.config.d_a, model.config.d_v, model.config.d_t) == (8, 8, 8)


@pytest.mark.parametrize("command", ["train", "cv"])
def test_mixed_feature_widths_exit_with_data_error(tmp_path, smoke_config, capsys,
                                                   command):
    manifest = _manifest(tmp_path / "data", [_record("s0"), _record("s1", width=6)],
                         [_record("s2")])
    rc = cli.main([command, "--config", smoke_config, "--manifest", manifest,
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "s1: feature dims {'a': 6, 'v': 6, 't': 6} differ from s0's" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


class TestEval:
    def test_reproduces_training_ccc(self, tmp_path, smoke_config, dataset):
        run = TestTrain().run_train(tmp_path, smoke_config, dataset)
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--config", smoke_config,
                       "--checkpoint", str(run / "checkpoint.bin"),
                       "--manifest", str(dataset / "manifest.json"),
                       "--split", "val", "--out", str(out)])
        assert rc == 0
        train_report = json.loads((run / "report.json").read_text())
        eval_report = json.loads((out / "run-0000" / "report.json").read_text())
        assert eval_report["ccc_valence"] == train_report["ccc_valence"]

    def test_split_changes_frame_count(self, tmp_path, smoke_config, dataset):
        run = TestTrain().run_train(tmp_path, smoke_config, dataset)
        reports = {}
        for split in ("train", "val"):
            out = tmp_path / f"eval-{split}"
            assert cli.main(["eval", "--config", smoke_config,
                             "--checkpoint", str(run / "checkpoint.bin"),
                             "--manifest", str(dataset / "manifest.json"),
                             "--split", split, "--out", str(out)]) == 0
            reports[split] = json.loads(
                (out / "run-0000" / "report.json").read_text())
        assert reports["train"]["n_frames"] != reports["val"]["n_frames"]

    def test_missing_checkpoint(self, tmp_path, smoke_config, dataset):
        rc = cli.main(["eval", "--config", smoke_config,
                       "--checkpoint", str(tmp_path / "nope.bin"),
                       "--manifest", str(dataset / "manifest.json"),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA

    def test_dim_mismatch_rejected(self, tmp_path, smoke_config, dataset):
        run = TestTrain().run_train(tmp_path, smoke_config, dataset)
        other = tmp_path / "other"
        assert cli.main(["gen", "--config", smoke_config,
                         "--set", "synthetic.d_a=6",
                         "--out", str(other)]) == 0
        rc = cli.main(["eval", "--config", smoke_config,
                       "--checkpoint", str(run / "checkpoint.bin"),
                       "--manifest", str(other / "manifest.json"),
                       "--out", str(tmp_path / "e2")])
        assert rc == cli.EXIT_DATA


NO_TCN_KERNEL = {"d_a": 4, "d_v": 4, "d_t": 4, "K": 20, "iterations": 3,
                 "target": "valence", "seed": 0, "tcn_dilations": [1, 2]}


class TestEvalBadCheckpointConfig:
    # the config block starts at byte 12, after magic, version and length
    @pytest.mark.parametrize("blob, message", [
        (b'{"K": \xff}', "config is not UTF-8 at byte 18"),
        (b'{"K": 16,', "config is not JSON at byte 21"),
        (json.dumps(NO_TCN_KERNEL).encode(), "config lacks key 'tcn_kernel'"),
        (json.dumps(dict(NO_TCN_KERNEL, tcn_kernel=3, K="twenty")).encode(),
         "config key 'K' has the wrong type: 'twenty'"),
    ], ids=["not-utf8", "not-json", "missing-key", "wrong-type"])
    def test_exits_with_data_error_naming_file(self, tmp_path, smoke_config,
                                                dataset, capsys, blob, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"RJCM" + struct.pack("<II", 1, len(blob)) + blob
                         + struct.pack("<I", 0))
        rc = cli.main(["eval", "--config", smoke_config,
                       "--checkpoint", str(path),
                       "--manifest", str(dataset / "manifest.json"),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert f"{path}: {message}" in capsys.readouterr().err


class TestEvalBadCheckpointTensors:
    # each case edits the config or tensors of a checkpoint as `rjcma train`
    # writes it at d_m=4, normalizer included
    @pytest.mark.parametrize("edit, message", [
        (lambda c, t: t.pop("head/w1"), "state mismatch on ['head/w1']"),
        (lambda c, t: t.update({"iter2/W_cv": np.ones((20, 19))}),
         "shape mismatch for iter2/W_cv: (20, 19), expected (20, 20)"),
        (lambda c, t: c.update(tcn_kernel=2), "config key 'tcn_kernel' is 2, not 3"),
        (lambda c, t: c.update(tcn_dilations=[2, 1]),
         "config key 'tcn_dilations' is [2, 1], not [1, 2]"),
        (lambda c, t: t.update({"norm/a/mean": np.zeros((3, 1))}),
         "shape mismatch for norm/a/mean: (3, 1), expected (4, 1)"),
        (lambda c, t: t.update({"norm/a/mean": np.zeros((1, 1))}),
         "shape mismatch for norm/a/mean: (1, 1), expected (4, 1)"),
        (lambda c, t: t.update({"norm/a/std": np.ones((4, 5))}),
         "shape mismatch for norm/a/std: (4, 5), expected (4, 1)"),
        (lambda c, t: t.update({"norm/a/std": np.zeros((4, 1))}),
         "norm/a/std has a value that is not positive"),
        (lambda c, t: t.update({"norm/x/mean": np.zeros((4, 1))}),
         "state mismatch on ['norm/x/mean']"),
    ], ids=["missing-tensor", "misshaped-tensor", "tcn-kernel", "tcn-dilations",
            "norm-mean-rows", "norm-mean-one-by-one", "norm-std-cols", "norm-std-zero",
            "norm-unknown"])
    def test_exits_with_data_error_naming_tensor(self, tmp_path, smoke_config,
                                                  dataset, capsys, edit, message):
        norm = dat.Normalizer().fit([_record()])
        model = RjcmaModel(FusionConfig(4, 4, 4, K=20), "valence", seed=0,
                           normalizer=norm)
        config = model.checkpoint_config()
        tensors = {**model.state_arrays(), **dict(norm.named_arrays())}
        edit(config, tensors)
        path = tmp_path / "bad.bin"
        ck.write_checkpoint(path, config, tensors)
        rc = cli.main(["eval", "--config", smoke_config,
                       "--checkpoint", str(path),
                       "--manifest", str(dataset / "manifest.json"),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert f"{path}: {message}" in capsys.readouterr().err


class TestEvalCheckpointSizes:
    # a config size that no tensor of the file has exits 2 before the model
    # draws a weight at that size
    @pytest.mark.parametrize("key, value, message", [
        ("K", 1000000, "config key 'K' is 1000000, which does not fit tensor "
                       "'iter1/W_ca' of shape (20, 20)"),
        ("iterations", 10 ** 12, "config key 'iterations' is 1000000000000, "
                                 "but the checkpoint lacks tensor 'iter4/W_ca'"),
        ("d_a", 5, "config keys d_a + d_v + d_t = 13 do not fit tensor 'fc_joint/w'"),
    ], ids=["K", "iterations", "widths"])
    def test_exits_with_data_error_before_drawing(self, tmp_path, smoke_config, dataset,
                                                  capsys, monkeypatch, key, value, message):
        model = RjcmaModel(FusionConfig(4, 4, 4, K=20), "valence", seed=0)
        path = tmp_path / "big.bin"
        ck.write_checkpoint(path, {**model.checkpoint_config(), key: value},
                            model.state_arrays())

        def draw(*_args):
            raise AssertionError("weights drawn before the sizes were checked")

        monkeypatch.setattr(mo, "init_params", draw)
        rc = cli.main(["eval", "--config", smoke_config, "--checkpoint", str(path),
                       "--manifest", str(dataset / "manifest.json"),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert f"{path}: {message}" in capsys.readouterr().err


class TestNothingToScore:
    """A partition with no valid frame for the target exits 2, naming the
    partition and the target."""

    def test_train_on_one_frame_windows(self, tmp_path, smoke_config, dataset, capsys):
        rc = cli.main(["train", "--config", smoke_config,
                       "--set", "window.K=1", "--set", "window.stride=1",
                       "--manifest", str(dataset / "manifest.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        assert ("data error: the train partition has no window with 2 valid valence "
                "frames") in capsys.readouterr().err

    def test_eval_on_unlabelled_split(self, tmp_path, smoke_config, capsys):
        data = tmp_path / "unlabelled"
        assert cli.main(["gen", "--config", smoke_config,
                         "--set", "synthetic.invalid_label_prob=1.0",
                         "--out", str(data)]) == 0
        path = tmp_path / "checkpoint.bin"
        RjcmaModel(FusionConfig(4, 4, 4, K=20), "valence", seed=0).save(path)
        manifest = str(data / "manifest.json")
        rc = cli.main(["eval", "--config", smoke_config, "--checkpoint", str(path),
                       "--manifest", manifest, "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert (f"data error: {manifest} split 'val': no valid frames for target valence"
                in capsys.readouterr().err)

    def test_cv_on_unlabelled_data(self, tmp_path, smoke_config, capsys):
        rc = cli.main(["cv", "--config", smoke_config,
                       "--set", "synthetic.invalid_label_prob=1.0",
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
        assert ("data error: the train partition has no window with 2 valid valence "
                "frames") in capsys.readouterr().err


class TestConfigValues:
    """Values the config dataclasses or the fold split reject exit 1 with
    the key and the value named, not with a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["train", "--set", "window.stride=500"], "window.stride=500 is outside [1, K=20]"),
        (["train", "--set", "train.lr_min=1.0"], "train.lr_min=1.0 exceeds lr_init=0.003"),
        (["train", "--set", "window.K=abc"], "window.K must be int, got 'abc'"),
        (["gen", "--set", "n_folds=5"], "n_folds=5 must be an integer in [2, 4 sequences]"),
        (["train", "--set", "train.target=both"],
         "train.target='both' is not valence or arousal"),
        (["train", "--set", "train.seed=6"], "train.seed=6 differs from seed=5"),
        (["train", "--seed", "-1"], "--seed=-1 is negative"),
        (["gen", "--seed", "-1"], "--seed=-1 is negative"),
        (["gen", "--set", "seed=-1", "--set", "train.seed=-1"], "seed=-1 is negative"),
        (["gen", "--set", "synthetic.latent_step_sigma=-1"],
         "synthetic.latent_step_sigma=-1 is not a finite value >= 0"),
        (["gen", "--set", "synthetic.latent_step_sigma=NaN"],
         "synthetic.latent_step_sigma=nan is not a finite value >= 0"),
        (["gen", "--set", "synthetic.noise_sigma=-0.5"],
         "synthetic.noise_sigma=-0.5 is not a finite value >= 0"),
        (["gen", "--set", "synthetic.n_private=-1"],
         "synthetic.n_private=-1 is not a finite value >= 0"),
        (["gen", "--set", "synthetic.dropout_prob=2"], "synthetic.dropout_prob=2 is outside [0, 1]"),
        (["gen", "--set", "synthetic.invalid_label_prob=-0.1"],
         "synthetic.invalid_label_prob=-0.1 is outside [0, 1]"),
        (["gen", "--set", "synthetic.fps=-5"], "synthetic.fps=-5 is not a finite value > 0"),
        (["cv", "--set", "n_folds=2.0"], "n_folds=2.0 must be an integer in [2, 4 sequences]"),
        (["cv", "--set", "n_folds=1"], "n_folds=1 must be an integer in [2, 4 sequences]"),
        (["ablate", "--set", "n_folds=1"], "n_folds=1 must be an integer in [2, 4 sequences]"),
        (["train", "--set", "train.lr_init=NaN"], "train.lr_init=nan is not a finite value > 0"),
        (["train", "--set", "train.lr_init=-1", "--set", "train.lr_min=-2"],
         "train.lr_init=-1 is not a finite value > 0"),
        (["train", "--set", "train.lr_min=NaN"], "train.lr_min=nan is not a finite value >= 0"),
        (["train", "--set", "train.weight_decay=-5"],
         "train.weight_decay=-5 is not a finite value >= 0"),
        (["train", "--set", "train.max_epochs=0"], "train.max_epochs=0 is not positive"),
        (["train", "--set", "train.warmup_epochs=-1"], "train.warmup_epochs=-1 is negative"),
        (["train", "--set", "train.plateau_patience=-1"], "train.plateau_patience=-1 is negative"),
        (["train", "--set", "train.early_stop_patience=-1"],
         "train.early_stop_patience=-1 is negative"),
        (["cv", "--set", "synthetic.n_sequences=1"],
         "n_folds=2 must be an integer in [2, 1 sequences]: "
         "synthetic.n_sequences=1 is below n_folds"),
        (["cv", "--set", "window.K=1"], "window.stride=15 is outside [1, K=1] (window.K=1)"),
        (["train", "--iterations", "0"], "--iterations=0 is not positive"),
        (["ablate", "--l-values", "0,1"], "--l-values=0,1 must list one or more positive depths"),
    ], ids=["stride-above-K", "lr-min-above-lr-init", "K-not-int", "folds-above-sequences",
            "target-both", "train-seed-differs", "negative-seed-flag", "negative-seed-flag-gen",
            "negative-seed", "negative-latent-step-sigma", "nan-latent-step-sigma",
            "negative-noise-sigma", "negative-n-private", "dropout-prob-above-1",
            "invalid-label-prob-below-0", "negative-fps", "float-folds", "one-fold-cv",
            "one-fold-ablate", "nan-lr-init",
            "negative-lr-init", "nan-lr-min", "negative-weight-decay", "zero-max-epochs",
            "negative-warmup-epochs", "negative-plateau-patience",
            "negative-early-stop-patience", "one-sequence-cv", "K-below-stride",
            "zero-iterations-flag", "zero-depth-l-values"])
    def test_exits_with_usage_error_naming_key(self, tmp_path, smoke_config, dataset,
                                               capsys, argv, message):
        rc = cli.main(argv + ["--config", smoke_config, "--out", str(tmp_path / "o")]
                      + (["--manifest", str(dataset / "manifest.json")]
                         if argv[0] == "train" else []))
        assert rc == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_default_stride_above_checkpoint_K(self, tmp_path, dataset, capsys):
        path = tmp_path / "k16.bin"
        RjcmaModel(FusionConfig(4, 4, 4, K=16), "valence", seed=0).save(path)
        rc = cli.main(["eval", "--checkpoint", str(path),
                       "--manifest", str(dataset / "manifest.json"),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_USAGE
        assert (f"window.stride=200 is outside [1, K=16] (K=16 from checkpoint {path})"
                in capsys.readouterr().err)


def _record(ident="s", seed=0, width=4, valence=None):
    """A sequence of T=30 frames, or of valence's length, with labels drawn
    in [-0.5, 0.5] unless they are given."""
    t = 30 if valence is None else valence.size
    rng = np.random.default_rng(seed)
    features = {m: rng.normal(size=(width, t)) for m in dat.MODALITIES}
    if valence is None:
        valence = rng.uniform(-0.5, 0.5, t)
    return dat.SequenceRecord(id=ident, features=features, valence=valence,
                              arousal=rng.uniform(-0.5, 0.5, t))


def _manifest(directory, train, val) -> str:
    """Write the records' MMF files and a manifest splitting them; return
    the manifest's path."""
    directory.mkdir()
    entries = []
    for split, recs in (("train", train), ("val", val)):
        for rec in recs:
            dat.write_features(directory / f"{rec.id}.mmf", rec)
            entries.append({"id": rec.id, "path": f"{rec.id}.mmf", "split": split})
    dat.write_manifest(directory / "manifest.json", entries)
    return str(directory / "manifest.json")


def _mmf(path, ident="s", feature=None, flip=None):
    """A valid MMF1 file; `feature` replaces the first audio value and
    `flip=(offset, byte)` overwrites one byte."""
    rec = _record(ident)
    if feature is not None:
        rec.features["a"][0, 0] = feature
    dat.write_features(path, rec)
    if flip is not None:
        blob = bytearray(path.read_bytes())
        blob[flip[0]] = flip[1]
        path.write_bytes(bytes(blob))


# magic, version and the id length take 12 bytes; fps, T, the modality
# count and d_a take 28 more, so with a one-byte id the payload starts at 41
@pytest.mark.parametrize("manifest, mmf, message", [
    ('[{"path": "s.mmf",', None, "manifest.json: not JSON at byte 18"),
    ('[["s.mmf"]]', None, "manifest.json: entry 0 is not an object"),
    ('[{"id": "s", "split": "val"}]', None, "manifest.json: entry 0 lacks key 'path'"),
    ('[{"path": 3, "split": "val"}]', None,
     "manifest.json: entry 0 key 'path' is not a string: 3"),
    ('[{"path": "s.mmf", "split": "train"}, {"path": "s.mmf", "split": "val"}]', None,
     "manifest.json: entries 0 and 1 hold the same sequence id 's'"),
    (None, {"flip": (12, 0xFF)}, "s.mmf: sequence id is not UTF-8 at byte 12"),
    (None, {"feature": float("nan")}, "s.mmf: non-finite value at byte 41"),
    (None, {"feature": float("-inf")}, "s.mmf: non-finite value at byte 41"),
    # byte 20 holds the sign and top exponent bits of fps=30.0, which starts at 13
    (None, {"flip": (20, 0xC0)}, "s.mmf: fps -30.0 is not a finite value > 0 at byte 13"),
], ids=["not-json", "entry-not-object", "entry-lacks-path", "path-not-string", "repeated-id",
        "id-not-utf8", "nan-payload", "inf-payload", "negative-fps"])
def test_eval_bad_manifest_or_features_exit_with_data_error(
        tmp_path, capsys, manifest, mmf, message):
    ckpt_path = tmp_path / "model.bin"
    RjcmaModel(FusionConfig(4, 4, 4, K=20), "valence", seed=0).save(ckpt_path)
    data = tmp_path / "data"
    data.mkdir()
    _mmf(data / "s.mmf", **(mmf or {}))
    (data / "manifest.json").write_text(
        manifest or json.dumps([{"id": "s", "path": "s.mmf", "split": "val"}]))
    rc = cli.main(["eval", "--set", "window.stride=15", "--checkpoint", str(ckpt_path),
                   "--manifest", str(data / "manifest.json"),
                   "--out", str(tmp_path / "e")])
    assert rc == cli.EXIT_DATA
    assert f"{data}/{message}" in capsys.readouterr().err


class TestGradcheck:
    ARGS = ["gradcheck", "--set", "gradcheck.d_m=3", "--set", "gradcheck.K=6",
            "--set", "gradcheck.iterations=2", "--set", "gradcheck.seed=0"]

    def test_passes_and_lists_all_groups(self, capsys):
        assert cli.main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fc_joint/w" in out
        assert "tcn/a/block0/tap0" in out
        assert "iter2/W_ha" in out
        assert "PASS" in out

    def test_corrupted_backward_rule_fails(self, monkeypatch):
        # negative control: break the tanh derivative and expect a red audit
        real_tanh = ad.tanh

        def broken_tanh(a):
            out = np.tanh(a.data)
            return ad._make(out, (a,), lambda g: (g * (1.0 - out),))

        monkeypatch.setattr(ad, "tanh", broken_tanh)
        try:
            report = cli.run_gradcheck(cli.GradcheckConfig(d_m=3, K=6, iterations=2, seed=0))
        finally:
            monkeypatch.setattr(ad, "tanh", real_tanh)
        assert not report.passed

    def test_cli_exit_code_on_failure(self, monkeypatch):
        monkeypatch.setattr(cli, "run_gradcheck",
                            lambda g: ad.GradCheckReport({"w": 1.0}, 1e-4))
        assert cli.main(["gradcheck"]) == cli.EXIT_NUMERICAL

    def test_seed_flag_sets_gradcheck_seed(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_gradcheck",
                            lambda g: seen.append(g) or ad.GradCheckReport({"w": 0.0}, 1e-4))
        assert cli.main(["gradcheck", "--seed", "7"]) == 0
        assert seen == [cli.GradcheckConfig(seed=7)]

    @pytest.mark.parametrize("setting, message", [
        ("gradcheck.K=abc", "gradcheck.K must be int, got 'abc'"),
        ("gradcheck.iterations=0", "gradcheck.iterations=0 is not positive"),
        ("gradcheck.h=NaN", "gradcheck.h=nan is not positive and finite"),
        ("gradcheck.tol=Infinity", "gradcheck.tol=inf is not positive and finite"),
        ("gradcheck.h=Infinity", "gradcheck.h=inf is not positive and finite"),
    ], ids=["K-not-int", "zero-iterations", "nan-h", "inf-tol", "inf-h"])
    def test_bad_section_value_exits_with_usage_error(self, capsys, setting, message):
        assert cli.main(["gradcheck", "--set", setting]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_uncaught_exception_exits_with_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", broken)
    assert cli.main(["gradcheck"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: boom" in err
    assert "Traceback" in err


class TestAblateAndCv:
    def test_ablate_table(self, tmp_path, smoke_config, dataset, capsys):
        out = tmp_path / "ab"
        rc = cli.main(["ablate", "--config", smoke_config,
                       "--manifest", str(dataset / "manifest.json"),
                       "--l-values", "1,2", "--target", "valence",
                       "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "run-0000" / "ablation.json").read_text())
        assert [r["l"] for r in rows] == [1, 2]
        for row in rows:
            assert row["valence"] is not None
            assert row["arousal"] is None

    def test_cv_table(self, tmp_path, smoke_config, dataset):
        out = tmp_path / "cv"
        rc = cli.main(["cv", "--config", smoke_config,
                       "--manifest", str(dataset / "manifest.json"),
                       "--target", "valence", "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "run-0000" / "cv.json").read_text())
        assert [r["fold"] for r in rows] == [0, 1]

    def test_fold_zero_row_is_the_train_run(self, tmp_path, smoke_config, dataset):
        # gen's val split is fold 0, and train.iterations defaults to 3
        def run(*command):
            out = tmp_path / command[0]
            assert cli.main([*command, "--config", smoke_config, "--target", "valence",
                             "--manifest", str(dataset / "manifest.json"),
                             "--out", str(out)]) == 0
            return out / "run-0000"

        train = json.loads((run("train") / "report.json").read_text())["ccc_valence"]
        cv = json.loads((run("cv") / "cv.json").read_text())
        ablate = json.loads((run("ablate", "--l-values", "3") / "ablation.json").read_text())
        assert train is not None
        assert train == cv[0]["valence"] == ablate[0]["valence"]


class TestRunDirs:
    def test_append_only(self, tmp_path):
        base = tmp_path / "runs"
        first = cli.new_run_dir(base)
        marker = first / "marker.txt"
        marker.write_text("keep")
        second = cli.new_run_dir(base)
        assert first != second
        assert marker.read_text() == "keep"

    def test_a_directory_claimed_by_another_run_is_skipped(self, tmp_path, monkeypatch):
        # another process claims run-0000 right before this one does, after
        # any check this one made: this run takes run-0001
        base = tmp_path / "runs"
        mkdir = Path.mkdir

        def claimed_first(self, *args, **kwargs):
            if self.name == "run-0000" and not self.exists():
                os.mkdir(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", claimed_first)
        assert cli.new_run_dir(base) == base / "run-0001"
        assert (base / "run-0000").is_dir()


class _Validated(BaseException):
    """Raised where a command would start work: its config passed every check.
    A BaseException, so that `cli.main` does not report it as an internal
    error."""


def _stop(*_args, **_kwargs):
    raise _Validated


def _config_keys() -> list[str]:
    """Every key of the default config: each top-level key and, dotted, each
    key of a section."""
    keys = []
    for key, value in cli.default_config().items():
        keys.append(key)
        keys += [f"{key}.{sub}" for sub in value] if isinstance(value, dict) else []
    return keys


@pytest.fixture(scope="module")
def smoke_config_path(tmp_path_factory):
    """`smoke_config` for a module: a hypothesis test takes no function-scoped
    fixture, since its examples would share one."""
    path = tmp_path_factory.mktemp("validation") / "config.json"
    path.write_text(json.dumps(SMOKE))
    return str(path)


# strings, lists and objects no key takes; the examples below add NaN,
# +-inf, 0, 1, -1, bools and null
JSON_VALUES = st.one_of(st.text(max_size=4), st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(value=JSON_VALUES)
def test_every_config_key_takes_a_value_or_is_rejected_by_name(smoke_config_path, value):
    # with `value` at any one key, the command that reads the key stops
    # where it would start work, or exits 1 or 2 with a message naming the
    # key; never exit 4 or a traceback. gradcheck reads its own section, and
    # cv every other key. The stops are patched, so no drawn value
    # generates data, trains or allocates anything
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "new_run_dir", _stop)
        mp.setattr(cli, "run_gradcheck", _stop)
        for key in _config_keys():
            argv = ["gradcheck" if key.startswith("gradcheck") else "cv", "--config",
                    smoke_config_path, "--set", f"{key}={json.dumps(value)}"]
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except _Validated:
                continue
            assert code in (cli.EXIT_USAGE, cli.EXIT_DATA), (argv, code, err.getvalue())
            assert key in err.getvalue() and "Traceback" not in err.getvalue(), \
                (argv, err.getvalue())


for _value in (math.nan, math.inf, -math.inf, 0, 1, -1, 0.0, -1.0, True, False, None):
    test_every_config_key_takes_a_value_or_is_rejected_by_name = example(value=_value)(
        test_every_config_key_takes_a_value_or_is_rejected_by_name)
