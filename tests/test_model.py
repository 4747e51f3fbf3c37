import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma import checkpoint as ck
from rjcma import data as dat
from rjcma import fusion as fu
from rjcma import parallel
from rjcma.fusion import FusionConfig
from rjcma.metrics import ccc
from rjcma.model import RjcmaModel


def make_window(d=4, k=16, seed=0):
    rng = np.random.default_rng(seed)
    return dat.Window(
        sequence_id="w", offset=0,
        features={m: rng.normal(size=(d, k)) for m in dat.MODALITIES},
        valence=np.clip(rng.normal(size=k), -1, 1),
        arousal=np.clip(rng.normal(size=k), -1, 1))


class TestCheckpointContainer:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a/b": rng.normal(size=(3, 4)), "c": rng.normal(size=(1, 1))}
        config = {"K": 16, "target": "valence"}
        path = tmp_path / "ck.bin"
        ck.write_checkpoint(path, config, tensors)
        cfg2, t2 = ck.read_checkpoint(path)
        assert cfg2 == config
        assert set(t2) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(t2[name], np.atleast_2d(tensors[name]))

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.write_checkpoint(path, {}, {})
        assert path.read_bytes()[:4] == b"RJCM"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ck.CheckpointError, match="bad magic"):
            ck.read_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.write_checkpoint(path, {"x": 1}, {"w": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ck.CheckpointError, match="truncated"):
            ck.read_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"b": np.ones((2, 2)), "a": np.zeros((1, 3))}
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        ck.write_checkpoint(p1, {"k": 1}, tensors)
        ck.write_checkpoint(p2, {"k": 1}, dict(reversed(tensors.items())))
        assert p1.read_bytes() == p2.read_bytes()


class TestModelPersistence:
    def test_save_load_preserves_predictions(self, tmp_path):
        cfg = FusionConfig(4, 4, 4, K=16, iterations=2)
        recs = dat.generate_synthetic(
            dat.SyntheticConfig(n_sequences=2, t_min=30, t_max=40,
                                d_a=4, d_v=4, d_t=4), seed=1)
        norm = dat.Normalizer().fit(recs)
        model = RjcmaModel(cfg, target="arousal", seed=3, normalizer=norm)
        win = make_window(seed=2)
        before = model.predict(win)
        path = tmp_path / "model.bin"
        model.save(path)
        clone = RjcmaModel.load(path)
        assert clone.target == "arousal"
        assert clone.config == cfg
        np.testing.assert_array_equal(clone.predict(win), before)

    def test_save_load_without_normalizer(self, tmp_path):
        cfg = FusionConfig(3, 3, 3, K=8)
        model = RjcmaModel(cfg, target="valence", seed=0)
        path = tmp_path / "m.bin"
        model.save(path)
        clone = RjcmaModel.load(path)
        assert clone.normalizer is None
        win = make_window(d=3, k=8, seed=5)
        np.testing.assert_array_equal(clone.predict(win), model.predict(win))

    def test_save_writes_the_parameters_without_copying_them(self, tmp_path):
        # K=300 holds 13 MB of parameters; copying them for the writer and
        # joining the file's bytes in memory peaked at 39 MB
        model = RjcmaModel(FusionConfig(16, 16, 16, K=300), "valence", seed=0)
        path = tmp_path / "m.bin"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.save(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"save peak {peak / 1e6:.1f} MB"
        ck.write_checkpoint(tmp_path / "copy.bin", model.checkpoint_config(),
                            model.state_arrays())
        assert path.read_bytes() == (tmp_path / "copy.bin").read_bytes()

    def test_parameter_names_and_shapes_are_pinned(self):
        # the checkpoint format and perfbench's oracle read these names
        model = RjcmaModel(FusionConfig(2, 3, 4, K=5, iterations=2), "valence", seed=0)
        assert [(n, p.data.shape) for n, p in sorted(model.params.items())] == [
            ("fc_joint/b", (9, 1)), ("fc_joint/w", (9, 9)), ("head/b1", (4, 1)),
            ("head/b2", (1, 1)), ("head/w1", (4, 9)), ("head/w2", (1, 4)),
            ("iter1/W_ca", (5, 5)), ("iter1/W_ct", (5, 5)), ("iter1/W_cv", (5, 5)),
            ("iter1/W_ha", (5, 5)), ("iter1/W_ht", (5, 5)), ("iter1/W_hv", (5, 5)),
            ("iter1/W_ja", (2, 9)), ("iter1/W_jt", (4, 9)), ("iter1/W_jv", (3, 9)),
            ("iter2/W_ca", (5, 5)), ("iter2/W_ct", (5, 5)), ("iter2/W_cv", (5, 5)),
            ("iter2/W_ha", (5, 5)), ("iter2/W_ht", (5, 5)), ("iter2/W_hv", (5, 5)),
            ("iter2/W_ja", (2, 9)), ("iter2/W_jt", (4, 9)), ("iter2/W_jv", (3, 9)),
            ("tcn/a/block0/bias", (2, 1)), ("tcn/a/block0/tap0", (2, 2)),
            ("tcn/a/block0/tap1", (2, 2)), ("tcn/a/block0/tap2", (2, 2)),
            ("tcn/a/block1/bias", (2, 1)), ("tcn/a/block1/tap0", (2, 2)),
            ("tcn/a/block1/tap1", (2, 2)), ("tcn/a/block1/tap2", (2, 2)),
            ("tcn/t/block0/bias", (4, 1)), ("tcn/t/block0/tap0", (4, 4)),
            ("tcn/t/block0/tap1", (4, 4)), ("tcn/t/block0/tap2", (4, 4)),
            ("tcn/t/block1/bias", (4, 1)), ("tcn/t/block1/tap0", (4, 4)),
            ("tcn/t/block1/tap1", (4, 4)), ("tcn/t/block1/tap2", (4, 4)),
            ("tcn/v/block0/bias", (3, 1)), ("tcn/v/block0/tap0", (3, 3)),
            ("tcn/v/block0/tap1", (3, 3)), ("tcn/v/block0/tap2", (3, 3)),
            ("tcn/v/block1/bias", (3, 1)), ("tcn/v/block1/tap0", (3, 3)),
            ("tcn/v/block1/tap1", (3, 3)), ("tcn/v/block1/tap2", (3, 3)),
        ]

    def test_state_mismatch_rejected(self):
        model = RjcmaModel(FusionConfig(3, 3, 3, K=8), "valence", seed=0)
        state = model.state_arrays()
        state.pop("head/w1")
        with pytest.raises(ValueError, match="state mismatch"):
            model.load_state_arrays(state)

    def test_load_keeps_each_parameter_array(self):
        model = RjcmaModel(FusionConfig(3, 3, 3, K=8), "valence", seed=0)
        other = RjcmaModel(FusionConfig(3, 3, 3, K=8), "valence", seed=1)
        arrays = {name: p.data for name, p in model.params.items()}
        state = other.state_arrays()
        model.load_state_arrays(state)
        for name, p in model.params.items():
            assert p.data is arrays[name]
            np.testing.assert_array_equal(p.data, state[name])
            assert not np.shares_memory(p.data, state[name])

    def test_state_arrays_into_an_earlier_copy(self):
        model = RjcmaModel(FusionConfig(3, 3, 3, K=8), "valence", seed=0)
        snapshot = model.state_arrays()
        arrays = dict(snapshot)
        for p in model.params.values():
            p.data += 1.0
        assert model.state_arrays(out=snapshot) is snapshot
        for name, p in model.params.items():
            assert snapshot[name] is arrays[name]
            np.testing.assert_array_equal(snapshot[name], p.data)

    @pytest.mark.parametrize("bad", ["shape", "name"])
    def test_bad_state_leaves_model_untouched(self, bad):
        # every name and shape is checked before the first copy, so the
        # entries ahead of the bad one are not loaded either
        model = RjcmaModel(FusionConfig(3, 3, 3, K=8), "valence", seed=0)
        before = model.state_arrays()
        state = RjcmaModel(FusionConfig(3, 3, 3, K=8), "valence", seed=1).state_arrays()
        last = list(state)[-1]
        if bad == "shape":
            state[last] = np.zeros((2, 2))
        else:
            state["extra"] = state.pop(last)
        with pytest.raises(ValueError, match=last):
            model.load_state_arrays(state)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_wrong_target_request_rejected(self):
        model = RjcmaModel(FusionConfig(3, 3, 3, K=8), "valence", seed=0)
        with pytest.raises(ValueError):
            model.predict(make_window(d=3, k=8), target="arousal")

    def test_predictions_bounded(self):
        model = RjcmaModel(FusionConfig(4, 4, 4, K=16), "valence", seed=1)
        preds = model.predict(make_window(seed=7))
        assert np.all(np.abs(preds) <= 1.0)


def batch_setup(k=16, d=4, iterations=2, seed=4):
    """Windows of three sequences, with sentinel labels and padded tails, and
    a model whose attention weights are O(1) so the K x K path matters."""
    syn = dat.SyntheticConfig(n_sequences=3, t_min=40, t_max=50, d_a=d, d_v=d,
                              d_t=d, invalid_label_prob=0.1)
    recs = dat.generate_synthetic(syn, seed=seed)
    wins = [w for r in recs for w in dat.window(r, dat.WindowSpec(K=k, stride=k * 3 // 4))]
    model = RjcmaModel(FusionConfig(d, d, d, K=k, iterations=iterations),
                       "valence", seed=seed, normalizer=dat.Normalizer().fit(recs))
    rng = np.random.default_rng(seed + 1)
    for name, p in model.params.items():
        if "/W_c" in name or "/W_h" in name:
            p.data = rng.uniform(-0.5, 0.5, size=p.data.shape)
    return model, wins


class TestBatchedPath:
    def test_loss_is_mean_of_per_window_one_minus_ccc(self):
        model, wins = batch_setup()
        per_window = [1.0 - ccc(model.predict(w), w.valence, w.valence_mask)
                      for w in wins]
        assert model.loss_on_batch(wins).item() == pytest.approx(
            np.mean(per_window), rel=1e-12)

    def test_gradients_match_summed_per_window_backward(self):
        # batches as fit forms them at batch size 5: the last one is short
        model, wins = batch_setup()
        batches = [wins[i:i + 5] for i in range(0, len(wins), 5)]
        assert len(batches[-1]) < 5
        assert any(w.n_padded and not w.valence_mask.all() for w in wins)
        for batch in batches:
            got = ad.backward(model.loss_on_batch(batch), model.params)
            per_window = [ad.backward(model.loss_on_window(w), model.params) for w in batch]
            for name, g in got.items():
                want = sum(pw[name] for pw in per_window) / len(batch)
                assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_grad_check_on_a_batch_of_three(self):
        model, wins = batch_setup(k=6, d=3, seed=2)
        report = ad.grad_check(lambda: model.loss_on_batch(wins[:3]),
                               model.params, h=1e-5, tol=1e-4)
        assert report.passed, sorted(report.errors.items(), key=lambda kv: -kv[1])[:3]

    def test_predict_builds_no_graph_and_matches_the_recorded_forward(self, monkeypatch):
        model, wins = batch_setup()
        recorded = model.forward_window([wins[0]]).predictions
        assert recorded._node.parents
        # every op result passes through _make, which keeps no node under no_grad
        results = []
        make = ad._make

        def make_and_keep(*args):
            results.append(make(*args))
            return results[-1]

        monkeypatch.setattr(ad, "_make", make_and_keep)
        pred = model.predict(wins[0])
        assert results
        assert all(t._node is None and t._backward_fn is None for t in results)
        np.testing.assert_array_equal(pred, recorded.data.ravel())

    def test_an_l3_training_forward_records_23_interior_nodes(self):
        # per modality two TCN blocks (conv, ReLU and residual in one node),
        # the stack, per recursion step the joint FC's product and bias and
        # one attention step, the head's six ops, and the loss
        model, wins = batch_setup(iterations=3)
        seen, todo = {}, [model.loss_on_batch(wins[:2])._node]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                todo += node.parents
        interior = [node for node in seen.values() if node.parents]
        assert len(interior) == 23


# predict_windows against one predict per window, at K=300 on `workers`
# threads, in a child whose OpenBLAS runs one thread: each window's
# predict sleeps 10 ms first, so that every thread takes windows
_PREDICT_WINDOWS_BITS = textwrap.dedent("""
    import sys, threading, time
    import numpy as np
    from rjcma import data as dat, fusion as fu, parallel
    from rjcma.model import RjcmaModel

    workers, k = int(sys.argv[1]), 300
    parallel.WORKERS = workers
    rng = np.random.default_rng(workers)
    model = RjcmaModel(fu.FusionConfig(4, 4, 4, K=k), "valence", seed=3)
    for name, p in model.params.items():
        if "/W_c" in name or "/W_h" in name:
            p.data = rng.uniform(-1.0, 1.0, size=p.data.shape) / np.sqrt(k)
    wins = [dat.Window(sequence_id="w", offset=i,
                       features={m: rng.normal(size=(4, k)) for m in dat.MODALITIES},
                       valence=np.zeros(k), arousal=np.zeros(k)) for i in range(6)]
    serial = [model.predict(w) for w in wins]
    predict, threads = model.predict, set()

    def spy(win, target=None):
        threads.add(threading.current_thread())
        time.sleep(0.01)
        return predict(win, target)

    model.predict = spy
    got = model.predict_windows(wins)
    assert len(got) == len(serial)
    assert all(g.tobytes() == s.tobytes() for g, s in zip(got, serial))
    assert len(threads) == workers, threads
    print("ok")
""")


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter on this package, OpenBLAS held to
    one thread; a child that runs for 60 s is killed and fails the test."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(fu.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=60,
                          capture_output=True, text=True)


class TestPredictWindows:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_predict_per_window_bit_for_bit(self, workers):
        proc = _child(_PREDICT_WINDOWS_BITS, str(workers))
        assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr

    def test_small_K_runs_every_window_on_the_calling_thread(self, monkeypatch):
        # a K=64 window's C is below half a block: threads would cost more
        monkeypatch.setattr(parallel, "WORKERS", 2)
        model, _ = batch_setup(k=64)
        wins, threads = [make_window(k=64, seed=i) for i in range(4)], set()
        predict = model.predict

        def spy(win, target=None):
            threads.add(threading.current_thread())
            return predict(win, target)

        monkeypatch.setattr(model, "predict", spy)
        got = model.predict_windows(wins)
        assert threads == {threading.current_thread()}
        for g, w in zip(got, wins, strict=True):
            np.testing.assert_array_equal(g, predict(w))

    @pytest.mark.parametrize("failing", [0, 3])
    def test_a_failing_window_raises_after_every_thread_finished(self, monkeypatch,
                                                                   failing):
        # window 0 is this thread's first; window 3 goes to whichever thread
        # is free
        monkeypatch.setattr(parallel, "WORKERS", 2)
        model = RjcmaModel(FusionConfig(1, 1, 1, K=256, iterations=1), "valence", seed=0)
        finished = []

        def predict(i, target=None):
            if i == failing:
                raise ValueError(f"window {i}")
            time.sleep(0.05)
            finished.append(i)
            return np.zeros(256)

        monkeypatch.setattr(model, "predict", predict)
        with pytest.raises(ValueError, match=f"window {failing}"):
            model.predict_windows(list(range(6)))
        assert sorted(finished) == [i for i in range(6) if i != failing]

    def test_more_threads_than_cpus_predict_every_window_once_in_place(self, monkeypatch):
        # 6 threads, a 1 us switch interval: a lost or doubled take of the
        # next window, or a prediction stored at another window's index,
        # shows in the calls or the order
        monkeypatch.setattr(parallel, "WORKERS", 6)
        model = RjcmaModel(FusionConfig(1, 1, 1, K=256, iterations=1), "valence", seed=0)
        calls, result = [], []

        def predict(i, target=None):
            calls.append(i)
            return np.full(3, float(i))

        monkeypatch.setattr(model, "predict", predict)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(
                target=lambda: result.append(model.predict_windows(list(range(200)))))
            t.start()
            t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive()
        assert sorted(calls) == list(range(200))
        assert [p[0] for p in result[0]] == list(range(200))
