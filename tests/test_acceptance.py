"""End-to-end acceptance suite.

Each test checks one release criterion and prints a single PASS/FAIL line
so the outcome is readable straight from the pytest log.
"""

import json
import math
import threading
import time

import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma import cli
from rjcma import data as dat
from rjcma import fusion as fu
from rjcma import temporal as tc
from rjcma import train as tr
from rjcma.autodiff import Tensor
from rjcma.metrics import ccc, ccc_loss, evaluate


def announce(capsys, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def make_features(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return {
        m: Tensor(rng.normal(size=(cfg.dim(m), cfg.K)))
        for m in fu.MODALITIES
    }


def test_gradient_fidelity(capsys):
    start = time.perf_counter()
    report = cli.run_gradcheck(cli.GradcheckConfig(d_m=8, K=16, iterations=3, seed=2,
                                                   h=1e-5, tol=1e-4))
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 120.0
    announce(capsys, "gradient fidelity", ok,
             f"max rel err {report.max_error:.2e}, {elapsed:.1f}s")


def test_zero_attention_identity(capsys):
    ok = True
    for l in (1, 2, 3, 4):
        cfg = fu.FusionConfig(5, 4, 3, K=10, iterations=l)
        params = fu.init_params(cfg, np.random.default_rng(l))
        for i in range(1, l + 1):
            for m in fu.MODALITIES:
                params[f"iter{i}/W_c{m}"].data[:] = 0.0
        feats = make_features(cfg, seed=l)
        out = fu.rjcma_forward(feats["a"], feats["v"], feats["t"], params, cfg)
        raw = np.concatenate([feats[m].data for m in fu.MODALITIES],
                             axis=0)
        ok = ok and np.array_equal(out.attended.data, raw)
    announce(capsys, "zero-attention identity", ok, "l in {1, 2, 3, 4}")


def single_pass_oracle(xa, xv, xt, params):
    """Independent plain-numpy joint cross-attention, one pass, no recursion."""
    stacked = np.concatenate([xa, xv, xt], axis=0)
    joint = params["fc_joint/w"].data @ stacked + params["fc_joint/b"].data
    d = joint.shape[0]
    attended = []
    for m, x in zip(("a", "v", "t"), (xa, xv, xt)):
        corr = np.tanh(((x.T @ params[f"iter1/W_j{m}"].data) @ joint)
                       * (1.0 / math.sqrt(d)))
        pre = (x @ params[f"iter1/W_c{m}"].data) @ corr
        amap = np.where(pre > 0.0, pre, 0.0)
        attended.append(amap @ params[f"iter1/W_h{m}"].data + x)
    return np.concatenate(attended, axis=0)


def test_single_pass_reduction(capsys):
    cfg = fu.FusionConfig(6, 5, 4, K=12, iterations=1)
    params = fu.init_params(cfg, np.random.default_rng(7))
    feats = make_features(cfg, seed=8)
    out = fu.rjcma_forward(feats["a"], feats["v"], feats["t"], params, cfg)
    oracle = single_pass_oracle(feats["a"].data, feats["v"].data,
                                feats["t"].data, params)
    ok = np.array_equal(out.attended.data, oracle)
    announce(capsys, "single-pass reduction", ok, "f64 bit equality")


def test_ccc_oracle_suite(capsys):
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    checks = [ccc(x, x) == 1.0,
              ccc([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)]
    # zero covariance: orthogonal zero-mean series
    a = np.array([1.0, -1.0, 1.0, -1.0])
    b = np.array([1.0, 1.0, -1.0, -1.0])
    checks.append(ccc(a, b) == pytest.approx(0.0, abs=1e-12))
    # constant shift closed form
    for c in (0.1, 1.0, 5.0):
        var = x.var()
        expected = 2.0 * var / (2.0 * var + c * c)
        checks.append(abs(ccc(x, x + c) - expected) < 1e-10)
    # symmetry and mask invariance on random cases
    random_ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        p, q = rng.normal(size=n), rng.normal(size=n)
        mask = rng.random(n) < 0.8
        if mask.sum() < 2:
            mask[:2] = True
        random_ok = random_ok and ccc(p, q) == ccc(q, p)
        random_ok = random_ok and ccc(p, q, mask) == ccc(p[mask], q[mask])
    checks.append(random_ok)
    announce(capsys, "ccc oracle suite", all(checks),
             "hand values, shift closed form, 1000 random cases")


def test_tcn_causality(capsys):
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        channels = int(rng.integers(1, 5))
        params = tc.init_params(channels, rng)
        k = 12
        x = rng.normal(size=(channels, k))
        t = int(rng.integers(0, k - 1))
        base = tc.tcn_forward(Tensor(x), params, "").data
        bumped = x.copy()
        bumped[:, t + 1] += rng.normal(size=channels) + 1.0
        out = tc.tcn_forward(Tensor(bumped), params, "").data
        ok = ok and np.array_equal(base[:, :t + 1], out[:, :t + 1])
    announce(capsys, "tcn causality", ok, "100 random stacks, bit-exact")


def test_windowing(capsys):
    rng = np.random.default_rng(2)
    rec = dat.SequenceRecord(
        id="s", features={m: rng.normal(size=(3, 700)) for m in dat.MODALITIES},
        valence=np.clip(rng.normal(size=700), -1, 1),
        arousal=np.clip(rng.normal(size=700), -1, 1))
    wins = dat.window(rec, dat.WindowSpec(K=300, stride=200))
    geometry_ok = [w.offset for w in wins] == [0, 200, 400]

    # sentinel-labeled frames must contribute zero gradient
    k = 12
    labels = np.clip(rng.normal(size=k), -1, 1)
    labels[[3, 7]] = dat.INVALID_LABEL
    mask = labels != dat.INVALID_LABEL
    pred = Tensor(rng.normal(size=(1, k)), requires_grad=True)
    ad.backward(ccc_loss(pred, labels, mask))
    zero_ok = np.all(pred.grad[0, ~mask] == 0.0)

    reduced = Tensor(pred.data[:, mask].copy(), requires_grad=True)
    ad.backward(ccc_loss(reduced, labels[mask]))
    match_ok = np.array_equal(pred.grad[:, mask], reduced.grad)
    announce(capsys, "windowing", geometry_ok and zero_ok and match_ok,
             "offsets {0, 200, 400}; sentinel frames get zero gradient")


def test_learnability(capsys):
    start = time.perf_counter()
    per_seed = {"valence": [], "arousal": []}
    epochs_ok = True
    for seed in (0, 1, 2):
        syn = dat.SyntheticConfig(n_sequences=12, t_min=128, t_max=192,
                                  d_a=16, d_v=16, d_t=16, noise_sigma=0.01)
        recs = dat.generate_synthetic(syn, seed=seed)
        spec = dat.WindowSpec(K=64, stride=48)
        fusion_cfg = fu.FusionConfig(16, 16, 16, K=64, iterations=3)
        cfg = tr.TrainConfig(lr_init=3e-3, lr_min=1e-6, weight_decay=1e-4,
                             max_epochs=50, warmup_epochs=2,
                             early_stop_patience=10, seed=seed)
        folds = dat.make_folds([r.id for r in recs], 6, seed)
        val_ids = {sid for sid, f in folds.items() if f == 0}
        _, result, fits = tr.train_fold(recs, val_ids, fusion_cfg, spec, cfg,
                                        targets=("valence", "arousal"))
        per_seed["valence"].append(result.ccc_valence)
        per_seed["arousal"].append(result.ccc_arousal)
        epochs_ok = epochs_ok and all(len(f.history) <= 50 for f in fits.values())
    elapsed = time.perf_counter() - start
    med_v = float(np.median(per_seed["valence"]))
    med_a = float(np.median(per_seed["arousal"]))
    ok = med_v >= 0.8 and med_a >= 0.8 and epochs_ok and elapsed < 600.0
    announce(capsys, "learnability", ok,
             f"median held-out CCC valence {med_v:.3f}, arousal {med_a:.3f}, "
             f"{elapsed:.0f}s")


def test_recipe_fidelity(capsys):
    # scripted plateau: no improvement after epoch 0 walks the lr down the
    # full ladder, one decade per patience window, and floors at lr_min
    sched = tr.Scheduler(tr.TrainConfig(lr_init=1e-5, lr_min=1e-8,
                                        plateau_patience=5, plateau_factor=0.1,
                                        warmup_epochs=0))
    trace = [sched.epoch_end(e, e == 0) for e in range(25)]
    expected = [1e-5] * 5 + [1e-6] * 5 + [1e-7] * 5 + [1e-8] * 10
    ladder_ok = np.allclose(trace, expected, rtol=1e-12)

    # best-state reload: the returned model reproduces the historical max
    syn = dat.SyntheticConfig(n_sequences=6, t_min=60, t_max=80,
                              d_a=4, d_v=4, d_t=4)
    recs = dat.generate_synthetic(syn, seed=0)
    spec = dat.WindowSpec(K=24, stride=18)
    train_w = [w for r in recs[:4] for w in dat.window(r, spec)]
    val_w = [w for r in recs[4:] for w in dat.window(r, spec)]
    model = tr.RjcmaModel(fu.FusionConfig(4, 4, 4, K=24), "valence", seed=0)
    cfg = tr.TrainConfig(lr_init=3e-3, lr_min=1e-6, weight_decay=1e-4,
                         max_epochs=8, warmup_epochs=1, seed=0)
    result = tr.fit(model, train_w, val_w, cfg)
    best_ok = (result.best_val_ccc == max(h.val_ccc for h in result.history)
               and evaluate(result.model.predict, val_w, ("valence",)).ccc_valence
               == result.best_val_ccc)
    announce(capsys, "recipe fidelity", ladder_ok and best_ok,
             "lr ladder 1e-5 .. 1e-8; best-state reload exact")


STRUCT_CFG = {
    "seed": 3,
    "n_folds": 6,
    "synthetic": {"n_sequences": 6, "t_min": 40, "t_max": 50,
                  "d_a": 4, "d_v": 4, "d_t": 4},
    "window": {"K": 20, "stride": 15},
    "train": {"lr_init": 1e-3, "lr_min": 1e-6, "weight_decay": 1e-4,
              "max_epochs": 1, "warmup_epochs": 1},
}


def test_structural_reproduction(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(STRUCT_CFG))
    ab_out, cv_out = tmp_path / "ablate", tmp_path / "cv"
    rc_ab = cli.main(["ablate", "--config", str(config),
                      "--l-values", "1,2,3,4", "--out", str(ab_out)])
    rc_cv = cli.main(["cv", "--config", str(config), "--out", str(cv_out)])
    ab_rows = json.loads((ab_out / "run-0000" / "ablation.json").read_text())
    cv_rows = json.loads((cv_out / "run-0000" / "cv.json").read_text())
    ab_ok = ([r["l"] for r in ab_rows] == [1, 2, 3, 4]
             and all(set(r) == {"l", "valence", "arousal", "mean"}
                     for r in ab_rows))
    cv_ok = ([r["fold"] for r in cv_rows] == [0, 1, 2, 3, 4, 5]
             and all(set(r) == {"fold", "valence", "arousal", "mean"}
                     for r in cv_rows))
    mean_ok = all(r["mean"] == (r["valence"] + r["arousal"]) / 2
                  for r in ab_rows + cv_rows)
    announce(capsys, "structural reproduction",
             rc_ab == 0 and rc_cv == 0 and ab_ok and cv_ok and mean_ok,
             "recursion-depth table l=1..4, 6-fold table")


def test_determinism(tmp_path, capsys):
    config = tmp_path / "config.json"
    cfg = dict(STRUCT_CFG, n_folds=2)
    cfg["train"] = dict(cfg["train"], max_epochs=2)
    config.write_text(json.dumps(cfg))
    artifacts = []
    for tag in ("x", "y"):
        data_dir = tmp_path / f"data-{tag}"
        runs = tmp_path / f"runs-{tag}"
        assert cli.main(["gen", "--config", str(config),
                         "--out", str(data_dir)]) == 0
        assert cli.main(["train", "--config", str(config),
                         "--manifest", str(data_dir / "manifest.json"),
                         "--target", "valence", "--out", str(runs)]) == 0
        assert cli.main(["cv", "--config", str(config),
                         "--manifest", str(data_dir / "manifest.json"),
                         "--out", str(runs / "cv")]) == 0
        assert cli.main(["ablate", "--config", str(config),
                         "--manifest", str(data_dir / "manifest.json"),
                         "--l-values", "1,2", "--out", str(runs / "ablate")]) == 0
        run = runs / "run-0000"
        blobs = [p.read_bytes()
                 for p in sorted(data_dir.iterdir()) if p.is_file()]
        blobs += [(run / n).read_bytes()
                  for n in ("checkpoint.bin", "report.json", "history.csv")]
        blobs += [(runs / sub / "run-0000" / n).read_bytes()
                  for sub, table in (("cv", "cv"), ("ablate", "ablation"))
                  for n in (f"{table}.json", f"{table}.txt")]
        artifacts.append(blobs)
    ok = all(a == b for a, b in zip(*artifacts))
    announce(capsys, "determinism", ok,
             "gen, train, cv and ablate reruns byte-identical")


def test_train_run_is_the_same_for_any_worker_count(tmp_path, monkeypatch):
    # K=20 windows in one-window blocks, so the attention steps' blocks are
    # shared out across threads; the run directory must not depend on their
    # number. Each block waits 1 ms first, so that the pool's threads take
    # blocks at this small K too.
    monkeypatch.setattr(fu, "_BLOCK_BYTES", 8 * 20 * 20)
    for_each, threads = fu._for_each, set()

    def sleepy(fn, items, buffers):
        def slow(item, *bufs):
            threads.add(threading.current_thread())
            time.sleep(0.001)
            fn(item, *bufs)
        return for_each(slow, items, buffers)

    monkeypatch.setattr(fu, "_for_each", sleepy)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(STRUCT_CFG))
    assert cli.main(["gen", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(fu, "_WORKERS", workers)
        out = tmp_path / f"runs-{workers}"
        assert cli.main(["train", "--config", str(config),
                         "--manifest", str(tmp_path / "data" / "manifest.json"),
                         "--target", "valence", "--out", str(out)]) == 0
        run = out / "run-0000"
        runs[workers] = {p.name: p.read_bytes() for p in sorted(run.iterdir())}
        assert len(threads) == workers
        threads.clear()
    assert "checkpoint.bin" in runs[1]
    assert runs[1] == runs[2]
