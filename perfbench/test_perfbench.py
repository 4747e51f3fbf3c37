"""Tests of the benchmark's own code: the forward oracle against rjcma at a
tiny geometry, the self-time arithmetic, and the hooks.

    python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rjcma import data as dat  # noqa: E402
from rjcma import fusion as fu  # noqa: E402
from rjcma import model as mo  # noqa: E402

from perfbench import gen, oracle, run, tracing  # noqa: E402

K, STRIDE = 24, 18


@pytest.fixture(scope="module")
def tiny():
    seqs = gen.sequences(5, [70, 90, 24, 19])
    recs = [dat.SequenceRecord(id=s["id"], features=s["features"],
                               valence=s["valence"], arousal=s["arousal"]) for s in seqs]
    mean, std = oracle.normalizer_stats(
        {m: [s["features"][m] for s in seqs] for m in oracle.MODALITIES})
    model = mo.RjcmaModel(fu.FusionConfig(16, 16, 16, K=K, iterations=3), "arousal",
                          seed=3, normalizer=dat.Normalizer().fit(recs))
    state = model.state_arrays()
    rng = np.random.default_rng(0)
    for name in state:
        if "/W_c" in name or "/W_h" in name:
            state[name] = rng.uniform(-1, 1, size=state[name].shape) / np.sqrt(K)
    model.load_state_arrays(state)
    return seqs, recs, model, state, mean, std


def test_oracle_matches_rjcma_forward_and_loss(tiny):
    seqs, recs, model, state, mean, std = tiny
    checked = 0
    for s, r in zip(seqs, recs):
        wins = dat.window(r, dat.WindowSpec(K=K, stride=STRIDE))
        assert len(wins) == oracle.window_count(r.length, K, STRIDE)
        for w in wins:
            feats, labels, mask = oracle.window_at(s, w.offset, K)
            np.testing.assert_array_equal(mask, w.arousal_mask)
            x = {m: oracle.normalize(feats[m], m, mean, std) for m in oracle.MODALITIES}
            pred = oracle.forward(state, x, 3)
            assert oracle.close(model.predict(w), pred)
            if mask.sum() >= 2:
                assert oracle.close(model.loss_on_window(w).item(),
                                    oracle.ccc_loss(pred, labels["arousal"], mask))
            checked += 1
    assert checked >= 10


def test_oracle_detects_one_perturbed_weight(tiny):
    seqs, recs, model, state, mean, std = tiny
    w = dat.window(recs[0], dat.WindowSpec(K=K, stride=STRIDE))[0]
    feats, _, _ = oracle.window_at(seqs[0], 0, K)
    x = {m: oracle.normalize(feats[m], m, mean, std) for m in oracle.MODALITIES}
    bent = dict(state)
    bent["iter2/W_hv"] = state["iter2/W_hv"].copy()
    bent["iter2/W_hv"][3, 5] += 1e-6
    assert not oracle.close(model.predict(w), oracle.forward(bent, x, 3))


def test_generator_is_seeded():
    a, b, c = gen.sequences(1, [30]), gen.sequences(1, [30]), gen.sequences(2, [30])
    np.testing.assert_array_equal(a[0]["features"]["v"], b[0]["features"]["v"])
    assert not np.array_equal(a[0]["valence"], c[0]["valence"])
    assert np.all(np.abs(a[0]["arousal"]) <= 1.0)


def test_self_times_on_synthetic_tree():
    # bench.task [0, 10]
    #   train.fit [1, 9]: leaf 1.5
    #     model.predict [2, 5]: leaf 2.0
    #       fusion.forward [3, 4]
    #     metrics.evaluate [6, 8]
    # bench.setup [10, 12] is not under a task root and is ignored
    spans = [("bench.task", 0.0, 10.0, -1), ("train.fit", 1.0, 9.0, 0),
             ("model.predict", 2.0, 5.0, 1), ("fusion.forward", 3.0, 4.0, 2),
             ("metrics.evaluate", 6.0, 8.0, 1), ("bench.setup", 10.0, 12.0, -1),
             ("checkpoint.write", 10.5, 11.0, 5)]
    leaf = [0.0, 1.5, 2.0, 0.0, 0.0, 0.0, 0.0]
    got = tracing.self_times(spans, leaf)
    assert got == pytest.approx({"unattributed": 2.0, "train": 8.0 - 3.0 - 2.0 - 1.5,
                                 "model": 3.0 - 1.0 - 2.0, "fusion": 1.0,
                                 "metrics": 2.0, "autodiff": 3.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_spans_nest_and_leaf_time_goes_to_the_open_span():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("bench.task"):
        with tracer.span("model.predict"):
            tracer.add_leaf("fwd.matmul", 0.25)
        tracer.add_leaf("fwd.add", 0.5)
    assert tracer.spans() == [("bench.task", 0.0, 3.0, -1), ("model.predict", 1.0, 2.0, 0)]
    assert list(tracer.leaf) == [0.5, 0.25]
    assert tracer.ops["fwd.matmul"] == [1, 0.25]


def test_missing_hook_target_is_reported_not_raised():
    owner = types.SimpleNamespace(__name__="mod", present=lambda: 1)
    with tracing.Patches() as p:
        assert not p.wrap(owner, "gone", lambda f: f)
        assert p.after(owner, "present", lambda out: None)
        assert owner.present() == 1
    assert p.absent == ["mod.gone"]


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.end_to_end_names()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(run.ALIASES)
