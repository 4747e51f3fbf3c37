"""The three benchmark workloads, each driven through rjcma's public entry
points: `train.fit`, `train.train_fold` and `cli.main(["eval", ...])`.

A workload has `setup()` (make the inputs from the seed; repeatable),
`task()` (one timed unit of user-visible work, returning a `Task`) and
`check()` (failed correctness checks, as messages). The op a workload
counts is a train step (paper_train), an epoch (small_fold) or an
evaluated window (paper_eval).

Step and epoch boundaries are taken from light hooks outside the package
(`tracing.Patches.after`). If a hooked function is renamed, the op times
fall back to task time divided by ops, and the checks that need the hook
report a failure instead of crashing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gen, oracle
from .tracing import Patches

MODALITIES = oracle.MODALITIES
D_M = gen.D_M
ITERATIONS = 3
MIN_CCC = 0.8          # held-out CCC required on small_fold, both targets
TARGET_CCC = 0.9       # the quality level time_to_target_s waits for


@dataclass
class Task:
    seconds: float
    ops: int
    failed: int
    windows: int
    op_seconds: list = field(default_factory=list)


class Marks:
    """Timestamps from hooks; `intervals(kind)` is the time from the previous
    mark of any kind to each mark of `kind`."""

    def __init__(self):
        self.marks: list[tuple[float, str]] = []

    def mark(self, kind: str) -> None:
        self.marks.append((time.perf_counter(), kind))

    def intervals(self, kind: str) -> list[float]:
        return [t - self.marks[i - 1][0] for i, (t, k) in enumerate(self.marks)
                if k == kind and i > 0]


def _records(rj, seqs):
    return [rj.data.SequenceRecord(id=s["id"], features=s["features"],
                                   valence=s["valence"], arousal=s["arousal"])
            for s in seqs]


def _fusion_config(rj, k):
    return rj.fusion.FusionConfig(d_a=D_M, d_v=D_M, d_t=D_M, K=k, iterations=ITERATIONS)


def _active_attention(model, seed: int) -> dict:
    """Set W_c and W_h to a trained model's scale, uniform in +-1/sqrt(K), and
    return the model's weights. At the package's 1e-2/sqrt(K) init the K x K
    path moves the outputs by less than the oracle's tolerance, so the
    oracle could not see an error in it."""
    rng = np.random.default_rng(seed)
    state = model.state_arrays()
    for name, arr in state.items():
        if "/W_c" in name or "/W_h" in name:
            state[name] = rng.uniform(-1.0, 1.0, size=arr.shape) / math.sqrt(model.config.K)
    model.load_state_arrays(state)
    return state


class PaperTrain:
    """`fit` at the paper geometry (K=300, stride 200, d_m=16, l=3): one full
    12-window batch per epoch, a fixed number of epochs, no early stop."""

    name = "paper_train"
    K, STRIDE = 300, 200
    EPOCHS = 3               # per fit call; one step per epoch

    def __init__(self, rj, seed: int, workdir: Path):
        self.rj, self.seed = rj, seed
        self.first_loss = None
        self.cfg = rj.train.TrainConfig(
            lr_init=1e-4, lr_min=1e-6, weight_decay=1e-3, batch_size=12,
            max_epochs=self.EPOCHS, warmup_epochs=0,
            early_stop_patience=self.EPOCHS + 1, target="valence", seed=seed)

    def setup(self):
        rj = self.rj
        # T in [501, 700] gives 3 windows and T in [301, 500] gives 2: four
        # train sequences fill one 12-window batch, two val sequences give 4
        lens = gen.lengths(self.seed, 4, 501, 700) + gen.lengths(self.seed + 1, 2, 301, 500)
        self.seqs = gen.sequences(self.seed, lens, prefix="p")
        recs = _records(rj, self.seqs)
        spec = rj.data.WindowSpec(K=self.K, stride=self.STRIDE)
        normalizer = rj.data.Normalizer().fit(recs[:4])
        self.train_windows = [w for r in recs[:4] for w in rj.data.window(r, spec)]
        self.val_windows = [w for r in recs[4:] for w in rj.data.window(r, spec)]
        self.model = rj.model.RjcmaModel(_fusion_config(rj, self.K), target="valence",
                                         seed=self.seed, normalizer=normalizer)
        self.initial = _active_attention(self.model, self.seed + 7)

    def task(self) -> Task:
        rj = self.rj
        marks = Marks()
        with Patches() as p:
            p.after(rj.train, "adam_step", lambda *_: marks.mark("step"))
            p.after(rj.model.RjcmaModel, "load_state_arrays", lambda *_: marks.mark("epoch"))
            if self.first_loss is None:
                def capture(orig):
                    def backward(loss, *args, **kwargs):
                        if self.first_loss is None:
                            self.first_loss = loss.item()
                        return orig(loss, *args, **kwargs)
                    return backward
                p.wrap(rj.autodiff, "backward", capture)
            marks.mark("start")
            t0 = time.perf_counter()
            try:
                result = rj.train.fit(self.model, self.train_windows, self.val_windows, self.cfg)
                failed = 0 if len(result.history) == self.EPOCHS else self.EPOCHS
            except rj.train.NumericalError:
                failed = self.EPOCHS
            seconds = time.perf_counter() - t0
        steps = marks.intervals("step") or [seconds / self.EPOCHS] * self.EPOCHS
        return Task(seconds, self.EPOCHS, failed, 12 * self.EPOCHS, steps)

    def check(self) -> list[str]:
        """The first batch's loss against the oracle on the initial weights."""
        if self.first_loss is None:
            return ["paper_train: no loss reached autodiff.backward"]
        mean, std = oracle.normalizer_stats(
            {m: [s["features"][m] for s in self.seqs[:4]] for m in MODALITIES})
        losses = []
        for s in self.seqs[:4]:
            for i in range(oracle.window_count(s["valence"].size, self.K, self.STRIDE)):
                feats, labels, mask = oracle.window_at(s, i * self.STRIDE, self.K)
                x = {m: oracle.normalize(feats[m], m, mean, std) for m in MODALITIES}
                pred = oracle.forward(self.initial, x, ITERATIONS)
                losses.append(oracle.ccc_loss(pred, labels["valence"], mask))
        if len(losses) != 12:
            return [f"paper_train: {len(losses)} train windows, expected 12"]
        want = float(np.mean(losses))
        if not oracle.close(self.first_loss, want):
            return [f"paper_train: first-batch loss {self.first_loss!r} != oracle {want!r}"]
        return []

    def extra(self) -> dict:
        return {}


class SmallFold:
    """One cv fold (`train_fold`, both targets) at the learnability geometry:
    K=64, stride 48, l=3, 12 sequences of T 128-192, early stop disabled."""

    name = "small_fold"
    K, STRIDE = 64, 48
    EPOCHS = 10            # per target; a fold is about 4 s on the reference host
    LENGTHS = [128 + (64 * i) // 11 for i in range(12)]
    VAL = ("f003", "f008")

    def __init__(self, rj, seed: int, workdir: Path):
        self.rj, self.seed = rj, seed
        self.cfg = rj.train.TrainConfig(
            lr_init=3e-3, lr_min=1e-6, weight_decay=1e-4, batch_size=12,
            max_epochs=self.EPOCHS, warmup_epochs=2,
            early_stop_patience=self.EPOCHS + 1, seed=seed)
        self.results = []
        self.to_target = []
        self.train_windows = sum(oracle.window_count(t, self.K, self.STRIDE)
                                 for i, t in enumerate(self.LENGTHS)
                                 if f"f{i:03d}" not in self.VAL)

    def setup(self):
        self.records = _records(self.rj, gen.sequences(self.seed, self.LENGTHS, prefix="f"))

    def task(self) -> Task:
        rj = self.rj
        marks = Marks()
        fits = []
        with Patches() as p:
            p.after(rj.model.RjcmaModel, "load_state_arrays", lambda *_: marks.mark("epoch"))

            def timed_fit(orig):
                def fit(*args, **kwargs):
                    first, start = len(marks.marks), time.perf_counter()
                    out = orig(*args, **kwargs)
                    fits.append((start, [t for t, _ in marks.marks[first:]], out))
                    return out
                return fit
            p.wrap(rj.train, "fit", timed_fit)
            t0 = time.perf_counter()
            try:
                _, result, _ = rj.train.train_fold(
                    self.records, set(self.VAL), _fusion_config(rj, self.K),
                    rj.data.WindowSpec(K=self.K, stride=self.STRIDE), self.cfg)
            except rj.train.NumericalError:
                result = None
            seconds = time.perf_counter() - t0
        ops = 2 * self.EPOCHS
        if result is None:
            self.results.append(None)
            return Task(seconds, ops, ops, 0, [seconds / ops] * ops)
        self.results.append((result.ccc_valence, result.ccc_arousal,
                             [len(f[2].history) for f in fits]))
        epochs, to_target = [], 0.0
        for start, ends, fit_result in fits:
            ends = ends[:len(fit_result.history)]
            epochs += list(np.diff([start] + ends))
            hit = [ends[e] for e, h in enumerate(fit_result.history)
                   if h.val_ccc >= TARGET_CCC and e < len(ends)]
            to_target += (hit[0] if hit else ends[-1] if ends else start) - start
        self.to_target.append(to_target)
        if len(epochs) != ops:
            epochs = [seconds / ops] * ops
        return Task(seconds, ops, 0, 2 * self.EPOCHS * self.train_windows, epochs)

    def check(self) -> list[str]:
        bad = []
        for r in self.results:
            if r is None:
                bad.append("small_fold: training diverged")
                continue
            v, a, lens = r
            if lens != [self.EPOCHS, self.EPOCHS]:
                bad.append(f"small_fold: epochs run {lens}, expected {self.EPOCHS} per target")
            if not (v >= MIN_CCC and a >= MIN_CCC):
                bad.append(f"small_fold: held-out CCC valence {v:.3f} arousal {a:.3f} < {MIN_CCC}")
        return bad

    def extra(self) -> dict:
        out = {}
        if self.to_target:
            out["time_to_target_s"] = (float(np.median(self.to_target)), "s")
        done = [r for r in self.results if r is not None]
        if done:
            out["heldout_ccc_valence"] = (done[0][0], "ccc")
            out["heldout_ccc_arousal"] = (done[0][1], "ccc")
        return out


class PaperEval:
    """`rjcma eval` in-process on a K=300 checkpoint and a manifest of 24 long
    sequences (T 2901-3100, 15 windows each: 360 windows). Forward only."""

    name = "paper_eval"
    K, STRIDE = 300, 200
    SEQUENCES = 24
    SAMPLE_EVERY = 60        # predictions compared with the oracle

    def __init__(self, rj, seed: int, workdir: Path):
        self.rj, self.seed = rj, seed
        self.dir = workdir / self.name
        self.samples = []
        self.codes = []
        self.errors = []
        self.reports = []

    def setup(self):
        rj = self.rj
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "data").mkdir(parents=True)
        lens = gen.lengths(self.seed, self.SEQUENCES, 2901, 3100)
        self.seqs = {s["id"]: s for s in gen.sequences(self.seed, lens, prefix="e")}
        entries = []
        for rec in _records(rj, self.seqs.values()):
            rj.data.write_features(self.dir / "data" / f"{rec.id}.mmf", rec)
            entries.append({"id": rec.id, "path": f"{rec.id}.mmf", "split": "val", "fold": 0})
        rj.data.write_manifest(self.dir / "data" / "manifest.json", entries)
        self.mean, self.std = oracle.normalizer_stats(
            {m: [s["features"][m] for s in self.seqs.values()] for m in MODALITIES})
        model = rj.model.RjcmaModel(
            _fusion_config(rj, self.K), target="valence", seed=self.seed,
            normalizer=rj.data.Normalizer(mean=dict(self.mean), std=dict(self.std)))
        self.weights = _active_attention(model, self.seed + 7)
        model.save(self.dir / "checkpoint.bin")
        self.windows = sum(oracle.window_count(s["valence"].size, self.K, self.STRIDE)
                           for s in self.seqs.values())
        self.frames = sum(min(self.K, s["valence"].size - i * self.STRIDE)
                          for s in self.seqs.values()
                          for i in range(oracle.window_count(s["valence"].size, self.K,
                                                             self.STRIDE)))

    def task(self) -> Task:
        rj = self.rj
        out = self.dir / f"eval{len(self.codes)}"
        times = []
        first = not self.samples

        def timed_predict(orig):
            def predict(model, win, *args, **kwargs):
                t0 = time.perf_counter()
                pred = orig(model, win, *args, **kwargs)
                times.append(time.perf_counter() - t0)
                if first and (len(times) - 1) % self.SAMPLE_EVERY == 0:
                    self.samples.append((win.sequence_id, win.offset, np.array(pred)))
                return pred
            return predict

        stderr = io.StringIO()
        with Patches() as p, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            p.wrap(rj.model.RjcmaModel, "predict", timed_predict)
            t0 = time.perf_counter()
            code = rj.cli.main(["eval", "--checkpoint", str(self.dir / "checkpoint.bin"),
                                "--manifest", str(self.dir / "data" / "manifest.json"),
                                "--split", "val", "--out", str(out)])
            seconds = time.perf_counter() - t0
        self.codes.append(code)
        self.errors.append(stderr.getvalue().strip())
        reports = sorted(out.glob("run-*/report.json"))
        self.reports.append(json.loads(reports[-1].read_text()) if reports else None)
        ops = len(times) or self.windows
        failed = ops if code != 0 else 0
        return Task(seconds, ops, failed, ops, times or [seconds / ops] * ops)

    def check(self) -> list[str]:
        bad = [f"paper_eval: exit code {c}: {e}" for c, e in zip(self.codes, self.errors)
               if c != 0]
        for rep in self.reports:
            if rep is None:
                bad.append("paper_eval: no report.json written")
            elif not (isinstance(rep.get("ccc_valence"), float)
                      and math.isfinite(rep["ccc_valence"])
                      and rep.get("n_frames") == self.frames):
                bad.append(f"paper_eval: report ccc_valence={rep.get('ccc_valence')} "
                           f"n_frames={rep.get('n_frames')}, expected {self.frames} frames")
        if not self.samples:
            bad.append("paper_eval: no predictions sampled from RjcmaModel.predict")
        for sid, offset, pred in self.samples:
            feats, _, _ = oracle.window_at(self.seqs[sid], offset, self.K)
            x = {m: oracle.normalize(feats[m], m, self.mean, self.std) for m in MODALITIES}
            if not oracle.close(pred, oracle.forward(self.weights, x, ITERATIONS)):
                bad.append(f"paper_eval: prediction for {sid}@{offset} differs from oracle")
        return bad

    def extra(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PaperTrain, SmallFold, PaperEval)}
