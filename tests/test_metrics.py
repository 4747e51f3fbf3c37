import numpy as np
import pytest

from rjcma import autodiff as ad
from rjcma import metrics as mt
from rjcma.autodiff import Tensor


def ccc_formula(x, y):
    """Direct Lin's CCC, population statistics (independent oracle)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    mx, my = x.mean(), y.mean()
    vx, vy = x.var(), y.var()
    cov = ((x - mx) * (y - my)).mean()
    return 2 * cov / (vx + vy + (mx - my) ** 2)


class TestCcc:
    def test_perfect_agreement(self):
        x = np.random.default_rng(0).normal(size=20)
        assert mt.ccc(x, x) == 1.0

    def test_reversed_is_minus_one(self):
        # equal means, cov = -var: possible only with a plain (unsquared) covariance
        assert mt.ccc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-10)

    def test_constant_vs_varying_is_zero(self):
        assert mt.ccc([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_shift_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        for c in (0.5, -1.2, 3.0):
            var = x.var()
            expected = 2 * var / (2 * var + c * c)
            assert mt.ccc(x, x + c) == pytest.approx(expected, abs=1e-10)
            assert expected < 1.0

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            assert mt.ccc(x, y) == pytest.approx(ccc_formula(x, y), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert mt.ccc(x, y) == mt.ccc(y, x)

    def test_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.normal(size=8) * rng.uniform(0.1, 10)
            y = rng.normal(size=8) * rng.uniform(0.1, 10)
            assert abs(mt.ccc(x, y)) <= 1.0 + 1e-12

    def test_mask_removes_garbage_bit_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        clean = mt.ccc(x, y)
        xg = np.concatenate([x, [1e6, -1e6]])
        yg = np.concatenate([y, [-1e6, 1e6]])
        mask = np.concatenate([np.ones(10, bool), np.zeros(2, bool)])
        assert mt.ccc(xg, yg, mask) == clean

    def test_constant_equal_series(self):
        assert mt.ccc([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]) == 1.0

    def test_constant_unequal_series_is_zero(self):
        assert mt.ccc([0.5, 0.5], [0.7, 0.7]) == pytest.approx(0.0)

    def test_insufficient_data(self):
        with pytest.raises(mt.InsufficientDataError):
            mt.ccc([1.0], [1.0])
        with pytest.raises(mt.InsufficientDataError):
            mt.ccc([1.0, 2.0], [1.0, 2.0], mask=[True, False])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mt.ccc([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCccLoss:
    def test_perfect_prediction_near_zero(self):
        gt = np.random.default_rng(0).normal(size=12)
        loss = mt.ccc_loss(Tensor(gt.reshape(1, -1)), gt)
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pred = Tensor(rng.normal(size=(1, 9)))
            gt = rng.normal(size=9)
            value = mt.ccc_loss(pred, gt).item()
            assert 0.0 - 1e-12 <= value <= 2.0 + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pred = Tensor(rng.normal(size=(1, 10)))
        gt = rng.normal(size=10)
        report = ad.grad_check(lambda: mt.ccc_loss(pred, gt),
                               {"pred": pred}, h=1e-5, tol=1e-6)
        assert report.passed, report.errors

    def test_gradient_with_mask(self):
        rng = np.random.default_rng(3)
        pred = Tensor(rng.normal(size=(1, 8)))
        mask = np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=bool)
        gt = np.where(mask, rng.normal(size=8), -5.0)
        loss = mt.ccc_loss(pred, gt, mask)
        assert loss.item() == 1.0 - mt.ccc(pred.data, gt, mask)
        grad = ad.backward(loss, {"pred": pred})["pred"]
        assert np.all(grad[0, ~mask] == 0.0)
        assert np.any(grad[0, mask] != 0.0)
        report = ad.grad_check(lambda: mt.ccc_loss(pred, gt, mask),
                               {"pred": pred}, h=1e-5, tol=1e-6)
        assert report.passed, report.errors

    def test_insufficient_frames(self):
        with pytest.raises(mt.InsufficientDataError):
            mt.ccc_loss(Tensor(np.ones((1, 3))), np.ones(3),
                        mask=[True, False, False])


class FakeWindow:
    def __init__(self, sid, pred, gt, mask=None):
        self.sequence_id = sid
        self.pred = np.asarray(pred, float)
        self.gt = np.asarray(gt, float)
        self.mask = (np.ones(self.gt.size, bool) if mask is None
                     else np.asarray(mask, bool))

    def labels(self, target):
        return self.gt

    def label_mask(self, target):
        return self.mask


class TestEvaluate:
    @staticmethod
    def predict(windows, target):
        return [w.pred for w in windows]

    def test_perfect_model(self):
        rng = np.random.default_rng(0)
        wins = [FakeWindow(f"s{i}", g, g)
                for i, g in enumerate(rng.normal(size=(3, 10)))]
        res = mt.evaluate(self.predict, wins, targets=("valence",))
        assert res.ccc_valence == 1.0
        assert res.n_frames == 30

    def test_single_sequence_global_equals_per_sequence(self):
        rng = np.random.default_rng(1)
        w = FakeWindow("only", rng.normal(size=8), rng.normal(size=8))
        res = mt.evaluate(self.predict, [w], targets=("valence",))
        assert len(res.per_sequence) == 1
        assert res.per_sequence[0][2] == res.ccc_valence

    def test_two_sequences_match_concatenation_oracle(self):
        rng = np.random.default_rng(2)
        wins = [FakeWindow("s0", rng.normal(size=6), rng.normal(size=6)),
                FakeWindow("s1", rng.normal(size=9), rng.normal(size=9))]
        res = mt.evaluate(self.predict, wins, targets=("arousal",))
        pred = np.concatenate([w.pred for w in wins])
        gt = np.concatenate([w.gt for w in wins])
        assert res.ccc_arousal == pytest.approx(ccc_formula(pred, gt), abs=1e-12)

    def test_masked_frames_excluded(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=10)
        w_clean = FakeWindow("s", gt, gt)
        garbage_gt = gt.copy()
        garbage_gt[3] = 99.0
        mask = np.ones(10, bool)
        mask[3] = False
        w_masked = FakeWindow("s", gt, garbage_gt, mask)
        r1 = mt.evaluate(self.predict, [w_masked], targets=("valence",))
        assert r1.ccc_valence == 1.0
        assert r1.n_frames == 9

    def test_empty_partition(self):
        with pytest.raises(mt.InsufficientDataError):
            mt.evaluate(self.predict, [], targets=("valence",))

    def test_unknown_target(self):
        w = FakeWindow("s", np.zeros(4), np.arange(4.0))
        with pytest.raises(ValueError, match="unknown target 'Valence'"):
            mt.evaluate(self.predict, [w], targets=("Valence",))

    def test_json_roundtrip(self):
        import json
        res = mt.EvalResult(ccc_valence=0.5, ccc_arousal=0.7,
                            per_sequence=[("s0", "valence", 0.5)], n_frames=10)
        doc = json.loads(res.to_json())
        assert doc["ccc_valence"] == 0.5
        assert doc["mean"] == pytest.approx(0.6)
        assert doc["per_sequence"][0]["id"] == "s0"
