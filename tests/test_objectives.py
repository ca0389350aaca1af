import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owssl.core import ShapeMismatch, softmax
from owssl.objectives import (
    NonFiniteComponent,
    ce_logit_gradient,
    clustering_loss,
    confidence_loss,
    cross_entropy,
    supervised_loss,
    total_loss,
)
from owssl.threshold import PseudoBatch

from oracles import central_difference_gradient

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)


class TestCrossEntropy:
    def test_perfect_one_hot(self):
        assert cross_entropy([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_one_hot_vs_uniform(self):
        assert cross_entropy([1, 0, 0, 0], [0.25] * 4) == pytest.approx(LOG4, abs=1e-12)

    def test_self_entropy_uniform_pair(self):
        assert cross_entropy([0.5, 0.5], [0.5, 0.5]) == pytest.approx(LOG2, abs=1e-12)

    def test_floor_prevents_infinity(self):
        value = cross_entropy([1.0, 0.0], [0.0, 1.0])
        assert np.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy([1.0, 0.0], [1.0, 0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_gibbs_inequality(self, k, seed):
        rng = np.random.default_rng(seed)
        t = rng.dirichlet(np.ones(k))
        p = rng.dirichlet(np.ones(k))
        entropy = cross_entropy(t, t)
        assert cross_entropy(t, p) >= entropy - 1e-12


class TestSupervisedLoss:
    def test_one_hot_correct(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert supervised_loss(np.array([0, 1]), probs)[0] == 0.0

    def test_empty_convention(self):
        probs = np.array([[1.0], [0.0]])
        value, grad = supervised_loss(np.empty(0, dtype=int), probs)
        assert value == 0.0
        assert not grad.any()

    def test_mean_of_two_terms(self):
        p0 = math.exp(-0.2)
        p1 = math.exp(-0.4)
        probs = np.array([[p0, p1], [1 - p0, 1 - p1]])
        assert supervised_loss(np.array([0, 0]), probs)[0] == pytest.approx(0.3, abs=1e-12)

    def test_rejects_label_outside_classes(self):
        with pytest.raises(ShapeMismatch):
            supervised_loss(np.array([0, 2]), np.full((2, 2), 0.5))


class TestClusteringLoss:
    def test_one_hot_agreement(self):
        eye = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert clustering_loss(eye, [eye.copy()])[0] == 0.0

    def test_soft_agreement_gives_mean_entropy(self):
        cols = np.array([[0.3, 0.7], [0.6, 0.4]]).T
        expected = np.mean(
            [-(c * np.log(c)).sum() for c in cols.T]
        )
        assert clustering_loss(cols, [cols.copy()])[0] == pytest.approx(expected, abs=1e-12)

    def test_one_hot_vs_uniform(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert clustering_loss(q, [np.full((2, 2), 0.5)])[0] == pytest.approx(LOG2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            clustering_loss(np.full((2, 2), 0.5), [np.full((2, 3), 0.5)])
        with pytest.raises(ShapeMismatch):
            clustering_loss(np.full((2, 2), 0.5), [])


class TestMultiview:
    def test_no_views_reduces_bitwise(self):
        # the weak view alone: mean column cross-entropy and (p - q) / n, bit for bit
        rng = np.random.default_rng(0)
        q = rng.dirichlet(np.ones(3), size=5).T
        probs = rng.dirichlet(np.ones(3), size=5).T
        value, (grad,) = clustering_loss(q, [probs])
        assert value == float(-(q * np.log(np.maximum(probs, 1e-12))).sum(axis=0).sum() / 5)
        assert grad.tobytes() == ((probs - q) / 5).tobytes()

    def test_identical_views_change_nothing(self):
        rng = np.random.default_rng(1)
        q = rng.dirichlet(np.ones(3), size=4).T
        probs = rng.dirichlet(np.ones(3), size=4).T
        value = clustering_loss(q, [probs] * 4)[0]
        assert value == pytest.approx(clustering_loss(q, [probs])[0], abs=1e-12)

    def test_two_term_average(self):
        # one sample: global term 0.2, local term 0.6 -> (0.2 + 0.6) / 2
        q = np.array([[1.0], [0.0]])
        g = math.exp(-0.2)
        l = math.exp(-0.6)
        global_probs = np.array([[g], [1 - g]])
        local_probs = np.array([[l], [1 - l]])
        value = clustering_loss(q, [global_probs, local_probs])[0]
        assert value == pytest.approx(0.4, abs=1e-12)


class TestConfidenceLoss:
    def test_all_rejected(self):
        pseudo = PseudoBatch(np.array([False, False]), np.array([0, 1]), np.array([0.9, 0.9]))
        value, grad = confidence_loss(pseudo, np.full((2, 2), 0.5))
        assert value == 0.0
        assert not grad.any()

    def test_perfect_strong_prediction(self):
        pseudo = PseudoBatch(np.array([True, False]), np.array([0, 1]), np.array([0.9, 0.5]))
        probs = np.array([[1.0, 0.5], [0.0, 0.5]])
        assert confidence_loss(pseudo, probs)[0] == 0.0

    def test_normalizes_by_total_count(self):
        pseudo = PseudoBatch(np.array([True, False]), np.array([0, 1]), np.array([0.9, 0.5]))
        probs = np.full((2, 2), 0.5)
        assert confidence_loss(pseudo, probs)[0] == pytest.approx(LOG2 / 2, abs=1e-12)

    def test_monotone_in_threshold(self):
        # removing retained samples can only lower the loss
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=6).T
        labels = probs.argmax(axis=0)
        conf = probs.max(axis=0)
        order = np.argsort(conf)
        last = np.inf
        for keep in range(6, -1, -1):
            mask = np.zeros(6, dtype=bool)
            mask[order[6 - keep :]] = True if keep else False
            value = confidence_loss(PseudoBatch(mask, labels, conf), probs)[0]
            assert value <= last + 1e-12
            last = value

    def test_label_count_mismatch(self):
        pseudo = PseudoBatch(np.array([True]), np.array([0]), np.array([0.9]))
        with pytest.raises(ShapeMismatch):
            confidence_loss(pseudo, np.full((2, 2), 0.5))


class TestTermGradients:
    """Each term's logit gradient against central differences through `softmax`."""

    K, B = 4, 6

    @staticmethod
    def check(loss, logits, grad):
        def flat(z):
            return loss(softmax(z.reshape(logits.shape)))

        reference = central_difference_gradient(flat, logits.ravel(), h=1e-5)
        np.testing.assert_allclose(grad, reference.reshape(logits.shape), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_supervised(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, self.K, self.B)
        logits = rng.normal(scale=2.0, size=(self.K, self.B))
        _, grad = supervised_loss(labels, softmax(logits))
        self.check(lambda p: supervised_loss(labels, p)[0], logits, grad)

    @pytest.mark.parametrize("seed", range(10))
    def test_clustering_weak_and_two_local_views(self, seed):
        rng = np.random.default_rng(100 + seed)
        q = rng.dirichlet(np.ones(self.K), size=self.B).T
        logits = [rng.normal(scale=2.0, size=(self.K, self.B)) for _ in range(3)]
        views = [softmax(z) for z in logits]
        _, grads = clustering_loss(q, views)
        assert len(grads) == 3
        for v, (z, grad) in enumerate(zip(logits, grads)):
            def loss(p, v=v):
                return clustering_loss(q, views[:v] + [p] + views[v + 1 :])[0]

            self.check(loss, z, grad)

    @pytest.mark.parametrize("seed", range(10))
    def test_confidence_with_rejected_columns(self, seed):
        rng = np.random.default_rng(200 + seed)
        mask = np.array([True, False, True, False, False, True])
        labels = rng.integers(0, self.K, self.B)
        pseudo = PseudoBatch(mask, labels, rng.random(self.B))
        logits = rng.normal(scale=2.0, size=(self.K, self.B))
        _, grad = confidence_loss(pseudo, softmax(logits))
        assert not grad[:, ~mask].any()
        self.check(lambda p: confidence_loss(pseudo, p)[0], logits, grad)


class TestTotalLoss:
    def test_zero(self):
        assert total_loss(0.0, 0.0, 0.0).total == 0.0

    def test_sum(self):
        out = total_loss(0.3, 0.5, 0.2, retained_fraction=0.75)
        assert out.total == pytest.approx(1.0, abs=1e-15)
        assert out.total == out.sup + out.cls + out.conf
        assert out.retained_fraction == 0.75

    def test_single_term(self):
        assert total_loss(1.0, 0.0, 0.0).total == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteComponent):
            total_loss(np.nan, 0.0, 0.0)


class TestCeLogitGradient:
    def test_stationary_at_matching_softmax(self):
        logits = np.array([0.3, -0.2, 1.1])
        target = softmax(logits)
        np.testing.assert_allclose(ce_logit_gradient(target, logits), 0.0, atol=1e-15)

    def test_one_hot_symmetric_pair(self):
        grad = ce_logit_gradient([1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            target = rng.dirichlet(np.ones(5))
            logits = rng.normal(size=5)

            def loss(z):
                return cross_entropy(target, softmax(z))

            grad = ce_logit_gradient(target, logits)
            reference = central_difference_gradient(loss, logits, h=1e-5)
            np.testing.assert_allclose(grad, reference, atol=1e-6)
