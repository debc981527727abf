"""Tests for the random-forest classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NotFittedError, ValidationError
from repro.ml import DecisionTreeClassifier, RandomForestClassifier


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 6))
    y = ((X[:, 0] + 0.7 * X[:, 1] > 0).astype(int)
         + 2 * (X[:, 3] > 1.2).astype(int))
    return X, y


class TestFit:
    def test_fits_and_predicts(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=15, seed=1).fit(X, y)
        assert rf.score(X, y) > 0.9

    def test_correct_number_of_estimators(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=7, seed=1).fit(X, y)
        assert len(rf.estimators_) == 7

    def test_trees_are_diverse(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=5, seed=1).fit(X, y)
        node_counts = {t.tree_.n_nodes for t in rf.estimators_}
        assert len(node_counts) > 1  # bootstrap + feature subsets differ

    def test_deterministic_given_seed(self, data):
        X, y = data
        a = RandomForestClassifier(n_estimators=9, seed=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=9, seed=3).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_seed_changes_model(self, data):
        X, y = data
        a = RandomForestClassifier(n_estimators=9, seed=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=9, seed=4).fit(X, y)
        assert not np.array_equal(
            a.predict_proba(X), b.predict_proba(X)
        )

    def test_no_bootstrap_mode(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=5, bootstrap=False, seed=1).fit(X, y)
        assert rf.score(X, y) > 0.9

    def test_invalid_estimator_count(self, data):
        X, y = data
        with pytest.raises(ValidationError):
            RandomForestClassifier(n_estimators=0).fit(X, y)

    def test_invalid_voting(self, data):
        X, y = data
        with pytest.raises(ValidationError):
            RandomForestClassifier(voting="ranked").fit(X, y)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_empty_dataset_raises(self, bootstrap):
        with pytest.raises(ValidationError, match="empty dataset"):
            RandomForestClassifier(n_estimators=3, bootstrap=bootstrap).fit(
                np.empty((0, 4)), np.empty(0, dtype=int)
            )

    def test_rare_class_survives_bootstrap(self):
        """class_labels plumbing: a class absent from some bootstrap must
        still be predictable by the ensemble."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 3))
        y = np.zeros(200, dtype=int)
        y[X[:, 0] > 1.8] = 1  # handful of positives
        assert 0 < y.sum() < 15
        rf = RandomForestClassifier(n_estimators=20, seed=2).fit(X, y)
        proba = rf.predict_proba(X)
        assert proba.shape == (200, 2)


class TestVoting:
    def test_hard_voting_fractions(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=10, voting="hard", seed=1).fit(X, y)
        proba = rf.predict_proba(X[:20])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        # vote fractions are multiples of 1/n_estimators
        np.testing.assert_allclose(
            np.round(proba * 10), proba * 10, atol=1e-12
        )

    def test_soft_voting_probabilities(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=10, voting="soft", seed=1).fit(X, y)
        proba = rf.predict_proba(X[:20])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_single_tree_forest_matches_tree(self, data):
        X, y = data
        rf = RandomForestClassifier(
            n_estimators=1, bootstrap=False, max_features=None, seed=1
        ).fit(X, y)
        tree = DecisionTreeClassifier(
            seed=rf.estimators_[0].seed, max_features=None
        ).fit(X, y)
        np.testing.assert_array_equal(rf.predict(X), tree.predict(X))


class TestIntrospection:
    def test_mean_depth_positive(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=5, max_depth=6, seed=1).fit(X, y)
        assert 0 < rf.mean_depth_ <= 6

    def test_total_nodes(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=5, seed=1).fit(X, y)
        assert rf.total_nodes_ == sum(t.tree_.n_nodes for t in rf.estimators_)

    def test_feature_importances_sum_to_one(self, data):
        X, y = data
        rf = RandomForestClassifier(n_estimators=10, seed=1).fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_forest_generalises_better_than_tree(self, data):
        """Sanity check on the ensemble benefit for noisy data."""
        X, y = data
        rng = np.random.default_rng(9)
        noise = rng.standard_normal(X.shape) * 0.8
        X_noisy = X + noise
        split = 350
        tree = DecisionTreeClassifier(seed=1).fit(X_noisy[:split], y[:split])
        rf = RandomForestClassifier(n_estimators=30, seed=1).fit(
            X_noisy[:split], y[:split]
        )
        assert rf.score(X_noisy[split:], y[split:]) >= tree.score(
            X_noisy[split:], y[split:]
        )
