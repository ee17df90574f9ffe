import re

import numpy as np
import pytest
from scipy.stats import rankdata

from latefuse import classifiers, crossval, pipeline, synthdata
from latefuse.classifiers import ClassifierSpec
from latefuse.core import LabelSpace, standardize_apply, standardize_fit
from latefuse.ensemble import (
    EnsembleStrategy,
    assign_ranks,
    confidence_sum,
    decide,
    rank_sum,
    stack_meta_features,
    train_stacking,
)
from latefuse.errors import (
    AllZeroPriorities,
    BadSpec,
    DimensionMismatch,
    EmptyEnsemble,
    InvalidProbabilities,
)

from conftest import falsy_meta_message


# --- independent straightforward reimplementation (oracle) -----------------

def oracle_ranks(p):
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    ranks = [0.0] * m
    i = 0
    while i < m:
        j = i
        while j + 1 < m and p[order[j + 1]] == p[order[i]]:
            j += 1
        shared = ((i + 1) + (j + 1)) / 2
        for t in range(i, j + 1):
            ranks[order[t]] = shared
        i = j + 1
    return ranks


def oracle_combine(vectors, weights):
    m = len(vectors[0])
    scores = [0.0] * m
    acc = None
    for v, w in zip(vectors, weights):
        term = [w * x for x in v]
        acc = term if acc is None else [a + b for a, b in zip(acc, term)]
    return acc


def oracle_decide(scores):
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


def random_instance(rng):
    g = int(rng.integers(1, 6))
    m = int(rng.integers(2, 7))
    probs = []
    for _ in range(g):
        p = rng.dirichlet(np.ones(m))
        if rng.random() < 0.3:  # force ties sometimes
            p = np.round(p, 1)
            p[-1] = 1.0 - p[:-1].sum()
            if np.any(p < 0):
                p = np.full(m, 1.0 / m)
        probs.append(p)
    priorities = rng.uniform(0.0, 2.0, size=g)
    if priorities.sum() == 0:
        priorities[0] = 1.0
    return probs, priorities.tolist()


class TestAssignRanks:
    def test_strictly_ordered(self):
        np.testing.assert_array_equal(assign_ranks([0.5, 0.3, 0.2]), [3, 2, 1])

    def test_two_way_tie(self):
        np.testing.assert_array_equal(assign_ranks([0.4, 0.4, 0.2]), [2.5, 2.5, 1])

    def test_full_tie_two_classes(self):
        np.testing.assert_array_equal(assign_ranks([0.5, 0.5]), [1.5, 1.5])

    def test_rank_sum_conserved(self, rng):
        for _ in range(300):
            m = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(m))
            if rng.random() < 0.5:
                p = np.round(p, 1)
            r = assign_ranks(p)
            assert r.sum() == m * (m + 1) / 2
            assert r.min() >= 1 and r.max() <= m

    def test_matches_scipy_average_ranks(self, rng):
        for n, m in ((500, 6), (50, 67), (3, 2)):
            P = rng.integers(0, 4, (n, m)) / 4.0  # many ties
            expected = rankdata(P, method="average", axis=-1)
            np.testing.assert_array_equal(assign_ranks(P), expected)
            np.testing.assert_array_equal(assign_ranks(P[0]), expected[0])

    def test_matches_oracle(self, rng):
        for _ in range(200):
            m = int(rng.integers(2, 7))
            P = np.round(rng.dirichlet(np.ones(m), size=5), 1)  # rounding makes ties
            np.testing.assert_array_equal(assign_ranks(P[0]), oracle_ranks(P[0].tolist()))
            np.testing.assert_array_equal(
                assign_ranks(P), [oracle_ranks(p) for p in P.tolist()]
            )


class TestConfidenceSum:
    def test_unweighted_example(self):
        s = confidence_sum([np.array([0.6, 0.4]), np.array([0.3, 0.7])], [], False)
        np.testing.assert_allclose(s, [0.9, 1.1])
        assert decide(s) == 1

    def test_weighting_flips_the_winner(self):
        s = confidence_sum(
            [np.array([0.6, 0.4]), np.array([0.3, 0.7])], [1.0, 0.1], True
        )
        np.testing.assert_allclose(s, [0.63, 0.47])
        assert decide(s) == 0

    def test_all_zero_priorities(self):
        with pytest.raises(AllZeroPriorities):
            confidence_sum([np.array([0.5, 0.5])], [0.0], True)

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsemble, match="no classifier outputs to combine"):
            confidence_sum([], [], False)

    @pytest.mark.parametrize("fuse", [confidence_sum, rank_sum])
    def test_one_priority_per_group(self, fuse):
        with pytest.raises(DimensionMismatch, match="2 probability vectors but 3 priorities"):
            fuse([np.array([0.5, 0.5])] * 2, [0.5, 0.5, 0.5], True)

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_negative_or_non_finite_priority_rejected(self, bad):
        with pytest.raises(BadSpec, match="priorities"):
            confidence_sum([np.array([0.5, 0.5])] * 2, [1.0, bad], True)


class TestRankSum:
    def test_unweighted_example(self):
        s = rank_sum(
            [np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3])], [], False
        )
        np.testing.assert_array_equal(s, [4, 5, 3])
        assert decide(s) == 1

    def test_weighted_tie_breaks_low(self):
        s = rank_sum(
            [np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3])], [2.0, 1.0], True
        )
        np.testing.assert_array_equal(s, [7, 7, 4])
        assert decide(s) == 0

    def test_single_group_preserves_argmax(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert decide(rank_sum([p], [0.7], True)) == int(np.argmax(p))
            assert decide(confidence_sum([p], [0.7], True)) == int(np.argmax(p))


class TestDecide:
    def test_tie_to_lowest_index(self):
        assert decide([0.2, 0.9, 0.9]) == 1
        assert decide([3.0, -1.0]) == 0
        S = [[0.2, 0.9, 0.9], [3.0, -1.0, 3.0], [0.5, 0.5, 0.5]]
        np.testing.assert_array_equal(decide(S), [1, 0, 0])
        assert decide(S).tolist() == [decide(s) for s in S]

    def test_positive_scaling_invariance(self, rng):
        for _ in range(100):
            s = rng.standard_normal(5)
            c = rng.uniform(0.01, 100)
            assert decide(c * s) == decide(s)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidProbabilities, match="scores"):
            decide([np.nan, 1.0])
        with pytest.raises(InvalidProbabilities, match="scores"):
            decide([[0.0, 1.0], [np.inf, 1.0]])


class TestOracleEquivalence:
    def test_combination_rules_match_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            probs, priorities = random_instance(rng)
            # the same groups as a 2-sample batch; row 1 rolls each vector
            rolled = [np.roll(p, 1) for p in probs]
            batch = [np.stack(rows) for rows in zip(probs, rolled)]
            for weighted in (False, True):
                w = priorities if weighted else [1.0] * len(probs)
                for fn, oracle_scores in ((confidence_sum, list), (rank_sum, oracle_ranks)):
                    got = fn(probs, priorities, weighted)
                    want = oracle_combine([oracle_scores(p.tolist()) for p in probs], w)
                    np.testing.assert_array_equal(got, want)
                    assert decide(got) == oracle_decide(want)

                    want_rolled = oracle_combine(
                        [oracle_scores(p.tolist()) for p in rolled], w
                    )
                    got_batch = fn(batch, priorities, weighted)
                    np.testing.assert_array_equal(got_batch, [want, want_rolled])
                    assert decide(got_batch).tolist() == [
                        oracle_decide(want),
                        oracle_decide(want_rolled),
                    ]


class TestWeightingInvariances:
    # scale factors are powers of two: scaling by 2**k is exact in binary
    # floating point, so argmax equality holds even on manufactured ties

    def test_uniform_priorities_equal_unweighted(self, rng):
        for _ in range(100):
            probs, _ = random_instance(rng)
            c = float(2.0 ** rng.integers(-6, 7))
            uniform = [c] * len(probs)
            assert decide(confidence_sum(probs, uniform, True)) == decide(
                confidence_sum(probs, [], False)
            )
            assert decide(rank_sum(probs, uniform, True)) == decide(
                rank_sum(probs, [], False)
            )

    def test_priority_scale_invariance(self, rng):
        for _ in range(100):
            probs, priorities = random_instance(rng)
            lam = float(2.0 ** rng.integers(-6, 7))
            scaled = [lam * w for w in priorities]
            assert decide(confidence_sum(probs, scaled, True)) == decide(
                confidence_sum(probs, priorities, True)
            )
            assert decide(rank_sum(probs, scaled, True)) == decide(
                rank_sum(probs, priorities, True)
            )

    def test_scale_invariance_generic_factors_without_ties(self, rng):
        # with strict argmax margins, any positive factor preserves the winner
        for _ in range(100):
            probs = [rng.dirichlet(np.ones(4)) for _ in range(3)]
            priorities = rng.uniform(0.1, 2.0, size=3).tolist()
            lam = rng.uniform(0.01, 50)
            s = confidence_sum(probs, priorities, True)
            top = np.sort(s)
            if top[-1] - top[-2] < 1e-9:
                continue
            assert decide(confidence_sum(probs, [lam * w for w in priorities], True)) == decide(s)


class TestStrategyType:
    def test_stacking_requires_meta(self):
        with pytest.raises(BadSpec, match="stacking_meta_spec"):
            EnsembleStrategy("stacking", stacking_mode="naive")

    @pytest.mark.parametrize("meta", [{"kind": "logreg"}, "logreg", 0], ids=repr)
    def test_stacking_meta_spec_must_be_a_classifier_spec(self, meta):
        with pytest.raises(BadSpec, match="^stacking_meta_spec must be a ClassifierSpec"):
            EnsembleStrategy("stacking", stacking_mode="naive", stacking_meta_spec=meta)

    def test_non_stacking_rejects_stacking_fields(self):
        with pytest.raises(BadSpec, match="stacking_mode"):
            EnsembleStrategy("confidence_sum", stacking_mode="naive")

    @pytest.mark.parametrize("kind", ["vote", None, ["stacking"]], ids=str)
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(BadSpec, match="kind"):
            EnsembleStrategy(kind)

    @pytest.mark.parametrize("weighted", [1, "no", None])
    def test_weighted_must_be_a_bool(self, weighted):
        # a strategy that constructs must also save to a model file that loads
        with pytest.raises(BadSpec, match="weighted"):
            EnsembleStrategy("confidence_sum", weighted=weighted)

    def test_labels(self):
        meta = ClassifierSpec("logreg")
        assert EnsembleStrategy("confidence_sum", weighted=True).label == "confidence_sum_weighted"
        assert EnsembleStrategy("rank_sum").label == "rank_sum"
        s = EnsembleStrategy("stacking", stacking_mode="naive", stacking_meta_spec=meta)
        assert s.label == "stacking_naive"

    @pytest.mark.parametrize("d", [["kind"], "kind", 5, None])
    def test_from_dict_of_a_non_object_rejected(self, d):
        with pytest.raises(BadSpec, match="strategy must be a JSON object"):
            EnsembleStrategy.from_dict(d)

    @pytest.mark.parametrize("meta", [0, "", [], {}, False], ids=repr)
    def test_from_dict_reads_a_falsy_meta_spec(self, meta):
        # only an absent or null stacking_meta_spec counts as none
        with pytest.raises(BadSpec, match=re.escape(falsy_meta_message(meta))):
            EnsembleStrategy.from_dict({"kind": "confidence_sum", "stacking_meta_spec": meta})

    def test_unknown_stacking_mode_rejected(self):
        with pytest.raises(BadSpec, match="stacking_mode must be one of .*, got 'eager'"):
            EnsembleStrategy("stacking", stacking_mode="eager", stacking_meta_spec=ClassifierSpec("logreg"))

    def test_from_dict_without_kind_rejected(self):
        with pytest.raises(BadSpec, match="missing the required field 'kind'"):
            EnsembleStrategy.from_dict({"weighted": True})

    @pytest.mark.parametrize("d, unknown", [
        ({"kind": "rank_sum", "weigted": True}, "['weigted']"),
        ({"kind": "confidence_sum", "seed": 4, "mode": "x"}, "['mode', 'seed']"),
    ])
    def test_from_dict_rejects_unknown_fields(self, d, unknown):
        with pytest.raises(BadSpec, match=re.escape(f"strategy has unknown fields {unknown}")):
            EnsembleStrategy.from_dict(d)

    def test_round_trip_dict(self):
        meta = ClassifierSpec("logreg", seed=3)
        s = EnsembleStrategy("stacking", stacking_mode="out_of_fold", stacking_meta_spec=meta)
        assert EnsembleStrategy.from_dict(s.to_dict()) == s


class TestStacking:
    def test_meta_feature_dimension(self, rng):
        probs = [rng.dirichlet(np.ones(5), size=12) for _ in range(3)]
        meta_X = stack_meta_features(probs)
        assert meta_X.shape == (12, 15)

    def test_train_stacking_produces_classifier(self, rng):
        n, m, g = 30, 3, 2
        y = np.tile(np.arange(m), n // m)
        probs = []
        for _ in range(g):
            P = np.full((n, m), 0.2)
            P[np.arange(n), y] = 0.6
            probs.append(P + rng.uniform(0, 0.01, size=(n, m)))
            probs[-1] /= probs[-1].sum(axis=1, keepdims=True)
        strategy = EnsembleStrategy(
            "stacking", stacking_mode="naive", stacking_meta_spec=ClassifierSpec("logreg")
        )
        meta = train_stacking(probs, y, strategy, LabelSpace(("a", "b", "c")))
        assert meta.input_dim == g * m
        acc = float((meta.predict(stack_meta_features(probs)) == y).mean())
        assert acc >= 0.95

    def test_out_of_fold_meta_matrix_row_count(self, rng):
        y = np.tile(np.arange(3), 20)
        feats = [rng.standard_normal((60, 4)) for _ in range(2)]
        plan = crossval.make_folds(y, 5, 0)
        probs = [
            crossval.group_priority(
                ClassifierSpec("logreg"), X, y, LabelSpace(("a", "b", "c")), plan
            )[1]
            for X in feats
        ]
        meta_X = stack_meta_features(probs)
        assert meta_X.shape == (60, 6)
        # every row was filled by some fold model
        assert np.all(meta_X.sum(axis=1) > 0)

    def test_out_of_fold_beats_naive_on_noisy_benchmark(self):
        """Over 10 benchmark seeds, leakage-free stacking should match or
        beat the naive variant almost always; the first layer is boosting,
        which memorizes the noise view and feeds the naive meta-learner
        training probabilities that look nothing like test time."""
        spec = ClassifierSpec("adaboost_stumps", seed=0, rounds=60)
        wins = 0
        for seed in range(10):
            train_d, test_d = synthdata.default_benchmark(seed)
            labels = train_d.label_space
            y = train_d.labels
            fitted = []
            for g in train_d.groups:
                s = standardize_fit(g.features)
                X = standardize_apply(s, g.features)
                model = classifiers.train(spec, X, y, labels)
                fitted.append((g.name, s, model, X))
            naive_probs = [model.predict_proba(X) for _, _, model, X in fitted]
            plan = crossval.make_folds(y, 5, seed)
            oof_probs = [
                crossval.group_priority(spec, X, y, labels, plan)[1]
                for _, _, _, X in fitted
            ]
            accs = {}
            for mode, probs in (("naive", naive_probs), ("out_of_fold", oof_probs)):
                strategy = EnsembleStrategy(
                    "stacking", stacking_mode=mode, stacking_meta_spec=spec
                )
                meta = train_stacking(probs, y, strategy, labels)
                e = pipeline.TrainedEnsemble(
                    per_group=tuple(
                        pipeline.GroupModel(name, s, model, 0.5)
                        for name, s, model, _ in fitted
                    ),
                    strategy=strategy,
                    meta=meta,
                    label_space=labels,
                )
                preds = pipeline.predict(e, test_d)
                accs[mode] = float(
                    np.mean([p.decided == t for p, t in zip(preds, test_d.labels)])
                )
            wins += accs["out_of_fold"] >= accs["naive"]
        assert wins >= 7, f"out-of-fold won only {wins}/10 seeds"
