"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The benchmark sweeps are computed once per session and shared; everything is
single-process and deterministic.
"""

import json
import time

import numpy as np
import pytest

import latefuse as lf
from latefuse import classifiers, crossval, synthdata
from latefuse.classifiers import ClassifierSpec
from latefuse.cli import main as cli_main
from latefuse.core import LabelSpace
from latefuse.ensemble import (
    EnsembleStrategy,
    assign_ranks,
    confidence_sum,
    decide,
    rank_sum,
)

from conftest import cross_val_accuracy, gaussian_blobs
from test_ensemble import oracle_combine, oracle_decide, oracle_ranks

SEEDS = list(range(10))
NESTED = [
    ["informative_a"],
    ["informative_a", "informative_b"],
    ["informative_a", "informative_b", "weak"],
    ["informative_a", "informative_b", "weak", "noise"],
]

_module_t0 = None


@pytest.fixture(scope="module", autouse=True)
def _start_clock():
    global _module_t0
    _module_t0 = time.monotonic()


def _criterion(num, ok, desc):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def logreg_sweep():
    """Per-seed strategy table, ablation curve, and noise priority with the
    reference linear classifier."""
    spec = ClassifierSpec("logreg", seed=0)
    weighted = EnsembleStrategy("confidence_sum", weighted=True)
    out = []
    for seed in SEEDS:
        train, test = synthdata.default_benchmark(seed)
        rows = dict(lf.compare_strategies(train, test, spec, 5, seed))
        rep = lf.ablate(train, test, spec, [weighted], NESTED, 5, seed)
        curve = [acc for _, _, acc in rep.entries]
        e = lf.train_ensemble(train, spec, weighted, 5, seed)
        priorities = dict(zip(e.group_names, e.priority_values))
        out.append({"rows": rows, "curve": curve, "priorities": priorities})
    return out


@pytest.fixture(scope="module")
def boosting_sweep():
    """Per-seed strategy table plus the concatenation baseline, using the
    overfitting-prone boosted-stump classifier that exposes the two-layer
    and concatenation pathologies."""
    spec = ClassifierSpec("adaboost_stumps", seed=0, rounds=60)
    out = []
    for seed in SEEDS:
        train, test = synthdata.default_benchmark(seed)
        rows = dict(lf.compare_strategies(train, test, spec, 5, seed))
        concat = lf.train_concat_baseline(train, spec)
        concat_acc = float((concat.predict(test) == test.labels).mean())
        out.append({"rows": rows, "concat": concat_acc})
    return out


class TestCriterion1Invariants:
    def test_invariant_suite(self, tmp_path):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        labels3 = LabelSpace(("a", "b", "c"))

        # probability simplex for every classifier kind on random inputs
        X, y = gaussian_blobs(rng, 12, [[0, 0], [3, 0], [0, 3]])
        specs = [
            ClassifierSpec("logreg"),
            ClassifierSpec("linear_svm_ovr", c_grid=(1.0,)),
            ClassifierSpec("adaboost_stumps", rounds=10),
            ClassifierSpec("random_forest", trees=10),
        ]
        models = [classifiers.train(s, X, y, labels3) for s in specs]
        probes = rng.standard_normal((200, 2)) * 5
        for model in models:
            P = model.predict_proba(probes)
            assert np.all(P >= 0) and np.all(np.abs(P.sum(axis=1) - 1) <= 1e-9)

        # rank conservation
        for _ in range(500):
            m = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(m))
            if rng.random() < 0.5:
                p = np.round(p, 1)
            assert assign_ranks(p).sum() == m * (m + 1) / 2

        # argmax invariance under uniform and positively-scaled priorities
        for _ in range(300):
            g = int(rng.integers(1, 6))
            m = int(rng.integers(2, 7))
            probs = [rng.dirichlet(np.ones(m)) for _ in range(g)]
            w = rng.uniform(0.1, 2.0, size=g).tolist()
            c = float(2.0 ** rng.integers(-5, 6))
            assert decide(confidence_sum(probs, [c] * g, True)) == decide(
                confidence_sum(probs, [], False)
            )
            assert decide(rank_sum(probs, [c * v for v in w], True)) == decide(
                rank_sum(probs, w, True)
            )

        # single-group degeneracy across the four summation strategies
        for _ in range(200):
            m = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(m))
            target = int(np.argmax(p))
            for kind in ("confidence_sum", "rank_sum"):
                fn = confidence_sum if kind == "confidence_sum" else rank_sum
                assert decide(fn([p], [], False)) == target
                assert decide(fn([p], [0.7], True)) == target

        # persistence round-trip exactness for every kind and strategy
        Xa, ya = gaussian_blobs(rng, 10, [[0, 0], [4, 0], [0, 4]])
        Xb = rng.standard_normal((30, 3))
        from conftest import make_dataset

        d = make_dataset([("s", Xa), ("n", Xb)], ya)
        probe = make_dataset(
            [("s", rng.standard_normal((8, 2))), ("n", rng.standard_normal((8, 3)))],
            [0, 0, 0, 1, 1, 1, 2, 2],
        )
        strategies = [
            EnsembleStrategy("confidence_sum"),
            EnsembleStrategy("confidence_sum", weighted=True),
            EnsembleStrategy("rank_sum"),
            EnsembleStrategy("rank_sum", weighted=True),
            EnsembleStrategy("stacking", stacking_mode="naive",
                             stacking_meta_spec=ClassifierSpec("logreg")),
            EnsembleStrategy("stacking", stacking_mode="out_of_fold",
                             stacking_meta_spec=ClassifierSpec("logreg")),
        ]
        for i, spec in enumerate(specs):
            for j, strategy in enumerate(strategies):
                e = lf.train_ensemble(d, spec, strategy, 3, 0)
                path = tmp_path / f"m{i}{j}.json"
                lf.save_ensemble(e, str(path))
                loaded = lf.load_ensemble(str(path))
                for a, b in zip(lf.predict(e, probe), lf.predict(loaded, probe)):
                    np.testing.assert_array_equal(a.scores, b.scores)
                    assert a.decided == b.decided

        elapsed = time.monotonic() - t0
        _criterion(1, elapsed < 30.0, f"invariant suite green in {elapsed:.1f}s (< 30s)")


class TestCriterion2OracleEquivalence:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            g = int(rng.integers(1, 6))
            m = int(rng.integers(2, 7))
            probs = []
            for _ in range(g):
                p = rng.dirichlet(np.ones(m))
                if rng.random() < 0.3:
                    p = np.round(p, 1)
                    p[-1] = 1.0 - p[:-1].sum()
                    if np.any(p < 0):
                        p = np.full(m, 1.0 / m)
                probs.append(p)
            w = rng.uniform(0.0, 2.0, size=g)
            if w.sum() == 0:
                w[0] = 1.0
            w = w.tolist()
            for p in probs:
                np.testing.assert_array_equal(assign_ranks(p), oracle_ranks(p.tolist()))
            for weighted in (False, True):
                ww = w if weighted else [1.0] * g
                got = confidence_sum(probs, w, weighted)
                want = oracle_combine([p.tolist() for p in probs], ww)
                np.testing.assert_array_equal(got, want)
                assert decide(got) == oracle_decide(want)
                got_r = rank_sum(probs, w, weighted)
                want_r = oracle_combine([oracle_ranks(p.tolist()) for p in probs], ww)
                np.testing.assert_array_equal(got_r, want_r)
                assert decide(got_r) == oracle_decide(want_r)
        _criterion(2, True, "combination rules match brute force on 1000 instances")


class TestCriterion3GradientCheck:
    def test_hundred_instances(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 6))
            m = int(rng.integers(2, 5))
            X = rng.standard_normal((n, d))
            y = rng.integers(0, m, size=n)
            W = rng.standard_normal((d, m))
            lam = float(rng.uniform(0, 0.5))
            _, grad = classifiers.logreg_loss_grad(W, X, y, lam)
            h = 1e-5
            num = np.zeros_like(W)
            for i in range(d):
                for j in range(m):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    num[i, j] = (
                        classifiers.logreg_loss_grad(Wp, X, y, lam)[0]
                        - classifiers.logreg_loss_grad(Wm, X, y, lam)[0]
                    ) / (2 * h)
            worst = max(worst, float(np.abs(grad - num).max()))
        _criterion(3, worst <= 1e-5, f"max gradient error {worst:.2e} (<= 1e-5)")


class TestCriterion4WeightingHelps:
    def test_weighted_vs_unweighted(self, logreg_sweep):
        conf = sum(
            s["rows"]["confidence_sum_weighted"] >= s["rows"]["confidence_sum"]
            for s in logreg_sweep
        )
        rank = sum(
            s["rows"]["rank_sum_weighted"] >= s["rows"]["rank_sum"]
            for s in logreg_sweep
        )
        _criterion(
            4,
            conf >= 8 and rank >= 8,
            f"weighted >= unweighted: confidence {conf}/10, rank {rank}/10 (need >= 8)",
        )


class TestCriterion5StackingPathology:
    def test_naive_stacking_ranks_last(self, boosting_sweep):
        last = 0
        for s in boosting_sweep:
            rows = s["rows"]
            others = min(v for k, v in rows.items() if k != "stacking_naive")
            last += rows["stacking_naive"] <= others
        _criterion(5, last >= 6, f"naive stacking last in {last}/10 seeds (need >= 6)")


class TestCriterion6MoreGroupsHelp:
    def test_nested_subset_trend(self, logreg_sweep):
        curves = np.array([s["curve"] for s in logreg_sweep])
        means = curves.mean(axis=0)
        diffs = np.diff(means)
        ok = bool(np.all(diffs >= -0.02))
        _criterion(
            6,
            ok,
            "mean accuracy across nested subsets "
            f"{[round(float(v), 4) for v in means]} non-decreasing within -0.02",
        )


class TestCriterion7ConcatLoses:
    def test_concat_below_weighted_fusion(self, boosting_sweep):
        wins = sum(
            s["concat"] < s["rows"]["confidence_sum_weighted"] for s in boosting_sweep
        )
        _criterion(7, wins >= 8, f"concat < weighted fusion in {wins}/10 seeds (need >= 8)")


class TestCriterion8PriorityCalibration:
    def test_noise_priority_chance_band(self, logreg_sweep):
        n, m = 360, 6
        band = 3 * np.sqrt((1 / m) * (1 - 1 / m) / n)
        values = [s["priorities"]["noise"] for s in logreg_sweep]
        ok = all(abs(v - 1 / m) <= band for v in values)
        _criterion(
            8,
            ok,
            f"noise priorities {[round(v, 3) for v in values]} all within 1/6 +- {band:.4f}",
        )

    def test_constant_predictor_priority(self, rng):
        y = np.array([0] * 140 + [1] * 60)
        X = rng.standard_normal((200, 3))

        def constant_trainer(X_tr, y_tr):
            return lambda X_te: np.zeros(len(X_te), dtype=int)

        plan = crossval.make_folds(y, 5, seed=0)
        value = cross_val_accuracy(constant_trainer, X, y, plan)
        assert value == pytest.approx(0.70, abs=0.02)


class TestCriterion9EndToEndDeterminism:
    def test_bit_identical_prediction_files(self, tmp_path):
        spec_path = tmp_path / "synth.json"
        spec_path.write_text(json.dumps({"benchmark": "default", "seed": 11}))
        outputs = []
        for run in ("r1", "r2"):
            d = tmp_path / run
            assert cli_main(["gen-data", "--spec", str(spec_path), "--out", str(d / "data")]) == 0
            groups = [
                {"name": n, "path": str(d / f"data/train/{n}.csv")}
                for n in ("informative_a", "informative_b", "weak", "noise")
            ]
            tgroups = [
                {"name": n, "path": str(d / f"data/test/{n}.csv")}
                for n in ("informative_a", "informative_b", "weak", "noise")
            ]
            cfg = {
                "classifier": {"kind": "logreg", "seed": 0},
                "strategy": {"kind": "confidence_sum", "weighted": True},
                "k": 5,
                "seed": 11,
                "data": {"labels": str(d / "data/train/labels.csv"), "groups": groups},
                "model": str(d / "model.json"),
            }
            cfg_path = d / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli_main(["train", "--config", str(cfg_path)]) == 0
            pcfg = {"data": {"groups": tgroups}}
            pcfg_path = d / "pcfg.json"
            pcfg_path.write_text(json.dumps(pcfg))
            preds = d / "preds.csv"
            assert cli_main(["predict", "--model", str(d / "model.json"),
                             "--config", str(pcfg_path), "--out", str(preds)]) == 0
            assert cli_main(["evaluate", "--predictions", str(preds),
                             "--labels", str(d / "data/test/labels.csv")]) == 0
            outputs.append(preds.read_bytes())
        _criterion(9, outputs[0] == outputs[1], "two full CLI runs produced bit-identical predictions")


class TestCriterion10Runtime:
    def test_total_runtime(self, logreg_sweep, boosting_sweep):
        elapsed = time.monotonic() - _module_t0
        _criterion(10, elapsed < 120.0, f"acceptance run took {elapsed:.1f}s (< 120s)")
