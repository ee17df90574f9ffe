import numpy as np
import pytest

from latefuse.classifiers import ClassifierSpec
from latefuse.core import standardize_apply, standardize_fit
from latefuse.crossval import group_priority, make_folds
from latefuse.errors import BadSpec
from latefuse.synthdata import SynthSpec, ViewSpec, default_benchmark, generate


def two_view_spec(seed=0, separation=1.0, informativeness=(0.9, 0.0)):
    return SynthSpec(
        m=4,
        n_per_class=25,
        views=(
            ViewSpec("v0", 6, informativeness[0]),
            ViewSpec("v1", 6, informativeness[1]),
        ),
        separation=separation,
        seed=seed,
    )


class TestGenerate:
    def test_shapes_and_labels(self):
        d = generate(two_view_spec())
        assert d.n == 100
        assert [g.dim for g in d.groups] == [6, 6]
        assert np.bincount(d.labels).tolist() == [25, 25, 25, 25]

    def test_deterministic(self):
        d1 = generate(two_view_spec(seed=5))
        d2 = generate(two_view_spec(seed=5))
        for g1, g2 in zip(d1.groups, d2.groups):
            np.testing.assert_array_equal(g1.features, g2.features)

    def test_zero_informativeness_is_chance_level(self):
        spec = SynthSpec(
            m=4,
            n_per_class=50,
            views=(ViewSpec("noise", 8, 0.0),),
            separation=1.0,
            seed=3,
        )
        d = generate(spec)
        X = standardize_apply(standardize_fit(d.groups[0].features), d.groups[0].features)
        plan = make_folds(d.labels, 5, seed=0)
        priority, _ = group_priority(ClassifierSpec("logreg"), X, d.labels, d.label_space, plan)
        band = 3 * np.sqrt(0.25 * 0.75 / d.n)
        assert abs(priority - 0.25) <= band

    def test_zero_separation_every_view_chance(self):
        spec = SynthSpec(
            m=3,
            n_per_class=60,
            views=(ViewSpec("v", 10, 1.0),),
            separation=0.0,
            seed=2,
        )
        d = generate(spec)
        plan = make_folds(d.labels, 5, seed=0)
        priority, _ = group_priority(
            ClassifierSpec("logreg"), d.groups[0].features, d.labels, d.label_space, plan
        )
        band = 3 * np.sqrt((1 / 3) * (2 / 3) / d.n)
        assert abs(priority - 1 / 3) <= band

    def test_cross_view_noise_uncorrelated(self):
        spec = SynthSpec(
            m=2,
            n_per_class=5000,
            views=(ViewSpec("a", 4, 0.0), ViewSpec("b", 4, 0.0)),
            separation=1.0,
            seed=7,
        )
        d = generate(spec)
        A, B = d.groups[0].features, d.groups[1].features
        corr = np.corrcoef(A.T, B.T)[:4, 4:]
        assert np.abs(corr).max() < 0.05

    def test_bad_specs_rejected(self):
        with pytest.raises(BadSpec):
            SynthSpec(m=1, n_per_class=5, views=(ViewSpec("v", 2, 0.5),))
        with pytest.raises(BadSpec):
            ViewSpec("v", 2, 1.5)
        with pytest.raises(BadSpec):
            ViewSpec("v", 0, 0.5)
        with pytest.raises(BadSpec):
            SynthSpec(m=2, n_per_class=5, views=(ViewSpec("v", 2, 0.5),), separation=-1)

    def test_view_names_must_be_unique(self):
        with pytest.raises(BadSpec, match="views must have unique names"):
            SynthSpec(m=2, n_per_class=5, views=(ViewSpec("v", 2, 0.5), ViewSpec("v", 3, 0.0)))


class TestDefaultBenchmark:
    def test_shapes(self):
        train, test = default_benchmark(0)
        assert train.n == 360 and test.n == 120
        assert train.group_names == ("informative_a", "informative_b", "weak", "noise")
        assert all(g.dim == 20 for g in train.groups)
        assert train.label_space.m == 6

    def test_noise_view_has_large_scale(self):
        train, _ = default_benchmark(1)
        noise_std = train.group("noise").features.std()
        other_std = train.group("informative_a").features.std()
        assert noise_std > 20 * other_std

    def test_split_disjoint(self):
        train, test = default_benchmark(2)
        assert not set(train.sample_ids) & set(test.sample_ids)

    def test_deterministic(self):
        t1, e1 = default_benchmark(4)
        t2, e2 = default_benchmark(4)
        np.testing.assert_array_equal(t1.groups[0].features, t2.groups[0].features)
        assert e1.sample_ids == e2.sample_ids
