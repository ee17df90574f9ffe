import numpy as np
import pytest

from latefuse.core import (
    GroupView,
    LabelSpace,
    MultiViewDataset,
    SplitSpec,
    Standardizer,
    probability_vector,
    shuffled_classes,
    standardize_apply,
    standardize_fit,
    stratified_split,
)
from latefuse.errors import (
    BadSpec,
    DimensionMismatch,
    EmptyClass,
    InvalidProbabilities,
    MisalignedGroup,
    NonFiniteFeature,
    TooFewSamplesPerClass,
    UnknownLabel,
)

from conftest import make_dataset


class TestLabelSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(BadSpec, match="class_names"):
            LabelSpace(("a", "b", "a"))

    def test_single_class_rejected(self):
        with pytest.raises(BadSpec, match="class_names"):
            LabelSpace(("only",))

    @pytest.mark.parametrize("names", [(0, 1), ("a", None), ("a", ["b"])])
    def test_names_that_are_not_strings_rejected(self, names):
        with pytest.raises(BadSpec, match="is not a string"):
            LabelSpace(names)

    def test_from_names_sorts_lexicographically(self):
        space = LabelSpace.from_names(["zebra", "ant", "mole", "ant"])
        assert space.class_names == ("ant", "mole", "zebra")
        assert space.m == 3
        assert space.index("mole") == 1

    def test_unknown_name(self):
        space = LabelSpace(("a", "b"))
        with pytest.raises(UnknownLabel):
            space.index("c")


class TestValidateDataset:
    """A MultiViewDataset checks every invariant when it is built."""

    def test_valid_dataset_passes(self, rng):
        d = make_dataset(
            [("g0", rng.standard_normal((6, 2))), ("g1", rng.standard_normal((6, 4)))],
            [0, 0, 0, 1, 1, 1],
        )
        assert d.n == 6 and d.labels.dtype == np.int64
        assert d.take([0, 3]).n == 2 and d.subset_groups(["g1"]).group_names == ("g1",)

    def test_no_groups(self):
        with pytest.raises(MisalignedGroup, match="dataset has no feature groups"):
            MultiViewDataset(LabelSpace(("c0", "c1")), np.array([0, 1]), (), ("s0", "s1"))

    def test_misaligned_group(self, rng):
        with pytest.raises(MisalignedGroup, match="'a'"):
            MultiViewDataset(
                label_space=LabelSpace(("c0", "c1")),
                labels=np.array([0, 0, 0, 1, 1, 1]),
                groups=(
                    GroupView("a", rng.standard_normal((5, 2))),
                    GroupView("b", rng.standard_normal((6, 2))),
                ),
                sample_ids=tuple(f"s{i}" for i in range(6)),
            )

    def test_non_finite_feature_reports_address(self, rng):
        feats = rng.standard_normal((6, 3))
        feats[2, 1] = np.nan
        with pytest.raises(NonFiniteFeature, match="group 'g0' at row 2, col 1"):
            make_dataset([("g0", feats)], [0, 0, 0, 1, 1, 1])

    def test_unknown_label_index(self, rng):
        with pytest.raises(UnknownLabel, match="label index 5 outside"):
            MultiViewDataset(
                label_space=LabelSpace(("c0", "c1")),
                labels=np.array([0, 0, 0, 1, 1, 5]),
                groups=(GroupView("a", rng.standard_normal((6, 2))),),
                sample_ids=tuple(f"s{i}" for i in range(6)),
            )

    @pytest.mark.parametrize("labels", [[0.2, 1.9, 0.7, 1.1], [0.0, 1.0, 0.0, 1.0], [False, True, False, True]])
    def test_labels_that_are_not_integers_rejected(self, rng, labels):
        with pytest.raises(UnknownLabel, match="integer"):
            MultiViewDataset(
                label_space=LabelSpace(("c0", "c1")),
                labels=labels,
                groups=(GroupView("a", rng.standard_normal((4, 2))),),
                sample_ids=tuple(f"s{i}" for i in range(4)),
            )

    def test_empty_class(self, rng):
        with pytest.raises(EmptyClass, match="'c2'"):
            MultiViewDataset(
                label_space=LabelSpace(("c0", "c1", "c2")),
                labels=np.array([0, 0, 0, 1, 1, 1]),
                groups=(GroupView("a", rng.standard_normal((6, 2))),),
                sample_ids=tuple(f"s{i}" for i in range(6)),
            )

    def test_duplicate_sample_ids(self, rng):
        with pytest.raises(MisalignedGroup, match="duplicate"):
            MultiViewDataset(
                label_space=LabelSpace(("c0", "c1")),
                labels=np.array([0, 1]),
                groups=(GroupView("a", rng.standard_normal((2, 2))),),
                sample_ids=("same", "same"),
            )

    @pytest.mark.parametrize("ids", [(1, 2, 3, 4), ("a", "b", None, "d"), ("a", "b", "c", b"d")])
    def test_sample_ids_that_are_not_strings_rejected(self, rng, ids):
        with pytest.raises(BadSpec, match="^sample_ids holds .*, which is not a string"):
            MultiViewDataset(
                label_space=LabelSpace(("c0", "c1")),
                labels=np.array([0, 0, 1, 1]),
                groups=(GroupView("a", rng.standard_normal((4, 2))),),
                sample_ids=ids,
            )

    def test_duplicate_group_name(self, rng):
        feats = rng.standard_normal((6, 2))
        with pytest.raises(MisalignedGroup, match="'a'"):
            make_dataset([("a", feats), ("b", feats), ("a", feats)], [0, 0, 0, 1, 1, 1])

    @pytest.mark.parametrize("shape", [(6,), (6, 0), (2, 3, 1)])
    def test_group_that_is_not_a_matrix_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="'a' must be a 2-D matrix"):
            GroupView("a", np.zeros(shape))


class TestFrozenArrays:
    def test_building_leaves_the_callers_arrays_writeable(self):
        X, mean, scale = np.zeros((4, 2)), np.zeros(2), np.ones(2)
        g, s = GroupView("g", X), Standardizer(mean, scale)
        assert X.flags.writeable and mean.flags.writeable and scale.flags.writeable
        X[0, 0] = mean[0] = 5.0
        assert g.features[0, 0] == 0.0 and s.mean[0] == 0.0
        assert not g.features.flags.writeable and not s.mean.flags.writeable
        assert GroupView("h", g.features).features is g.features  # read-only: shared


class TestStratifiedSplit:
    def _population(self, rng, per_class=100, m=2, d=3):
        X = rng.standard_normal((per_class * m, d))
        y = np.repeat(np.arange(m), per_class)
        return make_dataset([("g", X)], y)

    def test_counts_80_20(self, rng):
        d = self._population(rng)
        train, test = stratified_split(d, SplitSpec(80, 20, seed=7))
        assert train.n == 160 and test.n == 40
        for c in range(2):
            assert (train.labels == c).sum() == 80
            assert (test.labels == c).sum() == 20

    def test_disjoint_and_aligned(self, rng):
        d = self._population(rng)
        train, test = stratified_split(d, SplitSpec(80, 20, seed=7))
        assert not set(train.sample_ids) & set(test.sample_ids)
        # row i of the group still describes sample_ids[i]
        original = dict(zip(d.sample_ids, d.groups[0].features))
        for sid, row in zip(train.sample_ids, train.groups[0].features):
            np.testing.assert_array_equal(row, original[sid])

    def test_insufficient_population_names_class(self, rng):
        X = rng.standard_normal((150, 2))
        y = np.array([0] * 100 + [1] * 50)
        d = make_dataset([("g", X)], y, class_names=["big", "small"])
        with pytest.raises(TooFewSamplesPerClass, match="class 'small' has 50 samples, split needs 100"):
            stratified_split(d, SplitSpec(80, 20, seed=0))

    def test_deterministic(self, rng):
        d = self._population(rng)
        t1, e1 = stratified_split(d, SplitSpec(80, 20, seed=3))
        t2, e2 = stratified_split(d, SplitSpec(80, 20, seed=3))
        assert t1.sample_ids == t2.sample_ids
        assert e1.sample_ids == e2.sample_ids

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0, 20, seed=0)


class TestShuffledClasses:
    def test_each_class_is_one_permutation_of_its_members(self):
        y = np.array([2, 0, 1, 0, 2, 2, 0, 1, 4])
        drawn, reference = np.random.default_rng(5), np.random.default_rng(5)
        got = shuffled_classes(y, drawn)
        assert len(got) == 4
        for c, picked in zip([0, 1, 2, 4], got):
            members = np.flatnonzero(y == c)
            np.testing.assert_array_equal(picked, members[reference.permutation(len(members))])
        assert drawn.bit_generator.state == reference.bit_generator.state

    def test_a_class_of_one_sample_draws_nothing(self):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        assert [a.tolist() for a in shuffled_classes(np.array([3, 1]), rng)] == [[1], [0]]
        assert rng.bit_generator.state == before


class TestStandardizer:
    def test_two_point_column(self):
        s = standardize_fit(np.array([[1.0], [3.0]]))
        out = standardize_apply(s, np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_constant_column_maps_to_zero(self):
        s = standardize_fit(np.array([[5.0], [5.0], [5.0]]))
        out = standardize_apply(s, np.array([[5.0], [123.0]]))
        np.testing.assert_array_equal(out, [[0.0], [0.0]])

    def test_constant_column_at_a_large_magnitude_maps_to_zero(self):
        # rounding leaves this column a std of 2.3e-10: noise, not spread
        X = np.column_stack([np.full(360, 1234567.1), np.arange(360.0)])
        s = standardize_fit(X)
        assert s.scale[0] == 0.0 and s.scale[1] > 0.0
        out = standardize_apply(s, [[1234567.2, 0.0], [1234567.1000001, 0.0]])
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])

    @pytest.mark.parametrize("k", [-500, -200, -60, -40, 100, 500])
    def test_power_of_two_units_change_no_z_score(self, rng, k):
        X = rng.standard_normal((30, 4)) * [1.0, 0.5, 4.0, 0.0] + [0.0, 5.0, -7.0, 3.0]
        s = standardize_fit(X)
        assert s.scale[3] == 0.0 and np.all(s.scale[:3] > 0.0)
        scaled = X * 2.0**k
        Z = standardize_apply(standardize_fit(scaled), scaled)
        assert Z.tobytes() == standardize_apply(s, X).tobytes()

    def test_dimension_mismatch(self, rng):
        s = standardize_fit(rng.standard_normal((10, 4)))
        with pytest.raises(DimensionMismatch):
            standardize_apply(s, rng.standard_normal((3, 5)))

    @pytest.mark.parametrize("shape", [(4,), (), (2, 4, 4)])
    def test_only_a_matrix_is_standardized(self, rng, shape):
        s = standardize_fit(rng.standard_normal((10, 4)))
        with pytest.raises(DimensionMismatch, match=r"expects an \(n, 4\) matrix"):
            standardize_apply(s, rng.standard_normal(shape))

    @pytest.mark.parametrize("mean, scale", [(0.0, 1e308), (-1e308, 0.0)], ids=["scale", "offset"])
    def test_overflowing_z_score_names_what_row_and_column(self, mean, scale):
        # an inf, or inf * 0 = NaN for a zeroed column, with no numpy warning
        s = Standardizer(mean=np.array([0.0, mean]), scale=np.array([1.0, scale]))
        X = np.array([[1.0, 1.0], [2.0, 1.7e308]])
        message = r"^group 'g' standardized beyond the float range at row 1, col 1$"
        with pytest.raises(NonFiniteFeature, match=message):
            standardize_apply(s, X, "group 'g'")

    def test_fit_statistics_property(self, rng):
        for _ in range(20):
            X = rng.standard_normal((30, 5)) * rng.uniform(0.1, 50) + rng.uniform(-10, 10)
            Z = standardize_apply(standardize_fit(X), X)
            assert np.all(np.abs(Z.mean(axis=0)) <= 1e-9)
            assert np.all(np.abs(Z.std(axis=0) - 1.0) <= 1e-6)

    def test_apply_uses_training_statistics_only(self, rng):
        X = rng.standard_normal((20, 3))
        s = standardize_fit(X)
        other = rng.standard_normal((5, 3)) + 100
        np.testing.assert_allclose(
            standardize_apply(s, other), (other - X.mean(0)) / X.std(0)
        )

    def test_needs_two_rows(self):
        with pytest.raises(BadSpec, match="train_features"):
            standardize_fit(np.ones((1, 3)))

    def test_fit_reads_features_as_a_group_does(self):
        with pytest.raises(NonFiniteFeature, match="train_features at row 0, col 0"):
            standardize_fit([[np.nan, 1.0], [2.0, 3.0], [1.0, 1.0]])
        with pytest.raises(DimensionMismatch, match="train_features must be a 2-D matrix"):
            standardize_fit(np.ones(3))
        with pytest.raises(NonFiniteFeature, match="column 1 has a mean beyond the float range"):
            standardize_fit([[0.0, 1.7e308], [1.0, 1.7e308], [2.0, 0.0]])
        with pytest.raises(NonFiniteFeature, match="column 0 has a variance beyond the float"):
            standardize_fit([[1.7e308, 0.0], [-1.7e308, 1.0], [1.0, 2.0]])
        with pytest.raises(NonFiniteFeature, match="^group 'a' column 0 has a mean beyond"):
            standardize_fit([[1.7e308], [1.7e308]], "group 'a'")

    @pytest.mark.parametrize(
        "mean,scale,message",
        [
            ([0.0, 0.0], [2.0], r"scale has shape \(1,\), expected \(2,\)"),
            ([[0.0, 0.0]], [[1.0, 1.0]], r"mean has shape \(1, 2\), expected a flat array"),
            ([np.nan, 0.0], [1.0, 1.0], "mean has non-finite entries"),
            ([0.0, 0.0], [1.0, np.inf], "scale has non-finite entries"),
            (0.0, 1.0, r"mean has shape \(\), expected a flat array"),
        ],
        ids=["short_scale", "matrix", "nan_mean", "inf_scale", "scalar"],
    )
    def test_standardizer_checks_its_fields(self, mean, scale, message):
        with pytest.raises(BadSpec, match=message):
            Standardizer(mean=mean, scale=scale)


class TestProbabilityVector:
    def test_valid(self):
        v = probability_vector([0.25, 0.25, 0.5])
        assert not v.flags.writeable
        P = probability_vector([[0.25, 0.25, 0.5], [1.0, 0.0, 0.0]])
        assert P.shape == (2, 3) and not P.flags.writeable

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            probability_vector([1.1, -0.1])
        with pytest.raises(ValueError, match="row 1"):
            probability_vector([[0.5, 0.5], [1.1, -0.1], [1.2, -0.2]])

    def test_sum_tolerance(self):
        probability_vector([0.5, 0.5 + 5e-10])
        probability_vector([[0.5, 0.5], [0.5, 0.5 + 5e-10]])
        with pytest.raises(ValueError):
            probability_vector([0.5, 0.6])
        with pytest.raises(ValueError, match="row 2"):
            probability_vector([[0.5, 0.5], [0.5, 0.5], [0.5, 0.6]])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidProbabilities, match="non-finite"):
            probability_vector([np.nan, 1.0])
        with pytest.raises(InvalidProbabilities, match="row 1.*non-finite"):
            probability_vector([[0.5, 0.5], [np.inf, 0.0]])

    def test_three_dimensional_array_rejected(self):
        with pytest.raises(InvalidProbabilities, match=r"a vector or an \(n, m\) matrix"):
            probability_vector(np.full((2, 2, 2), 0.5))
