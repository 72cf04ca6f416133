"""Split protocol, error experiments, CMC/ROC/EER, per-feature maps."""

import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarface import (
    DFTConfig,
    FeatureVector,
    SplitSpec,
    cmc,
    dft_feature_columns,
    dft_operator,
    dissimilarity_matrix,
    embedding_matrix,
    equal_error_rate,
    per_feature_error_rates,
    random_split,
    run_error_experiment,
    score_matrix,
    verification_pairs,
    verification_roc,
)
from polarface import evaluate
from polarface.errors import ConfigError, DomainError
from polarface.evaluate import csv_text, sem_value

from helpers import feature_table
from oracles import (
    cmc_loop,
    distances_to,
    nearest_neighbor_single_feature,
    per_feature_error_rates_broadcast,
    per_split_embedding,
    per_split_posteriors,
    per_split_rep_errors,
    random_split_ids,
    roc_loop,
)


def toy_entries(n_subjects=4, per_subject=8):
    return [
        (f"s{s}/{k}", f"s{s}")
        for s in range(n_subjects)
        for k in range(per_subject)
    ]


def separable_features(entries, dim=6, spread=8.0, noise=0.1, seed=0):
    """(n_images, dim) values, rows aligned with entries."""
    rng = np.random.default_rng(seed)
    subjects = sorted({s for _, s in entries})
    centers = {s: spread * i + rng.normal(size=dim) for i, s in enumerate(subjects)}
    return np.array([centers[s] + rng.normal(scale=noise, size=dim) for _, s in entries])


def distances(entries, values):
    """The one dissimilarity matrix of a value table."""
    vectors = [FeatureVector(row, f"toy-{values.shape[1]}") for row in values]
    return dissimilarity_matrix(feature_table([i for i, _ in entries], vectors))


def oracle_distances(values):
    """The matrix of the per-split oracles' own distances, one row at a
    time: these tests check slicing and scoring, not the kernel."""
    return np.array([distances_to(values, row) for row in values])


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(k_train=0)
    with pytest.raises(ConfigError):
        SplitSpec(repetitions=0)
    with pytest.raises(ConfigError):
        SplitSpec(seed=-1)
    with pytest.raises(ConfigError):
        SplitSpec(n_subjects=1)


def test_split_structure():
    entries = toy_entries()[::-1]  # rows out of canonical order
    split = random_split(entries, SplitSpec(k_train=3, repetitions=2, seed=5))
    ids = [entries[r][0] for r in split.rows]
    assert ids == sorted(i for i, _ in entries)  # canonical: sorted subject, then id
    assert split.subjects.tolist() == [entries[r][1] for r in split.rows]
    assert split.train.shape == (2, 32) and split.train.dtype == bool
    for train in split.train:
        assert np.count_nonzero(train) == 4 * 3
        for subject in ("s0", "s1", "s2", "s3"):
            assert np.count_nonzero(train[split.subjects == subject]) == 3


def test_split_determinism_and_rep_variation():
    entries = toy_entries()
    spec = SplitSpec(k_train=4, repetitions=3, seed=9)
    a, b = random_split(entries, spec), random_split(entries, spec)
    assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("rows", "subjects", "train"))
    assert not np.array_equal(a.train[0], a.train[1])
    assert not np.array_equal(a.train[0], random_split(entries, replace(spec, seed=10)).train[0])


def test_split_subject_cap():
    entries = toy_entries(n_subjects=6)
    split = random_split(entries, SplitSpec(k_train=2, n_subjects=3, repetitions=1))
    assert set(split.subjects) == {"s0", "s1", "s2"}  # sorted order, first three
    assert {entries[r][1] for r in split.rows} == {"s0", "s1", "s2"}


def test_split_needs_spare_images():
    entries = toy_entries(per_subject=3)
    with pytest.raises(ConfigError):
        random_split(entries, SplitSpec(k_train=3))
    with pytest.raises(ConfigError):
        random_split(entries, SplitSpec(k_train=1, n_subjects=5))


def test_sem_against_stdlib():
    values = [3.0, 4.5, 1.0, 2.25, 7.75]
    want = statistics.stdev(values) / len(values) ** 0.5
    assert sem_value(np.array(values)) == pytest.approx(want, abs=1e-12)


@given(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=12))
@settings(max_examples=40)
def test_sem_two_pass_cross_check(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    want = (var / len(values)) ** 0.5
    assert sem_value(np.array(values)) == pytest.approx(want, abs=1e-12 * (1 + want))


def test_error_experiment_on_separable_data():
    entries = toy_entries()
    features = separable_features(entries)
    spec = SplitSpec(k_train=4, repetitions=5, seed=1)
    errors = run_error_experiment(random_split(entries, spec), [distances(entries, features)])
    assert errors.mean() == 0.0
    assert sem_value(errors) == 0.0
    assert errors.shape == (5,)


def test_error_experiment_is_deterministic():
    entries = toy_entries()
    features = separable_features(entries, spread=0.5, noise=0.4)  # overlapping
    spec = SplitSpec(k_train=3, repetitions=4, seed=2)
    D = [distances(entries, features)]
    r1 = run_error_experiment(random_split(entries, spec), D)
    r2 = run_error_experiment(random_split(entries, spec), D)
    assert np.array_equal(r1, r2)
    assert 0.0 <= r1.mean() <= 100.0


def test_cmc_hand_example():
    labels = ("a", "b", "c")
    scores = np.array(
        [
            [0.9, 0.05, 0.05],  # a at rank 1
            [0.4, 0.5, 0.1],    # a at rank 2
            [0.2, 0.3, 0.5],    # a at rank 3
        ]
    )
    curve = cmc(scores, ["a", "a", "a"], labels)
    assert np.allclose(curve.proportions, [1 / 3, 2 / 3, 1.0])
    assert np.array_equal(curve.ranks, [1, 2, 3])


def test_cmc_all_tied_scores_take_worst_rank():
    labels = ("a", "b", "c", "d")
    scores = np.full((4, 4), 0.25)
    curve = cmc(scores, ["a", "b", "c", "d"], labels)
    assert np.allclose(curve.proportions, [0.0, 0.0, 0.0, 1.0])


def test_cmc_monotone_and_bounded():
    rng = np.random.default_rng(0)
    labels = tuple(f"s{i}" for i in range(6))
    scores = rng.uniform(size=(40, 6))
    truths = [labels[i % 6] for i in range(40)]
    curve = cmc(scores, truths, labels)
    assert np.all(np.diff(curve.proportions) >= 0.0)
    assert curve.proportions[-1] == 1.0
    assert np.all((curve.proportions >= 0.0) & (curve.proportions <= 1.0))


def test_cmc_alignment_errors():
    with pytest.raises(ConfigError):
        cmc(np.zeros((2, 3)), ["a"], ("a", "b", "c"))
    with pytest.raises(DomainError):
        cmc(np.zeros((1, 2)), ["zz"], ("a", "b"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cmc_and_roc_refuse_non_finite_scores(bad):
    # a NaN true-subject score once ranked 0 and was counted at the last rank
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    scores[1, 1] = bad
    with pytest.raises(DomainError, match="finite"):
        cmc(scores, ["a", "b"], ("a", "b"))
    with pytest.raises(DomainError, match="finite"):
        verification_roc(scores[0], scores[1])


@st.composite
def tied_score_cases(draw):
    """An integer-valued score matrix, so ties are common, with the
    probes' true subjects."""
    n_probes, n_classes = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    labels = tuple(f"s{j}" for j in range(n_classes))
    cells = st.integers(-3, 3).map(float)
    scores = np.array(draw(st.lists(st.lists(cells, min_size=n_classes, max_size=n_classes),
                                    min_size=n_probes, max_size=n_probes)))
    truths = draw(st.lists(st.sampled_from(labels), min_size=n_probes, max_size=n_probes))
    return scores, truths, labels


@given(tied_score_cases())
@settings(max_examples=200, deadline=None)
def test_cmc_and_roc_equal_their_loop_oracles_under_ties(case):
    scores, truths, labels = case
    assert np.array_equal(cmc(scores, truths, labels).proportions, cmc_loop(scores, truths, labels))
    genuine, impostor = verification_pairs(scores, truths, labels)
    for orientation in ("distance", "similarity"):
        roc = verification_roc(genuine, impostor, orientation)
        want = roc_loop(genuine, impostor, orientation)
        assert all(np.array_equal(a, b) for a, b in zip((roc.thresholds, roc.p_verify, roc.p_false_alarm), want))


def test_verification_pairs_counts_and_orientation():
    # claims are split as given, in either orientation
    labels = ("a", "b", "c")
    scores = np.array([[0.7, 0.2, 0.1], [0.3, 0.6, 0.1]])
    for claims in (1.0 - scores, scores):
        genuine, impostor = verification_pairs(claims, ["a", "b"], labels)
        assert np.array_equal(genuine, claims[[0, 1], [0, 1]])
        assert np.array_equal(impostor, claims[[0, 0, 1, 1], [1, 2, 0, 2]])
    with pytest.raises(ConfigError):
        verification_roc(*verification_pairs(scores, ["a", "b"], labels), "sideways")


def test_verification_pairs_alignment_errors():
    labels = ("a", "b")
    with pytest.raises(ConfigError):  # a second probe row without a truth
        verification_pairs(np.zeros((2, 2)), ["a"], labels)
    with pytest.raises(ConfigError):
        verification_pairs(np.zeros((1, 3)), ["a"], labels)
    with pytest.raises(DomainError):
        verification_pairs(np.zeros((1, 2)), ["zz"], labels)


def test_roc_monotonicity_and_endpoints():
    rng = np.random.default_rng(4)
    genuine = rng.normal(0.3, 0.1, size=200)
    impostor = rng.normal(0.7, 0.1, size=400)
    roc = verification_roc(genuine, impostor, "distance")
    assert roc.thresholds.shape == (100,)
    assert np.all(np.diff(roc.p_verify) >= 0.0)
    assert np.all(np.diff(roc.p_false_alarm) >= 0.0)
    assert roc.p_verify[-1] == 1.0 and roc.p_false_alarm[-1] == 1.0


def test_roc_separated_scores_reach_zero_eer():
    roc = verification_roc(np.zeros(50), np.ones(50), "distance")
    eer = equal_error_rate(roc)
    assert eer.eer == 0.0
    assert eer.threshold_low <= eer.threshold_high


def test_eer_identical_distributions_is_half():
    rng = np.random.default_rng(8)
    pool = rng.uniform(size=2000)
    roc = verification_roc(pool[:1000], pool[1000:], "distance")
    eer = equal_error_rate(roc)
    step = roc.thresholds[1] - roc.thresholds[0]
    # 0.5 within one threshold step's worth of probability mass
    assert abs(eer.eer - 0.5) < 0.05
    assert eer.threshold_high - eer.threshold_low <= step + 1e-12


def test_eer_orientation_agreement():
    rng = np.random.default_rng(12)
    genuine = rng.normal(0.35, 0.12, size=300).clip(0, 1)
    impostor = rng.normal(0.6, 0.12, size=300).clip(0, 1)
    eer_d = equal_error_rate(verification_roc(genuine, impostor, "distance"))
    eer_s = equal_error_rate(verification_roc(1.0 - genuine, 1.0 - impostor, "similarity"))
    assert eer_d.eer == pytest.approx(eer_s.eer, abs=0.02)


def test_roc_empty_subset_rejected():
    with pytest.raises(DomainError):
        verification_roc(np.array([]), np.ones(3), "distance")


def test_per_feature_error_rates_informative_vs_constant():
    entries = toy_entries(n_subjects=2, per_subject=6)
    n = len(entries)
    subject_idx = np.array([0 if s == "s0" else 1 for _, s in entries], dtype=float)
    values = np.zeros((n, 2))
    values[:, 0] = subject_idx  # perfectly informative
    values[:, 1] = 7.0          # constant: ties, chance level
    spec = SplitSpec(k_train=3, repetitions=4, seed=3)
    errors = per_feature_error_rates(entries, values, random_split(entries, spec))
    assert errors[0] == 0.0
    assert errors[1] == pytest.approx(50.0)  # 1 - 1/L with L=2 balanced


def test_per_feature_chunking_matches_direct():
    # 70 features span three 32-wide blocks; compare with per-column calls
    rng = np.random.default_rng(6)
    entries = toy_entries(n_subjects=3, per_subject=4)
    values = rng.normal(size=(len(entries), 70))
    spec = SplitSpec(k_train=2, repetitions=2, seed=0)
    full = per_feature_error_rates(entries, values, random_split(entries, spec))
    for col in (0, 31, 32, 33, 63, 64, 69):
        single = per_feature_error_rates(entries, values[:, [col]], random_split(entries, spec))
        assert full[col] == pytest.approx(single[0], abs=1e-12)


def test_per_feature_error_rates_match_single_feature_oracle():
    # small integers make many exact ties, which the lowest training
    # index must break in both implementations
    rng = np.random.default_rng(9)
    entries = toy_entries(n_subjects=4, per_subject=5)
    values = rng.integers(0, 4, size=(len(entries), 7)).astype(float)
    spec = SplitSpec(k_train=2, repetitions=3, seed=1)
    got = per_feature_error_rates(entries, values, random_split(entries, spec))
    row_of = {image_id: r for r, (image_id, _) in enumerate(entries)}
    subject_of = dict(entries)
    want = np.zeros(values.shape[1])
    for rep in range(spec.repetitions):
        train_ids, test_ids = random_split_ids(entries, spec, rep)
        train = [FeatureVector(values[row_of[i]], "toy") for i in train_ids]
        labels = [subject_of[i] for i in train_ids]
        for f in range(values.shape[1]):
            wrong = sum(
                nearest_neighbor_single_feature(
                    train, labels, FeatureVector(values[row_of[p]], "toy"), f
                ) != subject_of[p]
                for p in test_ids
            )
            want[f] += 100.0 * wrong / len(test_ids)
    assert np.allclose(got, want / spec.repetitions, rtol=0.0, atol=1e-12)


# Value pools whose columns are full of exact ties: duplicates,
# equidistant neighbours, and gaps to different train values that round
# to the same float (1e3 - 1e-14 == 1e3 - 2e-14; 1e16 - 0.5 == 1e16 - 1).
TIE_POOLS = (
    (0.0, 1.0, 2.0, 3.0),
    (1e3, 1e-14, 2e-14, 3e-14, -1e-14, 0.0),
    (1e16, 1e16 + 2, 1e16 + 4, 1e16 - 2, 0.5, 1.0, 2.0),
    (5e-324, 1e-323, 1.5e-323, 0.0, -5e-324, 1e-310),
    (-1e300, 1e300, 1e-300, 0.0),
)
# Each scale x with s = np.spacing(2 max|v|) of its pools: near 1.0, near
# 1e16 and in the subnormals, where subtraction is exact.
SPACING_SCALES = ((1.0 + 2.0**-52, 2.0**-51), (1e16 + 2.0, 4.0), (1e-310, 5e-324))
# Values k spacings apart, k = 1, 2, 4, 5 and 8: a row of distinct values
# from such a pool is certified for the two-neighbour rule from k = 5 on.
# The mirror values half a spacing beyond -x have gaps across zero that
# differ by k s exactly, so at k = 1 two of them can round to one float.
TIE_POOLS += tuple(
    tuple(x + j * k * s for j in range(20)) + tuple(-(x + s / 2) - j * k * s for j in range(20))
    for x, s in SPACING_SCALES
    for k in (1, 2, 4, 5, 8)
)


@st.composite
def feature_map_cases(draw):
    n_subjects = draw(st.integers(2, 5))
    k_train = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(k_train + 1, k_train + 4), min_size=n_subjects, max_size=n_subjects))
    entries = [(f"s{s}/{k}", f"s{s}") for s in range(n_subjects) for k in range(sizes[s])]
    entries = draw(st.permutations(entries))  # not in canonical order
    cap = draw(st.one_of(st.none(), st.integers(2, n_subjects)))
    spec = SplitSpec(k_train=k_train, n_subjects=cap, repetitions=draw(st.integers(1, 3)),
                     seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 70))
    columns = []
    for _ in range(n_features):
        pool = draw(st.one_of(st.none(), st.sampled_from(TIE_POOLS)))
        if pool is None:
            columns.append(rng.normal(size=len(entries)))
        else:
            columns.append(rng.choice(pool, size=len(entries)))
    return entries, np.stack(columns, axis=1), spec


@given(feature_map_cases())
@settings(max_examples=150, deadline=None)
def test_per_feature_error_rates_equal_broadcast_oracle(case):
    entries, values, spec = case
    got = per_feature_error_rates(entries, values, random_split(entries, spec))
    assert np.array_equal(got, per_feature_error_rates_broadcast(entries, values, spec))


def test_stored_dft_columns_gather_to_the_full_feature_map():
    # each conjugate pair's column is answered once and read back for both cells
    rng = np.random.default_rng(9)
    entries = [(f"s{s}/{k}", f"s{s}") for s in range(4) for k in range(5)]
    images = rng.uniform(0.0, 255.0, size=(4, 1, 24, 24)) + rng.normal(0.0, 20.0, size=(4, 5, 24, 24))
    stored = dft_operator((24, 24), DFTConfig(11.0))(images.reshape(20, 24, 24))
    columns = dft_feature_columns(11.0)
    spec = SplitSpec(k_train=2, repetitions=3, seed=5)
    got = per_feature_error_rates(entries, stored, random_split(entries, spec))[columns]
    assert got.size == 377 and len(set(got.tolist())) > 1
    assert np.array_equal(got, per_feature_error_rates_broadcast(entries, stored[:, columns], spec))


def test_per_feature_error_rates_rounding_ties_take_lowest_index():
    # a probe of 1e3 is 1e3 away from both train values once rounded, so
    # the lower training index (s0/0, value 1e-14) wins, not the nearer
    # value 2e-14
    entries = [("s0/0", "s0"), ("s0/1", "s0"), ("s1/0", "s1"), ("s1/1", "s1")]
    values = np.array([[1e-14], [1e3], [2e-14], [5.0]])
    spec = SplitSpec(k_train=1, repetitions=4, seed=0)
    got = per_feature_error_rates(entries, values, random_split(entries, spec))
    # reps 0 and 1 train on s0/0 and s1/0 (0% wrong), rep 2 on s0/0 and
    # s1/1 (100%), rep 3 on s0/1 and s1/0 (50%)
    assert got[0] == 37.5
    assert np.array_equal(got, per_feature_error_rates_broadcast(entries, values, spec))


def test_per_feature_error_rates_resolve_ties_at_the_probes_flat_position():
    # the rounding tie above, in the second feature of a block: in reps 0
    # and 1 the tied probe 1e3 is the block's probe 3 but sits at flat
    # position 7, after two train values, and its direct argmin must read
    # that position; position 3 holds the s1 probe of the first feature
    entries = [("s0/0", "s0"), ("s0/1", "s0"), ("s1/0", "s1"), ("s1/1", "s1")]
    values = np.array([[0.0, 1e-14], [1.0, 1e3], [2.0, 2e-14], [3.0, 5.0]])
    spec = SplitSpec(k_train=1, repetitions=4, seed=0)
    got = per_feature_error_rates(entries, values, random_split(entries, spec))
    assert got[1] == 37.5
    assert np.array_equal(got, per_feature_error_rates_broadcast(entries, values, spec))


def test_per_feature_error_rates_certificate_margin():
    # one column per spacing count k: the probe -(x + s / 2) is k s + s / 2
    # nearer to x (s1/0) than to x + k s (s0/0).  At k = 1 both gaps round
    # to one float away from the subnormals, so the lower index, s0/0, wins;
    # only the margin keeps that row from the two-neighbour rule, which
    # sees x alone.  From k = 5 on the rows are certified.
    entries = [("s0/0", "s0"), ("s0/1", "s0"), ("s1/0", "s1"), ("s1/1", "s1")]
    spec = SplitSpec(k_train=1, repetitions=4, seed=0)
    for x, s in SPACING_SCALES:
        values = np.array([[x + k * s, -(x + s / 2), x, x + (k + 8) * s] for k in (1, 2, 4, 5, 8)]).T
        got = per_feature_error_rates(entries, values, random_split(entries, spec))
        assert np.array_equal(got, per_feature_error_rates_broadcast(entries, values, spec))
        if s > 5e-324:
            # reps 0 and 1 train on s0/0 and s1/0: the s0 probe is right
            # through the rounding tie and the s1 probe wrong (50%), as in
            # reps 2 and 3; the two-neighbour rule would give 75
            assert got[0] == 50.0


def test_per_feature_error_rates_repeated_and_signed_zero_values():
    # a row of distinct values but for one repeated pair, and a row of
    # 0.0 and -0.0 among other values: neither is certified
    entries = toy_entries(n_subjects=4, per_subject=5)
    rng = np.random.default_rng(4)
    values = rng.normal(size=(len(entries), 3))
    values[12, 0] = values[5, 0]
    values[:, 1] = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], size=len(entries))
    values[:, 2] = rng.choice([0.0, -0.0], size=len(entries))
    spec = SplitSpec(k_train=2, repetitions=3, seed=2)
    got = per_feature_error_rates(entries, values, random_split(entries, spec))
    assert np.array_equal(got, per_feature_error_rates_broadcast(entries, values, spec))


@pytest.mark.parametrize("cells", [1, 40, 200])
def test_per_feature_direct_argmin_in_chunks(monkeypatch, cells):
    # 8 train and 12 probe values per row, all rows full of ties: chunks of
    # one probe, of 5 probes (5, 5, 2) and of two whole rows (2, 1)
    monkeypatch.setattr(evaluate, "_ARGMIN_CELLS", cells)
    entries = toy_entries(n_subjects=4, per_subject=5)
    values = np.random.default_rng(8).integers(0, 5, size=(len(entries), 3)).astype(float)
    spec = SplitSpec(k_train=2, repetitions=3, seed=4)
    got = per_feature_error_rates(entries, values, random_split(entries, spec))
    assert np.array_equal(got, per_feature_error_rates_broadcast(entries, values, spec))


@pytest.mark.filterwarnings("error")
def test_per_feature_rows_near_the_float_limit():
    # 2 max|v| overflows, so the row is not certified, yet no gap
    # |probe - train| does: the result comes without a warning
    entries = toy_entries(n_subjects=2, per_subject=3)
    values = np.array([[1e308], [9e307], [0.0], [5.0], [1.7e308], [8e307]])
    spec = SplitSpec(k_train=1, repetitions=3)
    got = per_feature_error_rates(entries, values, random_split(entries, spec))
    assert np.array_equal(got, per_feature_error_rates_broadcast(entries, values, spec))


def test_per_feature_error_rates_input_contract():
    entries = toy_entries(n_subjects=2, per_subject=3)
    spec = SplitSpec(k_train=1, repetitions=1)
    with pytest.raises(ConfigError):
        per_feature_error_rates(entries, np.zeros(len(entries)), random_split(entries, spec))
    with pytest.raises(ConfigError):
        per_feature_error_rates(entries, np.zeros((len(entries), 2, 2)), random_split(entries, spec))
    with pytest.raises(ConfigError):
        per_feature_error_rates(entries, np.zeros((len(entries) + 1, 2)), random_split(entries, spec))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((len(entries), 3))
        values[2, 1] = bad
        with pytest.raises(DomainError):
            per_feature_error_rates(entries, values, random_split(entries, spec))


def test_learning_and_subject_curves():
    entries = toy_entries(n_subjects=4, per_subject=8)
    features = separable_features(entries)
    spec = SplitSpec(k_train=5, repetitions=2, seed=0)
    D = [distances(entries, features)]
    lc = [run_error_experiment(random_split(entries, replace(spec, k_train=k)), D) for k in (1, 3, 5)]
    assert all(r.mean() == 0.0 for r in lc)
    sc = [run_error_experiment(random_split(entries, replace(spec, n_subjects=c)), D) for c in (2, 4)]
    assert all(r.shape == (2,) for r in sc)


def test_csv_builders():
    written = csv_text

    cmc_text = written("rank,proportion", zip(np.arange(1, 3), np.array([0.5, 1.0])))
    assert cmc_text == "rank,proportion\n1,0.5\n2,1\n"
    roc_text = written("threshold,p_verify,p_false_alarm", zip(np.array([0.0]), np.array([1.0]), np.array([0.25])))
    assert roc_text.splitlines()[1] == "0,1,0.25"
    summary = written("experiment_id,mean,sem,eer", [("exp", 1.5, 0.25, None), ("roc", 2.0, 0.0, 0.02)])
    assert summary == "experiment_id,mean,sem,eer\nexp,1.5,0.25,\nroc,2,0,0.02\n"  # empty eer cell
    matrix_text = written(None, np.array([[0.1, -2.0], [1e-300, np.nan]]))
    assert matrix_text == "0.10000000000000001,-2\n1e-300,nan\n"
    assert written(None, [np.array([1.0, 0.5])]) == "1,0.5\n"  # a 1-D matrix is one row
    assert written("k_train,mean,sem", [(3, 12.5, 0.5)]) == "k_train,mean,sem\n3,12.5,0.5\n"  # ints as str


def test_split_masks_equal_id_list_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n_subjects = int(rng.integers(2, 7))
        k_train = int(rng.integers(1, 4))
        entries = [(f"s{s}/{k}", f"s{s}") for s in range(n_subjects)
                   for k in range(k_train + int(rng.integers(1, 5)))]
        entries = [entries[j] for j in rng.permutation(len(entries))]  # not in canonical order
        cap = None if rng.random() < 0.5 else int(rng.integers(2, n_subjects + 1))
        spec = SplitSpec(k_train=k_train, n_subjects=cap, repetitions=int(rng.integers(1, 5)),
                         seed=int(rng.integers(0, 2**16)))
        split = random_split(entries, spec)
        for rep, train in enumerate(split.train):
            want_train, want_test = random_split_ids(entries, spec, rep)
            assert [entries[r][0] for r in split.rows[train]] == want_train
            assert [entries[r][0] for r in split.rows[~train]] == want_test


def overlapping_tables(entries):
    """Two value tables whose subjects overlap, so every path errs on
    some probes; widths 70 and 130 pad across chunk boundaries."""
    return (
        separable_features(entries, dim=70, spread=0.0, noise=2.0, seed=1),
        separable_features(entries, dim=130, spread=0.0, noise=2.0, seed=2),
    )


@pytest.mark.parametrize("fused", [False, True])
def test_error_experiments_equal_per_split_oracle(fused):
    entries = toy_entries(n_subjects=5, per_subject=7)
    tables = overlapping_tables(entries)[: 2 if fused else 1]
    matrices = [oracle_distances(values) for values in tables]
    spec = SplitSpec(k_train=3, repetitions=4, seed=3)
    specs = [
        spec,
        *(replace(spec, k_train=k) for k in (1, 2, 4)),
        *(replace(spec, n_subjects=c) for c in (2, 4)),
    ]
    rep_errors = [run_error_experiment(random_split(entries, s), matrices) for s in specs]
    assert [e.tolist() for e in rep_errors] == [per_split_rep_errors(tables, entries, s) for s in specs]
    assert rep_errors[0].mean() > 0.0


def test_score_and_embedding_matrices_equal_per_split_oracle():
    entries = toy_entries(n_subjects=5, per_subject=7)
    tables = overlapping_tables(entries)
    D_a, D_b = (oracle_distances(values) for values in tables)
    subjects = [s for _, s in entries]
    split = random_split(entries, SplitSpec(k_train=3, seed=6))
    train, probe = split.rows[split.train[0]], split.rows[~split.train[0]]
    train_labels = [subjects[r] for r in train]
    for matrices, values in (((D_a,), tables[:1]), ((D_a, D_b), tables)):
        scores, labels = score_matrix(matrices, train, probe, train_labels)
        want_labels, posteriors = per_split_posteriors(values, train, train_labels)
        assert labels == want_labels
        assert np.array_equal(scores, posteriors(probe))
    nearest, labels = embedding_matrix(D_b, train, probe, train_labels)
    want, want_labels = per_split_embedding(tables[1], train, probe, train_labels)
    assert labels == want_labels
    assert np.array_equal(nearest, want)
