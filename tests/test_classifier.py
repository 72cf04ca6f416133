"""Dissimilarity embedding and the pseudoinverse linear discriminant."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarface import (
    FeatureTable,
    FeatureVector,
    classify,
    dft_feature_columns,
    dissimilarity_matrix,
    fuse_max,
    train_pfld,
)
from polarface.errors import ConfigError, DomainError

from helpers import feature_table
from oracles import (
    classify_rows,
    distances_to,
    min_norm_lstsq,
    nearest_neighbor_single_feature,
    row_space_projector,
)


def vectors(matrix, layout="toy"):
    return [FeatureVector(np.asarray(row, dtype=float), layout) for row in matrix]


def table_of(matrix, layout="toy", ids=None):
    ids = [str(k) for k in range(len(matrix))] if ids is None else ids
    return feature_table(ids, vectors(matrix, layout))


def toy_model(n_per=3, classes=("a", "b"), dim=4, seed=0, spread=6.0):
    """Well-separated Gaussian blobs, one per class; the model is trained
    on every image, so D is both its gallery block and its probe rows."""
    rng = np.random.default_rng(seed)
    feats, ids, subject_of = [], [], {}
    for c_idx, label in enumerate(classes):
        center = rng.normal(scale=1.0, size=dim) + spread * c_idx
        for k in range(n_per):
            ids.append(f"{label}{k}")
            subject_of[f"{label}{k}"] = label
            feats.append(center + rng.normal(scale=0.1, size=dim))
    D = dissimilarity_matrix(table_of(feats, ids=ids))
    return train_pfld(D, [subject_of[i] for i in ids]), D, ids, subject_of


def test_distance_matrix_small_example():
    # three 1-D points; all pairwise gaps appear symmetrically
    D = dissimilarity_matrix(table_of([[0.0], [0.8], [0.3]], ids=["p", "q", "r"]))
    want = np.array([[0.0, 0.8, 0.3], [0.8, 0.0, 0.5], [0.3, 0.5, 0.0]])
    assert np.allclose(D, want, atol=1e-12)
    assert np.all(np.diag(D) == 0.0)


@given(st.integers(2, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_distance_matrix_against_brute_force(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    D = dissimilarity_matrix(table_of(X))
    for i in range(n):
        for j in range(n):
            assert D[i, j] == pytest.approx(np.linalg.norm(X[i] - X[j]), abs=1e-12)
    assert np.allclose(D, D.T)


@st.composite
def widths_and_counts(draw):
    """A width of up to 21 chunks, often one that pads across a chunk,
    and an image count up to a little past the rows of one 256 KB tile
    at that width."""
    d = draw(st.one_of(st.sampled_from([60, 186, 1201]), st.integers(1, 1300)))
    return d, draw(st.integers(2, 32768 // (d + (-d) % 64) + 20))


@given(widths_and_counts(), st.integers(0, 2**32 - 1))
@example((60, 530), 0)  # 512 rows of width 64 fill one tile
@example((186, 200), 1)  # 170 rows of width 192 fill one tile
@example((1201, 60), 2)  # 26 rows of width 1216 fill one tile
@example((100, 600), 3)  # 600 rows of width 128 span three tiles
@example((1201, 100), 4)  # the DFT layout: 19 chunks, four tiles
@settings(max_examples=40, deadline=None)
def test_one_matrix_slices_equal_per_split_distances(shape, seed):
    # Every row of the triangular build equals the row-loop oracle, and
    # every gallery block and probe row sliced from it equals the
    # distances the per-split path computes from its own stacked rows.
    d, n = shape
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, d)) * 10.0
    values[rng.integers(n)] = values[0]  # a duplicate image
    D = dissimilarity_matrix(table_of(values))
    assert np.array_equal(D, [distances_to(values, row) for row in values])
    order = rng.permutation(n)
    cut = int(rng.integers(1, n))
    train, probes = order[:cut], order[cut:]
    G = values[train]
    assert np.array_equal(D[np.ix_(train, train)], [distances_to(G, row) for row in G])
    for p in probes:
        assert np.array_equal(D[p, train], distances_to(G, values[p]))


@given(st.integers(1, 4), st.integers(1, 600), st.integers(1, 1300), st.integers(0, 2**32 - 1))
@example(n_a=1, n_b=600, d=100, seed=0)  # 600 rows of width 128 span three tiles
@example(n_a=3, n_b=100, d=1201, seed=1)  # the DFT layout: 19 chunks, four tiles
@settings(max_examples=40, deadline=None)
def test_pairwise_distances_match_row_loop_oracle(n_a, n_b, d, seed):
    # The block of distances from the rows of A to the rows of B, cut
    # from one matrix over both, equals the row-loop oracle.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n_a, d)) * 100.0
    B = rng.normal(size=(n_b, d)) * 100.0
    D = dissimilarity_matrix(table_of(np.vstack([A, B])))
    want = np.array([distances_to(B, row) for row in A])
    assert np.array_equal(D[:n_a, n_a:], want)


def dft_table(values, max_cycles):
    """A DFT-layout table: stored columns, and the index to the lattice."""
    columns = dft_feature_columns(max_cycles)
    return FeatureTable(tuple(map(str, range(len(values)))), f"dft-{columns.size}", values, columns)


@given(st.integers(2, 40), st.sampled_from([0.0, 1.0, 4.5, 12.3, 19.5]), st.floats(0.0, 50.0),
       st.integers(0, 2**32 - 1))
@example(n=30, max_cycles=19.5, offset=0.0, seed=0)  # the 1201-cell layout: 601 stored columns
@example(n=30, max_cycles=19.5, offset=50.0, seed=1)
@settings(max_examples=40, deadline=None)
def test_dft_layout_distances_match_the_expanded_rows(n, max_cycles, offset, seed):
    # A stored pair column weighs sqrt(2), and the scaled copy rounds each
    # value by up to half an ulp: a distance is off by at most about
    # 2 eps (|a| + |b|) beyond the kernel's own rounding.  On the
    # 1201-cell layout that is within 2e-15 of the distance itself.  The
    # matrix stays exactly symmetric with a zero diagonal.
    rng = np.random.default_rng(seed)
    stored = dft_feature_columns(max_cycles).max() + 1
    values = offset + rng.normal(size=(n, stored)) * 10.0
    values[rng.integers(n)] = values[0]  # a duplicate image
    table = dft_table(values, max_cycles)
    D = dissimilarity_matrix(table)
    full = table.expand(values)
    want = np.array([distances_to(full, row) for row in full])
    norms = np.linalg.norm(full, axis=1)
    eps = np.finfo(float).eps
    assert np.all(np.abs(D - want) <= 2e-15 * want + 2 * eps * (norms[:, None] + norms[None, :]))
    if max_cycles == 19.5:
        assert np.all(np.abs(D - want) <= 2e-15 * want)
    assert np.array_equal(D, D.T)
    assert not np.diag(D).any()


def test_distance_matrix_refuses_oversized_tables():
    # refused from the image count, before the N x N matrix is allocated
    table = FeatureTable.allocate([f"im{k}" for k in range(20_001)], "toy", 1)
    with pytest.raises(ConfigError, match="20001 images"):
        dissimilarity_matrix(table)


def test_distance_matrix_refuses_featureless_tables():
    with pytest.raises(DomainError, match="at least one feature"):
        dissimilarity_matrix(FeatureTable.allocate(["a", "b"], "toy", 0))


def test_table_rows_are_views():
    table = table_of([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert len(table) == 2
    assert np.array_equal(table[1].values, [4.0, 5.0, 6.0]) and table[1].layout_id == "toy"
    assert np.shares_memory(table[1].values, table.values)
    assert [v.values.tolist() for v in table] == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_training_set_is_classified_perfectly():
    model, D, ids, subject_of = toy_model(n_per=4, classes=("a", "b", "c"))
    _, posteriors = classify(model, D)
    for posterior, i in zip(posteriors, ids):
        assert model.class_labels[int(np.argmax(posterior))] == subject_of[i]


def test_embed_probe_distances():
    # a probe is embedded as its row of the one matrix
    model, D, ids, _ = toy_model()
    assert D.shape == (len(ids), len(ids))
    assert D[2, 2] == 0.0 and D[3, 3] == 0.0
    assert np.all(D >= 0.0)
    # classify takes a matrix of probe rows: a 1-D row, a wrong width,
    # zero probes and a stack of matrices are refused
    for bad in (D[2], D[2:4, :-1], D[:0], D[None]):
        with pytest.raises(ConfigError):
            classify(model, bad)


@given(st.integers(0, 2**32 - 1), st.integers(2, 70), st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_classify_rows_do_not_depend_on_the_probe_count(seed, n_train, n_classes):
    # every probe is its own vector-matrix product; one 2-D product may
    # sum in a different order for different probe counts
    rng = np.random.default_rng(seed)
    D = dissimilarity_matrix(table_of(rng.normal(size=(n_train + 30, 9))))
    model = train_pfld(D[:n_train, :n_train], [f"s{k % n_classes}" for k in range(n_train)])
    probes = D[n_train:, :n_train]
    raw, posterior = classify(model, probes)
    assert raw.shape == posterior.shape == (30, min(n_classes, n_train))
    for a, b in ((0, 1), (4, 6), (11, 18), (0, 30)):  # 1, 2, 7 and all probes
        part_raw, part_posterior = classify(model, probes[a:b])
        want_raw, want_posterior = classify_rows(model, probes[a:b])
        assert np.array_equal(part_raw, want_raw) and np.array_equal(part_posterior, want_posterior)
        assert np.array_equal(part_raw, raw[a:b]) and np.array_equal(part_posterior, posterior[a:b])


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_lstsq_matches_min_norm_oracle(seed, deficient):
    # The PFLD design matrix is reproduced here and solved through an
    # independent eigendecomposition route; rank-deficient cases arise
    # from duplicated gallery rows.
    rng = np.random.default_rng(seed)
    n, d = 12, 5
    X = rng.normal(size=(n, d))
    labels = ["a"] * 6 + ["b"] * 6
    if deficient:
        X[3] = X[0]
        X[7] = X[6]
    D = dissimilarity_matrix(table_of(X))
    model = train_pfld(D, labels)

    centered = D - D.mean(axis=0)
    design = np.hstack([centered, np.ones((n, 1))])
    targets = np.where(np.array(labels)[:, None] == np.array(["a", "b"])[None, :], 1.0, -1.0)
    want = min_norm_lstsq(design, targets)
    assert np.max(np.abs(model.weights - want)) < 1e-8
    # minimum-norm: the solution lives in the design's row space
    P = row_space_projector(design)
    assert np.max(np.abs(P @ model.weights - model.weights)) < 1e-8


def test_posterior_is_a_distribution():
    model, D, _, _ = toy_model(classes=("a", "b", "c"))
    raw, posterior = classify(model, D[:1])
    raw, posterior = raw[0], posterior[0]
    assert posterior.shape == (3,)
    assert np.all(posterior >= 0.0)
    assert np.sum(posterior) == pytest.approx(1.0, abs=1e-12)
    # posterior ranks follow raw-output ranks
    assert np.array_equal(np.argsort(posterior), np.argsort(raw))


def test_exact_tie_resolves_to_first_label():
    labels = ("a", "b", "c")
    fused = fuse_max((labels, np.array([[0.2, 0.4, 0.4]])))
    assert labels[int(np.argmax(fused[0]))] == "b"  # first of the tied maxima


def test_mirror_symmetric_probe_scores_near_half():
    # lstsq symmetry is only approximate, so assert closeness, then the
    # deterministic argmax on whatever side rounding lands
    D = dissimilarity_matrix(table_of([[-1.0], [1.0], [0.0]], ids=["left", "right", "probe"]))
    model = train_pfld(D[:2, :2], ["a", "b"])
    _, posterior = classify(model, D[2:, :2])
    assert posterior[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert model.class_labels[int(np.argmax(posterior[0]))] in ("a", "b")


def test_fusion_prefers_the_more_confident_classifier():
    model, D, _, _ = toy_model(classes=("a", "b"))
    _, pa = classify(model, D[:1])   # confident "a"
    _, pb = classify(model, D[-1:])  # confident "b"
    labels = model.class_labels
    fused = fuse_max((labels, pa), (labels, pb))
    assert np.array_equal(fused, np.maximum(pa, pb))
    stronger = pa if np.max(pa) >= np.max(pb) else pb
    assert np.argmax(fused[0]) == np.argmax(stronger)
    assert np.array_equal(fuse_max((labels, fused)), fused)


def test_fusion_rejects_different_label_sets():
    m1, D1, _, _ = toy_model(classes=("a", "b"))
    m2, D2, _, _ = toy_model(classes=("a", "c"))
    with pytest.raises(ConfigError):
        fuse_max((m1.class_labels, classify(m1, D1)[1]), (m2.class_labels, classify(m2, D2)[1]))


def test_appending_zero_features_changes_nothing():
    # 20 -> 23 columns stays inside one chunk; 60 -> 70 and 64 -> 65 add an all-zero chunk
    labels = ["a"] * 5 + ["b"] * 5
    for width, extra in ((20, 3), (60, 10), (64, 1)):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(10, width))
        probe = rng.normal(size=width)
        rows = np.vstack([base, probe])  # ten gallery images, then the probe
        D0 = dissimilarity_matrix(table_of(rows, layout="plain"))
        D1 = dissimilarity_matrix(table_of(np.hstack([rows, np.zeros((11, extra))]), layout="padded"))
        assert np.array_equal(D0, D1)
        m0 = train_pfld(D0[:10, :10], labels)
        m1 = train_pfld(D1[:10, :10], labels)
        _, p0 = classify(m0, D0[10:, :10])
        _, p1 = classify(m1, D1[10:, :10])
        assert np.array_equal(p0, p1)
    # a table that stores repeated features once: the appended columns
    # are new lattice cells, one stored once and the others in pairs
    rng = np.random.default_rng(4)
    columns = dft_feature_columns(4.5)
    rows = rng.normal(size=(11, columns.max() + 1))
    D0 = dissimilarity_matrix(dft_table(rows, 4.5))
    for extra in (3, 64):
        more = np.concatenate([columns, rows.shape[1] + np.arange(extra), rows.shape[1] + np.arange(1, extra)])
        padded = np.hstack([rows, np.zeros((11, extra))])
        D1 = dissimilarity_matrix(FeatureTable(tuple(map(str, range(11))), "padded", padded, more))
        assert np.array_equal(D0, D1)


def test_single_feature_nearest_neighbor_and_ties():
    train = vectors([[0.0, 5.0], [1.0, 2.0], [4.0, 2.0]])
    labels = ["a", "b", "c"]
    probe = FeatureVector(np.array([0.4, 2.0]), "toy")
    assert nearest_neighbor_single_feature(train, labels, probe, 0) == "a"
    # feature 1 ties between rows 1 and 2: lowest training index wins
    assert nearest_neighbor_single_feature(train, labels, probe, 1) == "b"
    with pytest.raises(Exception):
        nearest_neighbor_single_feature(train, labels, probe, 2)


def test_train_validation_errors():
    D = dissimilarity_matrix(table_of([[0.0], [1.0]], ids=["x", "y"]))
    with pytest.raises(ConfigError):
        train_pfld(D, ["a"])  # no label for y
    with pytest.raises(ConfigError):
        train_pfld(D, ["a", "a"])  # single class
    with pytest.raises(ConfigError):
        train_pfld(D[:1], ["a", "b"])  # not square
