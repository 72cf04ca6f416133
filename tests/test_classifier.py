"""Dissimilarity embedding and the pseudoinverse linear discriminant."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarface import (
    FeatureVector,
    classify,
    dissimilarity_matrix,
    embed,
    fuse_max,
    pairwise_distances,
    score,
    train_pfld,
)
from polarface.errors import ConfigError, DomainError

from oracles import (
    distances_to,
    min_norm_lstsq,
    nearest_neighbor_single_feature,
    row_space_projector,
)


def vectors(matrix, layout="toy"):
    return [FeatureVector(np.asarray(row, dtype=float), layout) for row in matrix]


def toy_model(n_per=3, classes=("a", "b"), dim=4, seed=0, spread=6.0):
    """Well-separated Gaussian blobs, one per class."""
    rng = np.random.default_rng(seed)
    feats, ids, subject_of = [], [], {}
    for c_idx, label in enumerate(classes):
        center = rng.normal(scale=1.0, size=dim) + spread * c_idx
        for k in range(n_per):
            ids.append(f"{label}{k}")
            subject_of[f"{label}{k}"] = label
            feats.append(center + rng.normal(scale=0.1, size=dim))
    gallery = vectors(feats)
    D = dissimilarity_matrix(gallery, ids=ids)
    return train_pfld(D, subject_of, gallery), gallery, ids, subject_of


def test_distance_matrix_small_example():
    # three 1-D points; all pairwise gaps appear symmetrically
    D = dissimilarity_matrix(vectors([[0.0], [0.8], [0.3]]), ids=["p", "q", "r"])
    want = np.array([[0.0, 0.8, 0.3], [0.8, 0.0, 0.5], [0.3, 0.5, 0.0]])
    assert np.allclose(D.distances, want, atol=1e-12)
    assert np.all(np.diag(D.distances) == 0.0)


@given(st.integers(2, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_distance_matrix_against_brute_force(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    D = dissimilarity_matrix(vectors(X)).distances
    for i in range(n):
        for j in range(n):
            assert D[i, j] == pytest.approx(np.linalg.norm(X[i] - X[j]), abs=1e-12)
    assert np.allclose(D, D.T)


def padded(X):
    return np.pad(X, ((0, 0), (0, (-X.shape[1]) % 64)))


@given(st.integers(1, 4), st.integers(1, 600), st.integers(1, 1300), st.integers(0, 2**32 - 1))
@example(n_a=1, n_b=600, d=100, seed=0)  # 600 rows of width 128 span three tiles
@example(n_a=3, n_b=100, d=1201, seed=1)  # the DFT layout: 19 chunks, four tiles
@settings(max_examples=40, deadline=None)
def test_pairwise_distances_match_row_loop_oracle(n_a, n_b, d, seed):
    rng = np.random.default_rng(seed)
    A = padded(rng.normal(size=(n_a, d)) * 100.0)
    B = padded(rng.normal(size=(n_b, d)) * 100.0)
    want = np.array([distances_to(B, row) for row in A])
    assert np.array_equal(pairwise_distances(A, B), want)


def test_pairwise_distances_rejects_unpadded_operands():
    with pytest.raises(DomainError):
        pairwise_distances(np.zeros((2, 60)), np.zeros((3, 60)))
    with pytest.raises(DomainError):
        pairwise_distances(np.zeros((2, 64)), np.zeros((3, 128)))
    with pytest.raises(DomainError):
        pairwise_distances(np.zeros((2, 0)), np.zeros((3, 0)))


def test_distance_matrix_rejects_mixed_layouts():
    feats = [FeatureVector(np.zeros(2), "a"), FeatureVector(np.zeros(2), "b")]
    with pytest.raises(ConfigError):
        dissimilarity_matrix(feats)


def test_training_set_is_classified_perfectly():
    model, gallery, ids, subject_of = toy_model(n_per=4, classes=("a", "b", "c"))
    for i, vec in zip(ids, gallery):
        scores = classify(model, vec)
        assert scores.predicted == subject_of[i]


def test_embed_probe_distances():
    _, gallery, ids, _ = toy_model()
    emb = embed(gallery[2:4], gallery)
    assert emb.shape == (2, len(ids))
    assert emb[0, 2] == 0.0 and emb[1, 3] == 0.0
    assert np.all(emb >= 0.0)
    with pytest.raises(ConfigError):
        embed([FeatureVector(np.zeros(4), "other")], gallery)
    with pytest.raises(ConfigError):
        embed([FeatureVector(np.zeros(5), "toy")], gallery)


def test_score_rows_are_classify_rows():
    model, gallery, _, _ = toy_model(n_per=5, classes=("a", "b", "c"), dim=70)
    raw, posterior = score(model, gallery)
    assert raw.shape == posterior.shape == (15, 3)
    for k, vec in enumerate(gallery):
        one = classify(model, vec)
        assert np.array_equal(one.raw, raw[k])
        assert np.array_equal(one.posterior, posterior[k])
    with pytest.raises(ConfigError):
        score(model, [FeatureVector(np.zeros(70), "other")])
    with pytest.raises(ConfigError):
        score(model, [FeatureVector(np.zeros(71), "toy")])


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
    ids = [f"i{k:02d}" for k in range(n)]
    gallery = vectors(X)
    D = dissimilarity_matrix(gallery, ids=ids)
    model = train_pfld(D, dict(zip(ids, labels)), gallery)

    centered = D.distances - D.distances.mean(axis=0)
    design = np.hstack([centered, np.ones((n, 1))])
    targets = np.where(np.array(labels)[:, None] == np.array(["a", "b"])[None, :], 1.0, -1.0)
    want = min_norm_lstsq(design, targets)
    assert np.max(np.abs(model.weights - want)) < 1e-8
    # minimum-norm: the solution lives in the design's row space
    P = row_space_projector(design)
    assert np.max(np.abs(P @ model.weights - model.weights)) < 1e-8


def test_posterior_is_a_distribution():
    model, gallery, _, _ = toy_model(classes=("a", "b", "c"))
    scores = classify(model, gallery[0])
    assert scores.posterior.shape == (3,)
    assert np.all(scores.posterior >= 0.0)
    assert np.sum(scores.posterior) == pytest.approx(1.0, abs=1e-12)
    # posterior ranks follow raw-output ranks
    assert np.array_equal(np.argsort(scores.posterior), np.argsort(scores.raw))


def test_exact_tie_resolves_to_first_label():
    from polarface import ClassScores

    tied = ClassScores(
        class_labels=("a", "b", "c"),
        raw=np.array([0.2, 0.7, 0.7]),
        posterior=np.array([0.2, 0.4, 0.4]),
    )
    assert tied.predicted == "b"  # first of the tied maxima


def test_mirror_symmetric_probe_scores_near_half():
    # lstsq symmetry is only approximate, so assert closeness, then the
    # deterministic argmax on whatever side rounding lands
    gallery = vectors([[-1.0], [1.0]])
    D = dissimilarity_matrix(gallery, ids=["left", "right"])
    model = train_pfld(D, {"left": "a", "right": "b"}, gallery)
    scores = classify(model, FeatureVector(np.array([0.0]), "toy"))
    assert scores.posterior[0] == pytest.approx(0.5, abs=1e-12)
    assert scores.predicted in ("a", "b")


def test_fusion_prefers_the_more_confident_classifier():
    model, gallery, _, _ = toy_model(classes=("a", "b"))
    sa = classify(model, gallery[0])   # confident "a"
    sb = classify(model, gallery[-1])  # confident "b"
    labels = model.class_labels
    fused = fuse_max((labels, sa.posterior[None]), (labels, sb.posterior[None]))
    assert np.array_equal(fused[0], np.maximum(sa.posterior, sb.posterior))
    stronger = sa if np.max(sa.posterior) >= np.max(sb.posterior) else sb
    assert labels[int(np.argmax(fused[0]))] == stronger.predicted
    assert np.array_equal(fuse_max((labels, fused)), fused)


def test_fusion_rejects_different_label_sets():
    m1, g1, _, _ = toy_model(classes=("a", "b"))
    m2, g2, _, _ = toy_model(classes=("a", "c"))
    with pytest.raises(ConfigError):
        fuse_max((m1.class_labels, score(m1, g1)[1]), (m2.class_labels, score(m2, g2)[1]))


def test_appending_zero_features_changes_nothing():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(10, 20))
    ids = [f"im{k}" for k in range(10)]
    subject_of = {i: ("a" if k < 5 else "b") for k, i in enumerate(ids)}
    plain = vectors(base, layout="plain")
    padded = vectors(np.hstack([base, np.zeros((10, 3))]), layout="padded")
    D0 = dissimilarity_matrix(plain, ids=ids)
    D1 = dissimilarity_matrix(padded, ids=ids)
    assert np.array_equal(D0.distances, D1.distances)
    m0 = train_pfld(D0, subject_of, plain)
    m1 = train_pfld(D1, subject_of, padded)
    probe = rng.normal(size=20)
    s0 = classify(m0, FeatureVector(probe, "plain"))
    s1 = classify(m1, FeatureVector(np.concatenate([probe, np.zeros(3)]), "padded"))
    assert np.array_equal(s0.posterior, s1.posterior)
    assert s0.predicted == s1.predicted


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
    gallery = vectors([[0.0], [1.0]])
    D = dissimilarity_matrix(gallery, ids=["x", "y"])
    with pytest.raises(ConfigError):
        train_pfld(D, {"x": "a"}, gallery)  # missing label for y
    with pytest.raises(ConfigError):
        train_pfld(D, {"x": "a", "y": "a"}, gallery)  # single class
    with pytest.raises(ConfigError):
        train_pfld(D, {"x": "a", "y": "b"}, vectors([[0.0]]))  # gallery mismatch
