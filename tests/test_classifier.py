"""Dissimilarity embedding and the pseudoinverse linear discriminant."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarface import (
    FeatureTable,
    FeatureVector,
    SplitSpec,
    classify,
    dft_feature_columns,
    dissimilarity_matrix,
    fuse_max,
    train_pfld,
)
from polarface import cli
from polarface.classifier import _forward_solve
from polarface.config import load_run_config
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


def centered_squares(values):
    """Squared norms of the rows once each column is centered on its mean."""
    values = np.asarray(values, dtype=float)
    return ((values - values.mean(axis=0)) ** 2).sum(axis=1)


def assert_within_gram_bound(D, E, squares_a, squares_b, width, oracle_width=None):
    """|D^2 - E^2| <= c eps (|a'|^2 + |b'|^2) in every cell, where E is the
    explicit-difference oracle's distance and a', b' the centered rows.

    With u = eps / 2, S = |a'|^2 + |b'|^2, and C and C' the 64-column
    chunks of the kernel's stored width and of the oracle's width, the
    terms of c, to first order in eps (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3.1):
    - centering and the repeat-count scale round each value by at most
      3u of itself: 4 * 3u S = 6 eps S;
    - G_ii, G_jj and G_ij each sum C dot products of 64 terms, each
      within gamma_64, in chunk order: within gamma_(63 + C), and the
      three together within 2 gamma_(63 + C) S = (63 + C) eps S;
    - the two additions of the finish: 4u S = 2 eps S;
    - the square root, and squaring D here: 3u d^2 <= 3 eps S;
    - the oracle's differences, squares, chunk sums, square root and
      squaring here: gamma_(69 + C') E^2 <= (69 + C') eps S.
    So c = 143 + C + C'.  The kernel stays within about 6.
    """
    chunks = -(-width // 64) + -(-(oracle_width or width) // 64)
    slack = (143 + chunks) * np.finfo(float).eps * np.add.outer(squares_a, squares_b)
    D, E = np.asarray(D), np.asarray(E)
    assert np.all(np.abs(D * D - E * E) <= slack)


@st.composite
def widths_and_counts(draw):
    """A width of up to 21 chunks, often one at a chunk edge, and an
    image count across up to four blocks of 64 rows."""
    d = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 186, 601, 1201]), st.integers(1, 1300)))
    return d, draw(st.integers(2, 200))


@given(widths_and_counts(), st.integers(0, 2**32 - 1))
@example((1, 63), 0)  # one column; one row short of a full row block
@example((63, 64), 1)  # one column short of a chunk; one full row block
@example((64, 65), 2)  # one full chunk; a second row block of one row
@example((65, 129), 3)  # a second chunk of one column; three row blocks
@example((1201, 129), 4)  # the DFT layout's 19 chunks over three row blocks
@settings(max_examples=40, deadline=None)
def test_one_matrix_slices_equal_per_split_distances(shape, seed):
    # The whole matrix, and every gallery block and probe row sliced from
    # it, is within the Gram bound of the distances the per-split path
    # computes from its own stacked rows, one row at a time.
    d, n = shape
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, d)) * 10.0
    values[rng.integers(n)] = values[0]  # a duplicate image
    D = dissimilarity_matrix(table_of(values))
    assert np.array_equal(D, D.T)
    assert not np.diag(D).any()
    squares = centered_squares(values)
    assert_within_gram_bound(D, [distances_to(values, row) for row in values], squares, squares, d)
    order = rng.permutation(n)
    cut = int(rng.integers(1, n))
    train, probes = order[:cut], order[cut:]
    G = values[train]
    assert_within_gram_bound(D[np.ix_(train, train)], [distances_to(G, row) for row in G],
                             squares[train], squares[train], d)
    assert_within_gram_bound(D[np.ix_(probes, train)], [distances_to(G, values[p]) for p in probes],
                             squares[probes], squares[train], d)


@given(st.integers(1, 4), st.integers(1, 200), st.integers(1, 1300), st.sampled_from([0.0, 1e6]),
       st.integers(0, 2**32 - 1))
@example(n_a=1, n_b=128, d=65, offset=0.0, seed=0)  # three row blocks, the last of one row; two chunks
@example(n_a=3, n_b=100, d=1201, offset=1e6, seed=1)  # the DFT layout's 19 chunks
@settings(max_examples=40, deadline=None)
def test_pairwise_distances_match_row_loop_oracle(n_a, n_b, d, offset, seed):
    # The block of distances from the rows of A to the rows of B, cut
    # from one matrix over both, is within the Gram bound of the row-loop
    # oracle.  Under a common offset of 1e6 the uncentered row norms are
    # about 1e4 times the centered ones, and a Gram matrix of uncentered
    # rows misses the bound by orders of magnitude.
    rng = np.random.default_rng(seed)
    A = offset + rng.normal(size=(n_a, d)) * 100.0
    B = offset + rng.normal(size=(n_b, d)) * 100.0
    D = dissimilarity_matrix(table_of(np.vstack([A, B])))
    squares = centered_squares(np.vstack([A, B]))
    assert_within_gram_bound(D[:n_a, n_a:], [distances_to(B, row) for row in A], squares[:n_a], squares[n_a:], d)


def dft_table(values, max_cycles):
    """A DFT-layout table: stored columns, and the index to the lattice."""
    columns = dft_feature_columns(max_cycles)
    return FeatureTable(tuple(map(str, range(len(values)))), f"dft-{columns.size}", values, columns)


@given(st.integers(2, 40), st.sampled_from([0.0, 1.0, 4.5, 12.3, 19.5]), st.floats(0.0, 50.0),
       st.integers(0, 2**32 - 1))
@example(n=30, max_cycles=19.5, offset=0.0, seed=0)  # the 1201-cell layout: 601 stored columns
@example(n=30, max_cycles=19.5, offset=50.0, seed=1)
@example(n=30, max_cycles=19.5, offset=1e6, seed=2)  # scaled after centering, so no offset in the rounding
@settings(max_examples=40, deadline=None)
def test_dft_layout_distances_match_the_expanded_rows(n, max_cycles, offset, seed):
    # A stored pair column weighs sqrt(2): the distances are within the
    # Gram bound of the oracle's over the expanded layout rows.  The
    # matrix stays exactly symmetric with a zero diagonal.
    rng = np.random.default_rng(seed)
    stored = dft_feature_columns(max_cycles).max() + 1
    values = offset + rng.normal(size=(n, stored)) * 10.0
    values[rng.integers(n)] = values[0]  # a duplicate image
    table = dft_table(values, max_cycles)
    D = dissimilarity_matrix(table)
    full = table.expand(values)
    squares = centered_squares(full)
    assert_within_gram_bound(D, [distances_to(full, row) for row in full], squares, squares, stored, full.shape[1])
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


def design_and_targets(D, labels):
    """The augmented design [D - column means | 1] and the +-1 targets,
    one column per sorted class, as train_pfld builds them."""
    classes = sorted(set(labels))
    design = np.hstack([D - D.mean(axis=0), np.ones((len(D), 1))])
    targets = np.where(np.array(labels)[:, None] == np.array(classes)[None, :], 1.0, -1.0)
    return design, targets


@pytest.mark.parametrize("n", [12, 200, 600])
def test_full_rank_solve_matches_min_norm_oracle(n):
    # distinct gallery images give a nonsingular distance matrix, so the design has full row rank
    # and train_pfld solves it through QR of its transpose; C4's bound against the eigh oracle
    rng = np.random.default_rng(n)
    classes = np.arange(n) % (n // 5)
    X = rng.normal(size=(n // 5, 40))[classes] + 0.3 * rng.normal(size=(n, 40))
    labels = [f"c{c}" for c in classes]
    D = dissimilarity_matrix(table_of(X))
    design, targets = design_and_targets(D, labels)
    assert np.max(np.abs(train_pfld(D, labels).weights - min_norm_lstsq(design, targets))) < 1e-8


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0])
def test_near_duplicate_gallery_images_match_lstsq(delta):
    # one gallery image is a copy of another, scaled by 1 + delta * noise: as delta falls the design
    # nears rank deficiency, and train_pfld hands it from QR to lstsq once min |R_ii| / max |R_ii|
    # falls to 1e-6; on either side the weights are lstsq's, to 1e-8 of the largest weight
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 40))
    X[7] = X[3] * (1.0 + delta * rng.normal(size=40))
    labels = [f"c{k % 12}" for k in range(60)]
    D = dissimilarity_matrix(table_of(X))
    want = np.linalg.lstsq(*design_and_targets(D, labels), rcond=1e-10)[0]
    assert np.max(np.abs(train_pfld(D, labels).weights - want)) <= 1e-8 * np.max(np.abs(want))


def test_duplicate_gallery_images_are_solved_by_lstsq():
    # QR without pivoting has no minimum-norm solution for a rank-deficient design, so one with
    # repeated gallery images takes lstsq itself, bit for bit
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 30))
    X[5], X[21] = X[2], X[30]
    labels = [f"c{k % 8}" for k in range(40)]
    D = dissimilarity_matrix(table_of(X))
    want = np.linalg.lstsq(*design_and_targets(D, labels), rcond=1e-10)[0]
    assert np.array_equal(train_pfld(D, labels).weights, want)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 40, 41])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_forward_solve_matches_numpy_solve(n, k, order):
    # train_pfld passes the transpose of a C-ordered R, so an F-ordered lower triangle; the
    # strictly lower part is scaled to keep the system well conditioned
    rng = np.random.default_rng(1000 * n + k)
    lower = np.tril(rng.normal(size=(n, n)), -1) / np.sqrt(n) + np.diag(rng.uniform(1.0, 2.0, n))
    lower = np.asarray(lower, order=order)
    targets = rng.normal(size=(n, k))
    got = _forward_solve(lower, targets)
    want = np.linalg.solve(lower, targets)
    assert got.shape == (n, k)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def digests_at_one_and_two_blas_threads(code, data):
    """The stdout of `code` run with `data` (an .npz path) as its argument
    in child processes at one and at two BLAS threads, all a 2-core machine
    can show."""
    src = Path(cli.__file__).resolve().parents[1]
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", code, str(data)], env=env, check=True,
                                  capture_output=True, text=True).stdout)
    return out


@pytest.mark.parametrize("n", [130, 132, 138, 400])
def test_distance_matrix_is_independent_of_blas_threads(tmp_path, n):
    # OpenBLAS splits a Gram block's columns between threads, and unless their count is a multiple
    # of 8 the edge tiles round differently; the kernel pads its rows to one (130 and 138 differ
    # without).  400 is the size of the benchmark's tables.
    np.savez(tmp_path / "table.npz", values=np.random.default_rng(n).normal(size=(n, 186)))
    code = textwrap.dedent("""
        import hashlib, sys
        import numpy as np
        from polarface import FeatureTable, dissimilarity_matrix
        values = np.load(sys.argv[1])["values"]
        table = FeatureTable.allocate(range(len(values)), "toy", values.shape[1])
        table.values[:] = values
        print(hashlib.sha256(dissimilarity_matrix(table).tobytes()).hexdigest())
    """)
    one, two = digests_at_one_and_two_blas_threads(code, tmp_path / "table.npz")
    assert one == two and len(one.strip()) == 64


def test_pfld_is_independent_of_blas_threads(tmp_path):
    # the benchmark's design: the DFT gallery block of the first repetition on the seed-0 tree, n = 200
    # over 40 classes; the blocked triangular solve gives the same weights at one and two BLAS threads
    # (one np.linalg.solve of the whole triangle does not)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.make_tree(tmp_path / "tree", 0)
    cfg = load_run_config(None, {"mode": "dft", "dataset": str(tmp_path / "tree")})
    dataset, (split,) = cli._load_dataset(cfg, [SplitSpec(k_train=5, repetitions=1)])
    (D,) = cli._matrices(dataset, cfg)
    rows, labels = split.rows[split.train[0]], split.subjects[split.train[0]].astype(str)
    assert rows.size == 200 and len(set(labels)) == 40
    np.savez(tmp_path / "design.npz", distances=D[np.ix_(rows, rows)], labels=labels)
    code = textwrap.dedent("""
        import hashlib, sys
        import numpy as np
        from polarface import train_pfld
        data = np.load(sys.argv[1])
        weights = train_pfld(data["distances"], list(data["labels"])).weights
        print(hashlib.sha256(weights.tobytes()).hexdigest())
    """)
    one, two = digests_at_one_and_two_blas_threads(code, tmp_path / "design.npz")
    assert one == two and len(one.strip()) == 64


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
