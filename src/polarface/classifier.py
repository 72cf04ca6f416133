"""Dissimilarity-space classification.

Feature vectors are re-represented by their Euclidean distances to the
training (gallery) set.  In that space a pseudo-Fisher linear
discriminant is trained per class, one against all others: the centered
distance matrix gets a constant bias column, and the minimum-norm
least-squares solution of [D_centered | 1] w = y (targets +1 for the
class, -1 otherwise) is taken via SVD with relative cutoff 1e-10.  With
n_train <= dimension this interpolates the training targets, which makes
the discriminant usable even though classes have too few samples for a
classical within-scatter estimate.

Classifier outputs of two feature families are fused by the max rule on
their normalized posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .features import FeatureVector

_SVD_CUTOFF = 1e-10  # relative singular value cutoff in the least-squares solve
_DIST_CHUNK = 64
_TILE_FLOATS = 1 << 15  # one difference block: 256 KB of float64, small enough to stay in cache


def pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between every row of A and every row of B.

    Both operands are (rows, dim) with the same dim, a positive multiple
    of 64;
    feature vectors are zero-padded to it when stacked.  Each distance
    comes from explicit differences, not the Gram shortcut, so
    d(a, b) == d(b, a) and d(a, a) == 0 exactly.  Squares are summed
    within 64-wide chunks and the chunk sums are added in a fixed order,
    so appending zero coordinates (which lands in pad positions or adds
    all-zero chunks) cannot change any distance, not even its last bit.
    B is walked in tiles of rows holding about _TILE_FLOATS values; a
    distance does not depend on the tile it falls in.
    """
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1] or not A.shape[1] or A.shape[1] % _DIST_CHUNK:
        raise DomainError(
            f"operands must be 2-D with one width, a positive multiple of {_DIST_CHUNK}; "
            f"got {A.shape} and {B.shape}"
        )
    n_b, dim = B.shape
    tile = max(1, _TILE_FLOATS // dim)
    out = np.empty((A.shape[0], n_b))
    chunks = np.empty((n_b, dim // _DIST_CHUNK))
    for acc, row in zip(out, A):
        for start in range(0, n_b, tile):
            parts = (B[start:start + tile] - row).reshape(-1, dim // _DIST_CHUNK, _DIST_CHUNK)
            np.einsum("ijk,ijk->ij", parts, parts, out=chunks[start:start + tile])
        acc[:] = chunks[:, 0]
        for k in range(1, chunks.shape[1]):
            acc += chunks[:, k]
    return np.sqrt(out, out=out)


def _stack_checked(features: Sequence[FeatureVector]) -> tuple[np.ndarray, str, int]:
    """Stack one-layout vectors into rows zero-padded to the chunk width.

    Returns the padded matrix, the layout id and the unpadded length.
    """
    if len(features) == 0:
        raise ConfigError("need at least one feature vector")
    layout = features[0].layout_id
    dim = features[0].values.size
    X = np.zeros((len(features), dim + (-dim) % _DIST_CHUNK))
    for row, f in zip(X, features):
        if f.layout_id != layout:
            raise ConfigError(
                f"mixed feature layouts: {layout!r} vs {f.layout_id!r}"
            )
        if f.values.size != dim:
            raise ConfigError(
                f"feature length mismatch under layout {layout!r}: {dim} vs {f.values.size}"
            )
        row[:dim] = f.values
    return X, layout, dim


def _stack_probes(probes: Sequence[FeatureVector], layout: str, dim: int) -> np.ndarray:
    P, probe_layout, probe_dim = _stack_checked(probes)
    if probe_layout != layout:
        raise ConfigError(
            f"probe layout {probe_layout!r} does not match gallery {layout!r}"
        )
    if probe_dim != dim:
        raise ConfigError(
            f"probe length {probe_dim} does not match gallery dimension {dim}"
        )
    return P


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Pairwise Euclidean distances between gallery feature vectors."""

    ids: tuple[str, ...]
    distances: np.ndarray
    layout_id: str


def dissimilarity_matrix(features: Sequence[FeatureVector], ids: Sequence[str] | None = None) -> DissimilarityMatrix:
    """Pairwise Euclidean distance matrix of a feature list.

    Computed by pairwise_distances, so the matrix is exactly symmetric
    with a zero diagonal, and zero-padding a layout reproduces it bit
    for bit.
    """
    X, layout, _ = _stack_checked(features)
    n = X.shape[0]
    if ids is None:
        ids = tuple(str(i) for i in range(n))
    else:
        ids = tuple(str(i) for i in ids)
        if len(ids) != n:
            raise ConfigError(f"{len(ids)} ids for {n} feature vectors")
    return DissimilarityMatrix(ids=ids, distances=pairwise_distances(X, X), layout_id=layout)


def embed(probes: Sequence[FeatureVector], gallery: Sequence[FeatureVector]) -> np.ndarray:
    """Distances from every probe to every gallery vector, (n_probes, n_gallery)."""
    G, layout, dim = _stack_checked(gallery)
    return pairwise_distances(_stack_probes(probes, layout, dim), G)


@dataclass(frozen=True)
class TrainedModel:
    """Per-class discriminants over the dissimilarity embedding.

    Keeps the gallery features (a probe is embedded as its distances to
    them), zero-padded once to the distance kernel's chunk width, the
    stored column-mean offset of the training dissimilarity matrix, and
    the stacked weight matrix, one augmented weight column per class
    label.
    """

    layout_id: str
    feature_dim: int             # unpadded length of a feature vector
    class_labels: tuple
    gallery: np.ndarray          # (n_train, feature_dim padded to a multiple of 64)
    mean_offset: np.ndarray      # (n_train,)
    weights: np.ndarray          # (n_train + 1, n_classes)


def train_pfld(D: DissimilarityMatrix, subject_of: Mapping[str, object], gallery: Sequence[FeatureVector]) -> TrainedModel:
    """Fit one-vs-rest linear discriminants on the dissimilarity matrix.

    Args:
        D: training dissimilarity matrix.
        subject_of: image id -> subject label for every id in D.
        gallery: the feature vectors behind D, same order; stored on the
            model so probes can be embedded later.

    The solve is np.linalg.lstsq (SVD based) with rcond 1e-10, i.e. the
    minimum-norm least-squares solution per class.
    """
    missing = [i for i in D.ids if i not in subject_of]
    if missing:
        raise ConfigError(f"no subject label for gallery ids {missing[:5]}")
    X, layout, dim = _stack_checked(gallery)
    if layout != D.layout_id or X.shape[0] != len(D.ids):
        raise ConfigError("gallery does not match the dissimilarity matrix")
    labels = [subject_of[i] for i in D.ids]
    class_labels = tuple(sorted(set(labels)))
    if len(class_labels) < 2:
        raise ConfigError(f"need >= 2 classes, got {len(class_labels)}")
    n = len(labels)
    mean_offset = D.distances.mean(axis=0)
    centered = D.distances - mean_offset
    design = np.hstack([centered, np.ones((n, 1))])
    targets = np.where(
        np.array(labels, dtype=object)[:, None] == np.array(class_labels, dtype=object)[None, :],
        1.0,
        -1.0,
    )
    weights, _, _, _ = np.linalg.lstsq(design, targets, rcond=_SVD_CUTOFF)
    return TrainedModel(
        layout_id=layout,
        feature_dim=dim,
        class_labels=class_labels,
        gallery=X,
        mean_offset=mean_offset,
        weights=weights,
    )


def _posterior(raw: np.ndarray) -> np.ndarray:
    # Logistic squash, numerically stable on both tails, then normalized
    # to sum 1 across the classes of each row.  A row whose every class
    # underflowed to 0 carries no information and becomes uniform.
    tail = np.exp(-np.abs(raw))
    p = np.where(raw >= 0, 1.0 / (1.0 + tail), tail / (1.0 + tail))
    total = p.sum(axis=-1, keepdims=True)
    dead = total <= 0.0
    return np.where(dead, 1.0 / p.shape[-1], p / np.where(dead, 1.0, total))


@dataclass(frozen=True)
class ClassScores:
    """Raw discriminant outputs and normalized posteriors per class."""

    class_labels: tuple
    raw: np.ndarray
    posterior: np.ndarray

    @property
    def predicted(self):
        # np.argmax takes the first maximum, i.e. the lowest class index.
        return self.class_labels[int(np.argmax(self.posterior))]


def classify(model: TrainedModel, probe: FeatureVector) -> ClassScores:
    """Score one probe against every class of a trained model.

    The probe is embedded as its distances to the stored gallery, so its
    scores never depend on any other probe.
    """
    row = _stack_probes([probe], model.layout_id, model.feature_dim)
    d = pairwise_distances(row, model.gallery)[0]
    raw = np.concatenate([d - model.mean_offset, [1.0]]) @ model.weights
    return ClassScores(class_labels=model.class_labels, raw=raw, posterior=_posterior(raw))


def score(model: TrainedModel, probes: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    """Raw discriminant outputs and posteriors of probes, each (n_probes, n_classes).

    Row r is classify(model, probes[r]); columns follow model.class_labels.
    """
    if len(probes) == 0:
        raise ConfigError("need at least one probe")
    rows = [classify(model, probe) for probe in probes]
    return np.array([r.raw for r in rows]), np.array([r.posterior for r in rows])


def fuse_max(*scored: tuple[tuple, np.ndarray]) -> np.ndarray:
    """Max-rule fusion of (class_labels, posterior matrix) pairs.

    Returns the per-class maximum over the posteriors; one pair comes
    back unchanged.  All pairs must carry the identical class label
    tuple.  A row-wise np.argmax of the result resolves ties to the
    lower class index.
    """
    labels = scored[0][0]
    if any(other != labels for other, _ in scored[1:]):
        raise ConfigError("cannot fuse scores over different class label sets")
    return np.maximum.reduce([posterior for _, posterior in scored])
