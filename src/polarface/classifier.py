"""Dissimilarity-space classification.

Feature vectors are re-represented by their Euclidean distances to the
training (gallery) set.  Every such distance is one cell of the N x N
matrix over a feature table's images, so a run computes that matrix
once, from sliced BLAS Gram products of the column-centered table, and
slices each split's gallery block and probe rows from it.  In
that space a pseudo-Fisher linear discriminant is trained per class, one
against all others: the centered distance matrix gets a constant bias
column, and the minimum-norm least-squares solution of
[D_centered | 1] w = y (targets +1 for the class, -1 otherwise) is taken.
Distinct gallery images give a nonsingular distance matrix (Micchelli,
Constr. Approx. 2, 1986), so that design has full row rank and is solved
through QR of its transpose; repeated gallery images make it rank
deficient, and it goes to an SVD solve with relative cutoff 1e-10.  With
n_train <= dimension this interpolates the training targets, which makes
the discriminant usable even though classes have too few samples for a
classical within-scatter estimate.

Classifier outputs of two feature families are fused by the max rule on
their normalized posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .features import _SLICE, FeatureTable, _sliced_matmul

_SVD_CUTOFF = 1e-10  # relative singular value cutoff in the least-squares solve
_QR_RANK_BOUND = 1e-6  # a design whose min |R_ii| is at most this times its max |R_ii| goes to lstsq
_MAX_IMAGES = 20_000  # the distance matrix of a table: 3.2 GB of float64 at this size


def dissimilarity_matrix(table: FeatureTable) -> np.ndarray:
    """Euclidean distances between all rows of a feature table, (N, N).

    From the Gram matrix G of the rows once each column is centered on
    its mean, d^2 = G_ii + G_jj - 2 G_ij clamped at 0; centering moves no
    distance but keeps a large common offset (a spectrum's DC term) out
    of the rounding.  The centered values sit in zero-padded slices of
    _SLICE columns, and each block of _SLICE rows of G is _sliced_matmul's
    sum over them, straight into the result.  So appending zero
    coordinates (into pad columns, or as all-zero slices adding exact
    zeros) changes no distance, not even its last bit.  The upper
    triangle is mirrored into the lower one, so d(a, b) == d(b, a) and
    d(a, a) == 0 exactly.  The slices hold N rounded up to a multiple of
    8 rows, the pad rows zero and cut from each block's product: OpenBLAS
    splits a block's columns between threads, and unless their count is a
    multiple of 8 its edge tiles round differently at another thread
    count.  A stored column of a table that stores repeated layout
    features once (FeatureTable.columns) is scaled by the square root of
    its repeat count.  Tables of more than _MAX_IMAGES
    images are refused before N^2 float64 are allocated.
    """
    n = len(table)
    if n > _MAX_IMAGES:
        raise ConfigError(
            f"{n} images would need a {n * n * 8 / 1e9:.1f} GB distance matrix; "
            f"at most {_MAX_IMAGES} images are supported"
        )
    dim = table.values.shape[1]
    if not dim:
        raise DomainError("a feature table needs at least one feature")
    width = dim + (-dim) % _SLICE
    repeats = np.ones(width) if table.columns is None else np.bincount(table.columns, minlength=width)
    slices = np.zeros((width // _SLICE, n + (-n) % 8, _SLICE))
    for k, part in enumerate(slices):
        cols, real = slice(k * _SLICE, (k + 1) * _SLICE), part[:n]
        real[:, :dim - k * _SLICE] = table.values[:, cols]
        real -= real.mean(axis=0)
        real *= np.sqrt(repeats[cols])
    D = np.empty((n, n))
    for start in range(0, n, _SLICE):
        D[start:start + _SLICE] = _sliced_matmul(slices[:, start:start + _SLICE], slices)[:n - start, :n]
    squares = D.diagonal().copy()
    D *= -2.0
    D += squares[:, None]
    D += squares
    np.sqrt(np.maximum(D, 0.0, out=D), out=D)
    for start in range(0, n, _SLICE):
        rows = slice(start, start + _SLICE)
        corner = np.triu(D[rows, rows], 1)
        D[rows, rows] = corner + corner.T
        D[start + _SLICE:, rows] = D[rows, start + _SLICE:].T
    return D


@dataclass(frozen=True)
class TrainedModel:
    """Per-class discriminants over the dissimilarity embedding.

    Keeps the column-mean offset of the training dissimilarity matrix
    and the stacked weight matrix, one augmented weight column per class
    label.  A probe is embedded as its distances to the training images,
    in training order.
    """

    class_labels: tuple
    mean_offset: np.ndarray      # (n_train,)
    weights: np.ndarray          # (n_train + 1, n_classes)


def train_pfld(distances: np.ndarray, labels: Sequence) -> TrainedModel:
    """Fit one-vs-rest linear discriminants on the dissimilarity matrix.

    Args:
        distances: (n_train, n_train) distances between the training
            images.
        labels: the subject label of each training image, in row order.

    The weights are the minimum-norm least-squares solution per class.
    With design.T = QR, a design of full row rank has the weights Q z
    where R.T z = targets, a lower-triangular system that _forward_solve
    solves in blocks of _SLICE rows.  QR without pivoting has no
    minimum-norm solution for a rank-deficient design: one whose
    smallest |R_ii| is at most _QR_RANK_BOUND times its largest goes to
    np.linalg.lstsq (SVD based) with rcond _SVD_CUTOFF.  That ratio is
    never below sigma_min / sigma_max; on near-duplicate gallery images it
    overstated it by at most 142x, less than the 1e4 between the two
    bounds, so QR took none of them that lstsq would truncate.
    """
    n = len(labels)
    if distances.shape != (n, n):
        raise ConfigError(
            f"a {distances.shape} dissimilarity matrix does not fit {n} training labels"
        )
    class_labels = tuple(sorted(set(labels)))
    if len(class_labels) < 2:
        raise ConfigError(f"need >= 2 classes, got {len(class_labels)}")
    mean_offset = distances.mean(axis=0)
    design = np.ones((n, n + 1))
    np.subtract(distances, mean_offset, out=design[:, :n])
    targets = np.where(
        np.array(labels, dtype=object)[:, None] == np.array(class_labels, dtype=object)[None, :],
        1.0,
        -1.0,
    )
    q, r = np.linalg.qr(design.T)
    pivots = np.abs(r.diagonal())
    if pivots.min() > _QR_RANK_BOUND * pivots.max():
        weights = q @ _forward_solve(r.T, targets)
    else:
        weights, _, _, _ = np.linalg.lstsq(design, targets, rcond=_SVD_CUTOFF)
    return TrainedModel(class_labels=class_labels, mean_offset=mean_offset, weights=weights)


def _forward_solve(lower: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """z with lower @ z == targets, for a lower-triangular (n, n) `lower`
    and (n, k) `targets`, by blocks of _SLICE rows.  A block's update from
    the solved rows above it is one _sliced_matmul and its diagonal block
    one np.linalg.solve, so no call sees more than _SLICE of an inner
    axis: one np.linalg.solve of a whole n = 200 system gives other bits
    at two BLAS threads than at one."""
    z = np.empty_like(targets)
    for start in range(0, len(lower), _SLICE):
        rows, done = slice(start, start + _SLICE), start // _SLICE
        left = lower[rows, :start]
        update = _sliced_matmul(left.reshape(len(left), done, _SLICE).transpose(1, 0, 2),
                                z[:start].reshape(done, _SLICE, z.shape[1]).transpose(0, 2, 1))
        z[rows] = np.linalg.solve(lower[rows, rows], targets[rows] - update)
    return z


def _posterior(raw: np.ndarray) -> np.ndarray:
    # Logistic squash, numerically stable on both tails, then normalized
    # to sum 1 across the classes of each row.  A row whose every class
    # underflowed to 0 carries no information and becomes uniform.
    tail = np.exp(-np.abs(raw))
    p = np.where(raw >= 0, 1.0 / (1.0 + tail), tail / (1.0 + tail))
    total = p.sum(axis=-1, keepdims=True)
    dead = total <= 0.0
    return np.where(dead, 1.0 / p.shape[-1], p / np.where(dead, 1.0, total))


def classify(model: TrainedModel, distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw discriminant outputs and posteriors of probes, each
    (n_probes, n_classes) with columns following model.class_labels.

    `distances` is (n_probes, n_train): rows of the dissimilarity matrix,
    columns in training order.  Each probe's embedding is multiplied by
    the weights as its own vector-matrix product (a stack of 1 x
    (n_train + 1) matrices, not one 2-D product, which BLAS may block
    differently for different probe counts), so a row's scores never
    depend on the other probes of the call.
    """
    if distances.ndim != 2 or distances.shape[1:] != model.mean_offset.shape:
        raise ConfigError(
            f"{distances.shape} probe distances do not fit {model.mean_offset.size} training images"
        )
    if not len(distances):
        raise ConfigError("need at least one probe")
    embedded = np.hstack([distances - model.mean_offset, np.ones((len(distances), 1))])
    raw = (embedded[:, None, :] @ model.weights)[:, 0]
    return raw, _posterior(raw)


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
