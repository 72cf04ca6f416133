"""Identification and verification experiments.

Protocols follow the repeated-random-split scheme: per repetition,
k images per subject go to the gallery and the rest become probes;
errors are averaged over repetitions and reported with the standard
error of the mean.  Rank curves (CMC) use the worst rank under ties;
verification sweeps 100 equally spaced thresholds over the observed
score range and confirms a claim when the distance-like score falls at
or below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .classifier import classify, fuse_max, train_pfld
from .errors import ConfigError, DomainError

Entry = tuple[str, str]  # (image id, subject id)

# Features sorted together in per_feature_error_rates; every intermediate
# but the direct argmin's chunks is at most (block, n_images + 2), 100 KB
# at 32 x 400.
_FEATURE_BLOCK = 32
_CERTIFY_SPACINGS = 4  # a sorted row's least adjacent gap, in spacings of 2 max|v|, for the two-neighbour rule
_ARGMIN_CELLS = 1 << 17  # gaps in one chunk of the direct argmin: 1 MB of float64
_MAX_MASK = 1 << 30  # booleans in one Split's gallery mask (repetitions x rows): 1 GiB


@dataclass(frozen=True)
class SplitSpec:
    """Random gallery/probe split parameters.

    k_train images per subject are drawn without replacement per
    repetition; n_subjects limits the experiment to the first so many
    subjects in id order (None keeps all).  Repetition r uses the RNG
    stream seeded with seed XOR r.  random_split gives the Split that
    holds every repetition of a spec.
    """

    k_train: int = 5
    n_subjects: int | None = None
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k_train < 1:
            raise ConfigError(f"k_train must be >= 1, got {self.k_train}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_subjects is not None and self.n_subjects < 2:
            raise ConfigError(f"n_subjects must be >= 2, got {self.n_subjects}")


@dataclass(frozen=True, eq=False)
class Split:
    """Every repetition of a SplitSpec over a list of entries.

    `rows` index the entries in canonical order (sorted subject, then
    sorted image id) and `subjects` is each of those rows' subject id.
    Repetition r's gallery rows are rows[train[r]] and its probe rows
    rows[~train[r]], both in canonical order.
    """

    rows: np.ndarray      # (n,) intp
    subjects: np.ndarray  # (n,) str, as objects
    spec: SplitSpec

    @cached_property
    def train(self) -> np.ndarray:
        """The (repetitions, n) boolean gallery mask, drawn on first use.

        Per repetition r, an RNG seeded with seed XOR r permutes each
        subject's rows in turn, in canonical order, and the first k_train
        positions of each permutation are that subject's gallery.  The
        draw waits for first use because importing numpy.random adds
        about 2.7 MB of resident memory, which a CLI run then pays after
        feature extraction, its memory peak, not during it.
        """
        sizes = np.unique(self.subjects, return_counts=True)[1]
        train = np.zeros((self.spec.repetitions, self.rows.size), dtype=bool)
        for rep, mask in enumerate(train):
            rng = np.random.default_rng(self.spec.seed ^ rep)
            for start, size in zip(np.cumsum(sizes) - sizes, sizes):
                mask[start + rng.permutation(int(size))[: self.spec.k_train]] = True
        return train


def random_split(entries: Sequence[Entry], spec: SplitSpec) -> Split:
    """The Split of `spec` over the (image id, subject) entries.

    Refuses a spec whose subject count or k_train the entries cannot
    satisfy, or whose gallery mask would hold more than _MAX_MASK
    booleans.
    """
    groups: dict[str, list[tuple[str, int]]] = {}
    for row, (image_id, subject_id) in enumerate(entries):
        groups.setdefault(str(subject_id), []).append((str(image_id), row))
    subjects = sorted(groups)
    if spec.n_subjects is not None:
        if spec.n_subjects > len(subjects):
            raise ConfigError(
                f"n_subjects {spec.n_subjects} exceeds available {len(subjects)}"
            )
        subjects = subjects[: spec.n_subjects]
    sizes = [len(groups[s]) for s in subjects]
    for s, size in zip(subjects, sizes):
        if size <= spec.k_train:
            raise ConfigError(
                f"subject {s!r} has {size} images; need more than "
                f"k_train={spec.k_train} for a nonempty probe set"
            )
    rows = np.array([row for s in subjects for _, row in sorted(groups[s])], dtype=np.intp)
    cells = spec.repetitions * rows.size
    if cells > _MAX_MASK:
        raise ConfigError(f"{spec.repetitions} repetitions of {rows.size} images need a {cells / 2**30:.3g} GiB "
                          f"gallery mask; at most {_MAX_MASK / 2**30:g} GiB is supported")
    return Split(rows, np.repeat(np.array(subjects, dtype=object), sizes), spec)


def sem_value(values) -> float:
    """Standard error of the mean; 0.0 for a single value."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(arr.std(ddof=1) / np.sqrt(arr.size))


@dataclass(frozen=True)
class CMCCurve:
    """proportions[r-1] = fraction of probes whose true subject ranks <= r."""

    proportions: np.ndarray

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, self.proportions.size + 1)


@dataclass(frozen=True)
class ROCCurve:
    thresholds: np.ndarray
    p_verify: np.ndarray
    p_false_alarm: np.ndarray


@dataclass(frozen=True)
class EERResult:
    eer: float
    threshold_low: float
    threshold_high: float


def score_matrix(
    matrices: Sequence[np.ndarray],
    train_rows: np.ndarray,
    probe_rows: np.ndarray,
    train_labels: Sequence,
) -> tuple[np.ndarray, tuple]:
    """Posterior score matrix (n_probes x n_classes) plus the class label tuple.

    Rows index the dissimilarity matrices, one per spectrum.  One PFLD is
    fitted per matrix on its gallery block and scores the probe rows;
    several matrices give max-rule fused posteriors.
    """
    models = [train_pfld(D[np.ix_(train_rows, train_rows)], train_labels) for D in matrices]
    posteriors = fuse_max(*(
        (model.class_labels, classify(model, D[np.ix_(probe_rows, train_rows)])[1])
        for model, D in zip(models, matrices)
    ))
    return posteriors, models[0].class_labels


def run_error_experiment(split: Split, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Percent misclassified in each of the split's repetitions, each probe
    taking the class of its highest (fused) posterior; `matrices` index
    the entries the split was drawn from."""
    errors = []
    for train in split.train:
        truths = split.subjects[~train]
        posteriors, labels = score_matrix(matrices, split.rows[train], split.rows[~train], split.subjects[train])
        # np.argmax takes the first maximum, i.e. the lowest class index.
        predicted = np.array(labels, dtype=object)[np.argmax(posteriors, axis=1)]
        errors.append(100.0 * np.count_nonzero(predicted != truths) / truths.size)
    return np.array(errors)


def embedding_matrix(
    distances: np.ndarray,
    train_rows: np.ndarray,
    probe_rows: np.ndarray,
    train_labels: Sequence,
):
    """Distance from each probe to the nearest gallery image of every
    subject (n_probes x n_classes) plus the sorted label tuple; the
    scores are distance-like by construction."""
    d = distances[np.ix_(probe_rows, train_rows)]
    gallery_labels = np.array([str(label) for label in train_labels], dtype=object)
    labels = tuple(sorted(set(gallery_labels)))
    nearest = [d[:, gallery_labels == label].min(axis=1) for label in labels]
    return np.stack(nearest, axis=1), labels


def _truth_columns(scores, true_subjects: Sequence[str], class_labels: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The score matrix as floats and the column of each probe's true
    subject; refuses a matrix that is not one row per probe and one
    column per class, a non-finite score, and a subject that is not a
    class."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != len(true_subjects):
        raise ConfigError("score matrix and true subject list do not align")
    if scores.shape[1] != len(class_labels):
        raise ConfigError("score matrix and class label list do not align")
    if not np.isfinite(scores).all():
        raise DomainError("scores must be finite")
    index_of = {label: j for j, label in enumerate(class_labels)}
    try:
        return scores, np.array([index_of[t] for t in true_subjects], dtype=np.intp)
    except KeyError as exc:
        raise DomainError(f"probe subject {exc.args[0]!r} not among the classes") from None


def cmc(scores: np.ndarray, true_subjects: Sequence[str], class_labels: Sequence) -> CMCCurve:
    """Cumulative match curve; tied scores take the worst rank."""
    scores, truth = _truth_columns(scores, true_subjects, class_labels)
    n_probes, n_classes = scores.shape
    own = scores[np.arange(n_probes), truth]
    ranks = np.count_nonzero(scores >= own[:, None], axis=1)  # worst rank among ties
    hits = np.bincount(ranks - 1, minlength=n_classes)
    return CMCCurve(proportions=np.cumsum(hits) / n_probes)


def verification_pairs(
    claims: np.ndarray,
    true_subjects: Sequence[str],
    class_labels: Sequence,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a claim score matrix, one row per probe and one column per
    class, into genuine claims (each probe's own subject) and impostor
    claims (every other class), both in row-major order."""
    claims, truth = _truth_columns(claims, true_subjects, class_labels)
    mask = np.zeros_like(claims, dtype=bool)
    mask[np.arange(truth.size), truth] = True
    return claims[mask].ravel(), claims[~mask].ravel()


def verification_roc(genuine, impostor, orientation: str = "distance") -> ROCCurve:
    """Verification and false-alarm rates over 100 equally spaced
    thresholds spanning the observed score range.

    Each score set is sorted once; the number of scores at or below (at
    or above) every threshold is read from it by binary search.  These
    are exact counts, so each rate equals the mean of the boolean
    comparison.
    """
    if orientation not in ("distance", "similarity"):
        raise ConfigError(f"unknown score orientation {orientation!r}")
    genuine = np.asarray(genuine, dtype=float)
    impostor = np.asarray(impostor, dtype=float)
    if genuine.size == 0 or impostor.size == 0:
        raise DomainError("both genuine and impostor score sets must be nonempty")
    pool = np.concatenate([genuine, impostor])
    if not np.isfinite(pool).all():
        raise DomainError("verification scores must be finite")
    thresholds = np.linspace(pool.min(), pool.max(), 100)

    def rate(scores):
        ordered = np.sort(scores)
        if orientation == "distance":
            return np.searchsorted(ordered, thresholds, "right") / scores.size
        return (scores.size - np.searchsorted(ordered, thresholds, "left")) / scores.size

    return ROCCurve(thresholds=thresholds, p_verify=rate(genuine), p_false_alarm=rate(impostor))


def equal_error_rate(roc: ROCCurve) -> EERResult:
    """Error value where miss rate and false-alarm rate cross.

    Reported at the threshold minimizing |(1 - P_V) - P_F|, together
    with the pair of consecutive thresholds bracketing the crossing.
    """
    miss = 1.0 - roc.p_verify
    gap = miss - roc.p_false_alarm
    idx = int(np.argmin(np.abs(gap)))
    eer = 0.5 * (miss[idx] + roc.p_false_alarm[idx])
    lo = hi = roc.thresholds[idx]
    if idx + 1 < gap.size and gap[idx] * gap[idx + 1] <= 0.0:
        lo, hi = roc.thresholds[idx], roc.thresholds[idx + 1]
    elif idx > 0 and gap[idx - 1] * gap[idx] <= 0.0:
        lo, hi = roc.thresholds[idx - 1], roc.thresholds[idx]
    return EERResult(eer=float(eer), threshold_low=float(lo), threshold_high=float(hi))


def per_feature_error_rates(entries: Sequence[Entry], values: np.ndarray, split: Split) -> np.ndarray:
    """Mean 1-NN percent error of every single feature over the
    repetitions of a split drawn from `entries`.

    `values` is (n_images, n_features) with rows aligned with `entries`
    and must be finite.  A probe takes the subject of the training image
    with the smallest gap |probe - train| in float arithmetic; equal
    gaps go to the lowest training index, train rows in the split's
    canonical order.  The result equals the brute-force argmin over
    every (probe, train) gap exactly.

    Rows are permuted once into that canonical order (sorted subject,
    then sorted image id), so training index order is row order, and of
    two rows the lower index has the lower or equal subject code.  Each
    feature is sorted once, in blocks of _FEATURE_BLOCK features, and
    certified when every adjacent gap of its sorted values v exceeds
    _CERTIFY_SPACINGS = 4 spacings s of 2 max|v| (never, if 2 max|v|
    overflows).  Why that settles every probe of the row:

    - Every gap |p - t| is at most 2 max|v|, so rounding moves it by at
      most s / 2.  Rounding is monotone and 4 s is a float, so the exact
      adjacent gaps exceed 4 s as well, and no two values are equal.
    - A training value farther out on the same side of a probe than the
      nearest one is more than 4 s farther away exactly, so its rounded
      gap exceeds the nearest one's by more than 3 s: never equal.
    - So the brute-force argmin is the nearer of the last training value
      below the probe and the first above it, and on equal gaps the one
      with the lower index, that is the lower or equal subject code.

    Each certified row is laid out between a -inf and a +inf sentinel
    that count as training values, so every probe has a neighbour on
    both sides within its row.  Per repetition, a probe's position less
    the number of probes before it counts the training values before it,
    which names both neighbours.  A row that is not certified (repeated
    values, or values within the margin) goes to a direct argmin over
    the training rows in canonical order, _argmin_errors.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigError(f"values must be (n_images, n_features), got shape {values.shape}")
    if values.shape[0] != len(entries):
        raise ConfigError("value matrix rows and entries do not align")
    if not np.isfinite(values).all():
        raise DomainError("feature values must be finite")
    rows, train = split.rows, split.train
    # int32 gathers faster than intp; _MAX_MASK keeps the row count below 2**31
    codes = np.unique(split.subjects, return_inverse=True)[1].astype(np.int32)
    n_features = values.shape[1]
    n_probes = (~train).sum(axis=1)
    total = np.zeros(n_features)
    for start in range(0, n_features, _FEATURE_BLOCK):
        stop = min(start + _FEATURE_BLOCK, n_features)
        block = values[rows, start:stop].T
        order = np.argsort(block, axis=1)
        ordered = np.take_along_axis(block, order, axis=1)
        with np.errstate(over="ignore"):  # 2 max|v| = inf: spacing nan, row not certified
            margin = _CERTIFY_SPACINGS * np.spacing(2.0 * np.abs(block).max(axis=1))
        certified = (np.diff(ordered, axis=1) > margin[:, None]).all(axis=1)
        order = order[certified]
        padded = np.full((len(order), block.shape[1] + 2), np.inf)
        padded[:, 0] = -np.inf
        padded[:, 1:-1] = ordered[certified]
        labels = np.zeros(padded.shape, dtype=codes.dtype)  # a sentinel's infinite gap never wins
        labels[:, 1:-1] = codes[order]
        in_train = np.ones(padded.shape, dtype=bool)
        tied = block[~certified]
        wrong = np.empty(stop - start, dtype=np.intp)
        for mask, n_probe in zip(train, n_probes):
            in_train[:, 1:-1] = mask[order]
            wrong[certified] = _two_neighbour_errors(padded, labels, in_train, n_probe)
            if len(tied):
                wrong[~certified] = _argmin_errors(tied, mask, codes)
            total[start:stop] += 100.0 * (wrong / n_probe)
    return total / len(train)


def _two_neighbour_errors(padded: np.ndarray, labels: np.ndarray, in_train: np.ndarray,
                          n_probe: int) -> np.ndarray:
    """Wrong answers per certified row: `padded` holds each row's sorted
    values between its sentinels, `labels` their subject codes and
    `in_train` which of them count as training values, with n_probe
    probes in every row."""
    in_train = in_train.ravel()
    probes = np.flatnonzero(~in_train)
    at = np.flatnonzero(in_train)
    count = probes - np.arange(probes.size)  # training values before each probe
    above, below = at[count], at[count - 1]
    v, label = padded.ravel(), labels.ravel()
    p = v[probes]
    gap_below, gap_above = p - v[below], v[above] - p
    label_below, label_above = label[below], label[above]
    take_above = (gap_above < gap_below) | ((gap_above == gap_below) & (label_above < label_below))
    predicted = np.where(take_above, label_above, label_below)
    return np.count_nonzero((predicted != label[probes]).reshape(-1, n_probe), axis=1)


def _argmin_errors(block: np.ndarray, mask: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Wrong answers per row of a (features, images) block in canonical
    order, each probe taking the code of the first training value at its
    smallest gap, as the brute-force argmin does.  A chunk's gap matrix
    holds whole rows of probes where they fit, and at most _ARGMIN_CELLS
    values."""
    train_values, probes = block.compress(mask, axis=1), block.compress(~mask, axis=1)  # C order, unlike block[:, mask]
    train_codes, n_probe = codes[mask], probes.shape[1]
    probe_step = max(1, _ARGMIN_CELLS // train_codes.size)
    row_step = max(1, probe_step // n_probe)
    predicted = np.empty(probes.shape, dtype=codes.dtype)
    buffer = np.empty((min(row_step, len(block)), min(probe_step, n_probe), train_codes.size))
    for r in range(0, len(block), row_step):
        rows = slice(r, r + row_step)
        for lo in range(0, n_probe, probe_step):
            part = probes[rows, lo:lo + probe_step, None]
            gaps = buffer[:part.shape[0], :part.shape[1]]
            np.copyto(gaps, part)
            gaps -= train_values[rows, None, :]  # faster than np.subtract of two broadcast operands
            predicted[rows, lo:lo + probe_step] = train_codes[np.abs(gaps, out=gaps).argmin(axis=2)]
    return np.count_nonzero(predicted != codes[~mask], axis=1)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if "," in text or "\n" in text:
        raise ConfigError(f"a CSV cell may not contain a comma or newline: {text!r}")
    return text


def csv_text(header: str | None, rows) -> str:
    """The one CSV format: a header line (none when header is None) and
    one line per row; floats (numpy float64 included) as .17g, None as
    an empty cell, anything else as str, refused if it holds a comma or
    newline."""
    lines = [] if header is None else [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
