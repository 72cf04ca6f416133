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
# is (block, n_images), 100 KB at 32 x 400.
_FEATURE_BLOCK = 32
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


class _SortedBlock:
    """The columns of a (features, images) block, each stably sorted and
    laid end to end in one flat array of rows of length n.

    Equal values form runs; within a run the images keep canonical
    order.  Lookups also read the out-of-row positions -1 and size, and
    mask out what they find there; values, canon and run_end carry one
    pad element for size.
    """

    def __init__(self, block: np.ndarray):
        self.n = n = block.shape[1]
        order = np.argsort(block, axis=1, kind="stable")
        size = order.size
        self.canon = np.append(order.ravel(), 0)  # canonical index of each value
        self.values = np.append(np.take_along_axis(block, order, axis=1).ravel(), 0.0)
        new_run = np.ones(size, dtype=bool)
        new_run[1:] = self.values[1:size] != self.values[: size - 1]
        new_run[::n] = True
        starts = np.flatnonzero(new_run)
        run = np.cumsum(new_run) - 1
        self.run_start = starts[run]
        self.run_end = np.append(np.append(starts[1:], size)[run], size)

    def nearest_train(self, train: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat position of each probe's nearest train value, the lowest
        canonical index among ties, given the train mask in sorted order
        and the flat positions of the probes.

        Returns the positions and a mask of the probes whose answer is
        not settled: a train value beyond the winning run rounds to the
        same gap, so the lowest index may lie farther out.
        """
        v, canon, run_start, run_end = self.values, self.canon, self.run_start, self.run_end
        # count[q] train values lie before position q: after[count[q]] is
        # the first train position >= q and before[count[q]] the last < q.
        count = np.zeros(train.size + 1, dtype=np.intp)
        np.cumsum(train, out=count[1:])
        bounds = np.concatenate(([-1], np.flatnonzero(train), [train.size]))
        before, after = bounds[:-1], bounds[1:]
        row_start = probes // self.n * self.n
        row_end = row_start + self.n
        p = v[probes]
        run_end_p = run_end[probes]
        at_run = count[run_start[probes]]
        own, below = after[at_run], before[at_run]
        above = after[count[run_end_p]]
        has_below, has_above = below >= row_start, above < row_end
        at_below_run = count[run_start[below]]
        below = after[at_below_run]  # the run's first train value: lowest index
        beyond_below = before[at_below_run]
        beyond_above = after[count[run_end[above]]]
        gap_below = np.abs(p - v[below])
        gap_above = np.abs(p - v[above])
        below_wins = has_below & (~has_above | (gap_below <= gap_above))
        above_wins = has_above & (~has_below | (gap_above <= gap_below))
        take_above = above_wins & ~(below_wins & (canon[below] < canon[above]))
        in_own_run = own < run_end_p
        pick = np.where(in_own_run, own, np.where(take_above, above, below))
        unresolved = ~in_own_run & (
            (below_wins & (beyond_below >= row_start)
             & (np.abs(p - v[beyond_below]) == gap_below))
            | (above_wins & (beyond_above < row_end)
               & (np.abs(p - v[beyond_above]) == gap_above))
        )
        return pick, unresolved


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
    then sorted image id), so training index order is row order.  Each
    column is sorted once, stably, in blocks of _FEATURE_BLOCK features:
    equal values form runs whose members keep canonical order, and the
    first train row of a run has its lowest index.  Per repetition, a
    running count of train values in sorted order gives every probe, and
    only the probes, its nearest train run below and above.  A probe whose
    own run holds a train row takes that row (gap 0).  Otherwise the
    smaller gap wins, and equal gaps go to the lower of the two runs'
    first indices.  Rounding is monotone, so a farther train value can
    never have a smaller gap, but it can round to the same gap; where
    the next train value beyond the winning run does, the probe is
    resolved by a direct argmin over all train rows.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigError(f"values must be (n_images, n_features), got shape {values.shape}")
    if values.shape[0] != len(entries):
        raise ConfigError("value matrix rows and entries do not align")
    if not np.isfinite(values).all():
        raise DomainError("feature values must be finite")
    rows, train = split.rows, split.train
    codes = np.unique(split.subjects, return_inverse=True)[1]
    n, n_features = rows.size, values.shape[1]
    n_probes = (~train).sum(axis=1)
    total = np.zeros(n_features)
    for start in range(0, n_features, _FEATURE_BLOCK):
        stop = min(start + _FEATURE_BLOCK, n_features)
        block = values[rows, start:stop].T
        sorted_block = _SortedBlock(block)
        canon = sorted_block.canon[:-1]
        labels = codes[canon]
        for mask, n_probe in zip(train, n_probes):
            in_train = mask[canon]
            probes = np.flatnonzero(~in_train)
            pick, unresolved = sorted_block.nearest_train(in_train, probes)
            predicted = labels[pick]
            if unresolved.any():
                train_rows = np.flatnonzero(mask)
                for j in np.flatnonzero(unresolved):
                    k = probes[j]
                    gaps = np.abs(sorted_block.values[k] - block[k // n, train_rows])
                    predicted[j] = codes[train_rows[np.argmin(gaps)]]
            # every feature row holds the same n_probe probes
            wrong = (predicted != labels[probes]).reshape(-1, n_probe).sum(axis=1)
            total[start:stop] += 100.0 * (wrong / n_probe)
    return total / len(train)


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
