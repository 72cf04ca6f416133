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

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .classifier import dissimilarity_matrix, embed, fuse_max, score, train_pfld
from .errors import ConfigError, DomainError
from .features import FeatureVector
from .fileio import atomic_write_text

Entry = tuple[str, str]  # (image id, subject id)

# Features per (probes, gallery, block) gap array in per_feature_error_rates:
# 200 probes x 200 gallery images x 16 features is 5 MB.
_FEATURE_BLOCK = 16


@dataclass(frozen=True)
class SplitSpec:
    """Random gallery/probe split parameters.

    k_train images per subject are drawn without replacement per
    repetition; n_subjects limits the experiment to the first so many
    subjects in id order (None keeps all).  Repetition r uses the RNG
    stream seeded with seed XOR r.
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


def _grouped(entries: Sequence[Entry], spec: SplitSpec) -> list[tuple[str, list[str]]]:
    groups: dict[str, list[str]] = {}
    for image_id, subject_id in entries:
        groups.setdefault(str(subject_id), []).append(str(image_id))
    subjects = sorted(groups)
    if spec.n_subjects is not None:
        if spec.n_subjects > len(subjects):
            raise ConfigError(
                f"n_subjects {spec.n_subjects} exceeds available {len(subjects)}"
            )
        subjects = subjects[: spec.n_subjects]
    out = []
    for s in subjects:
        images = sorted(groups[s])
        if len(images) <= spec.k_train:
            raise ConfigError(
                f"subject {s!r} has {len(images)} images; need more than "
                f"k_train={spec.k_train} for a nonempty probe set"
            )
        out.append((s, images))
    return out


def random_split(entries: Sequence[Entry], spec: SplitSpec, repetition_index: int) -> tuple[list[str], list[str]]:
    """Deterministic per-(seed, repetition) gallery/probe id split."""
    if repetition_index < 0:
        raise DomainError(f"repetition_index must be >= 0, got {repetition_index}")
    rng = np.random.default_rng(spec.seed ^ repetition_index)
    train: list[str] = []
    test: list[str] = []
    for _, images in _grouped(entries, spec):
        picked = rng.permutation(len(images))[: spec.k_train]
        chosen = {images[j] for j in picked}
        train.extend(i for i in images if i in chosen)
        test.extend(i for i in images if i not in chosen)
    return train, test


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
    orientation: str


@dataclass(frozen=True)
class EERResult:
    eer: float
    threshold_low: float
    threshold_high: float


@dataclass(frozen=True)
class EvalReport:
    mean_error: float
    sem: float
    rep_errors: np.ndarray
    cmc: CMCCurve | None = None
    roc: ROCCurve | None = None
    eer: EERResult | None = None
    feature_errors: np.ndarray | None = None


# A factory fits on (train ids, subject_of) and returns a function that
# predicts the subjects of a list of probe ids.
PredictorFactory = Callable[[list[str], Mapping[str, str]], Callable[[Sequence[str]], list]]


def fit_pfld(features: Mapping[str, FeatureVector], train_ids: Sequence[str], subject_of: Mapping[str, str]):
    """Train a PFLD on the listed gallery ids of one feature table."""
    gallery = [features[i] for i in train_ids]
    D = dissimilarity_matrix(gallery, ids=train_ids)
    return train_pfld(D, subject_of, gallery)


def _fit_posteriors(tables: Sequence[Mapping[str, FeatureVector]], train_ids, subject_of):
    """Fit one PFLD per feature table on the gallery ids.

    Returns the class label tuple and a function from probe ids to their
    posterior matrix, max-rule fused across the tables.
    """
    models = [fit_pfld(table, train_ids, subject_of) for table in tables]

    def posteriors(probe_ids: Sequence[str]) -> np.ndarray:
        return fuse_max(*(
            (model.class_labels, score(model, [table[p] for p in probe_ids])[1])
            for model, table in zip(models, tables)
        ))

    return models[0].class_labels, posteriors


def _predictor(tables: Sequence[Mapping[str, FeatureVector]]) -> PredictorFactory:
    def factory(train_ids, subject_of):
        labels, posteriors = _fit_posteriors(tables, train_ids, subject_of)

        def predict(probe_ids):
            # np.argmax takes the first maximum, i.e. the lowest class index.
            return [labels[j] for j in np.argmax(posteriors(probe_ids), axis=1)]

        return predict

    return factory


def pfld_predictor(features: Mapping[str, FeatureVector]) -> PredictorFactory:
    """Factory for single-spectrum PFLD prediction."""
    return _predictor((features,))


def fused_predictor(features_a: Mapping[str, FeatureVector], features_b: Mapping[str, FeatureVector]) -> PredictorFactory:
    """Factory fusing two spectra with the max rule."""
    return _predictor((features_a, features_b))


def run_error_experiment(entries: Sequence[Entry], spec: SplitSpec, predictor_factory: PredictorFactory) -> EvalReport:
    """Mean percent misclassified over repeated random splits."""
    subject_of = {str(i): str(s) for i, s in entries}
    errors = []
    for rep in range(spec.repetitions):
        train_ids, test_ids = random_split(entries, spec, rep)
        predicted = predictor_factory(train_ids, subject_of)(test_ids)
        wrong = sum(1 for pid, label in zip(test_ids, predicted) if str(label) != subject_of[pid])
        errors.append(100.0 * wrong / len(test_ids))
    errors = np.array(errors)
    return EvalReport(
        mean_error=float(errors.mean()),
        sem=sem_value(errors),
        rep_errors=errors,
    )


def score_matrix(
    features: Mapping[str, FeatureVector],
    train_ids: Sequence[str],
    probe_ids: Sequence[str],
    subject_of: Mapping[str, str],
    features_b: Mapping[str, FeatureVector] | None = None,
):
    """Posterior score matrix (n_probes x n_classes) plus the label tuple.

    With features_b given, scores are max-rule fused posteriors.
    """
    tables = (features,) if features_b is None else (features, features_b)
    labels, posteriors = _fit_posteriors(tables, train_ids, subject_of)
    return posteriors(probe_ids), labels


def embedding_matrix(
    features: Mapping[str, FeatureVector],
    train_ids: Sequence[str],
    probe_ids: Sequence[str],
    subject_of: Mapping[str, str],
):
    """Distance from each probe to the nearest gallery vector of every
    subject (n_probes x n_classes) plus the sorted label tuple; the
    scores are distance-like by construction."""
    d = embed([features[p] for p in probe_ids], [features[i] for i in train_ids])
    gallery_labels = np.array([str(subject_of[i]) for i in train_ids], dtype=object)
    labels = tuple(sorted(set(gallery_labels)))
    nearest = [d[:, gallery_labels == label].min(axis=1) for label in labels]
    return np.stack(nearest, axis=1), labels


def cmc(scores: np.ndarray, true_subjects: Sequence[str], class_labels: Sequence) -> CMCCurve:
    """Cumulative match curve; tied scores take the worst rank."""
    scores = np.asarray(scores, dtype=float)
    labels = list(class_labels)
    if scores.ndim != 2 or scores.shape[0] != len(true_subjects):
        raise ConfigError("score matrix and true subject list do not align")
    if scores.shape[1] != len(labels):
        raise ConfigError("score matrix and class label list do not align")
    index_of = {label: j for j, label in enumerate(labels)}
    n_classes = len(labels)
    hits = np.zeros(n_classes)
    for row, truth in zip(scores, true_subjects):
        try:
            j = index_of[truth]
        except KeyError:
            raise DomainError(f"probe subject {truth!r} not among the classes") from None
        rank = int(np.sum(row >= row[j]))  # worst rank among ties
        hits[rank - 1] += 1
    proportions = np.cumsum(hits) / scores.shape[0]
    return CMCCurve(proportions=proportions)


def verification_pairs(
    scores: np.ndarray,
    true_subjects: Sequence[str],
    class_labels: Sequence,
    orientation: str = "distance",
) -> tuple[np.ndarray, np.ndarray]:
    """Split claim scores into genuine and impostor sets.

    Posterior scores are converted to the requested orientation:
    "distance" uses 1 - posterior (confirm low), "similarity" keeps the
    posterior (confirm high).
    """
    if orientation not in ("distance", "similarity"):
        raise ConfigError(f"unknown score orientation {orientation!r}")
    scores = np.asarray(scores, dtype=float)
    labels = list(class_labels)
    index_of = {label: j for j, label in enumerate(labels)}
    truth_idx = np.array([index_of[t] for t in true_subjects])
    claim = scores if orientation == "similarity" else 1.0 - scores
    mask = np.zeros_like(claim, dtype=bool)
    mask[np.arange(len(truth_idx)), truth_idx] = True
    return claim[mask].ravel(), claim[~mask].ravel()


def verification_roc(genuine, impostor, orientation: str = "distance") -> ROCCurve:
    """Verification and false-alarm rates over 100 equally spaced
    thresholds spanning the observed score range."""
    if orientation not in ("distance", "similarity"):
        raise ConfigError(f"unknown score orientation {orientation!r}")
    genuine = np.asarray(genuine, dtype=float)
    impostor = np.asarray(impostor, dtype=float)
    if genuine.size == 0 or impostor.size == 0:
        raise DomainError("both genuine and impostor score sets must be nonempty")
    pool = np.concatenate([genuine, impostor])
    thresholds = np.linspace(pool.min(), pool.max(), 100)
    if orientation == "distance":
        p_verify = np.array([np.mean(genuine <= t) for t in thresholds])
        p_false = np.array([np.mean(impostor <= t) for t in thresholds])
    else:
        p_verify = np.array([np.mean(genuine >= t) for t in thresholds])
        p_false = np.array([np.mean(impostor >= t) for t in thresholds])
    return ROCCurve(
        thresholds=thresholds,
        p_verify=p_verify,
        p_false_alarm=p_false,
        orientation=orientation,
    )


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


def per_feature_error_rates(entries: Sequence[Entry], values: np.ndarray, spec: SplitSpec) -> np.ndarray:
    """Mean 1-NN percent error of every single feature over the splits.

    `values` rows align with `entries`.  Nearest-neighbor ties take the
    lowest training index (train ids in sorted order).
    """
    values = np.asarray(values, dtype=float)
    ids = [str(i) for i, _ in entries]
    subjects = np.array([str(s) for _, s in entries], dtype=object)
    if values.shape[0] != len(ids):
        raise ConfigError("value matrix rows and entries do not align")
    row_of = {i: r for r, i in enumerate(ids)}
    n_features = values.shape[1]
    total = np.zeros(n_features)
    for rep in range(spec.repetitions):
        train_ids, test_ids = random_split(entries, spec, rep)
        tr = np.array([row_of[i] for i in train_ids])
        te = np.array([row_of[i] for i in test_ids])
        tr_labels = subjects[tr]
        te_labels = subjects[te]
        wrong = np.zeros(n_features)
        for start in range(0, n_features, _FEATURE_BLOCK):
            stop = min(start + _FEATURE_BLOCK, n_features)
            gaps = np.abs(
                values[te, start:stop][:, None, :] - values[tr, start:stop][None, :, :]
            )
            nn = np.argmin(gaps, axis=1)  # first minimum = lowest train index
            predicted = tr_labels[nn]
            wrong[start:stop] = (predicted != te_labels[:, None]).mean(axis=0)
        total += 100.0 * wrong
    return total / spec.repetitions


def learning_curve(entries: Sequence[Entry], spec: SplitSpec, predictor_factory: PredictorFactory, k_values: Sequence[int]):
    """Error experiments over several gallery sizes; returns
    [(k, EvalReport), ...] in the given order."""
    out = []
    for k in k_values:
        out.append((k, run_error_experiment(entries, replace(spec, k_train=k), predictor_factory)))
    return out


def subject_count_curve(entries: Sequence[Entry], spec: SplitSpec, predictor_factory: PredictorFactory, counts: Sequence[int]):
    """Error experiments over several gallery subject counts."""
    out = []
    for c in counts:
        out.append((c, run_error_experiment(entries, replace(spec, n_subjects=c), predictor_factory)))
    return out


def build_cmc_csv(curve: CMCCurve) -> str:
    lines = ["rank,proportion"]
    for r, p in zip(curve.ranks, curve.proportions):
        lines.append(f"{r},{p:.17g}")
    return "\n".join(lines) + "\n"


def build_roc_csv(curve: ROCCurve) -> str:
    lines = ["threshold,p_verify,p_false_alarm"]
    for t, pv, pf in zip(curve.thresholds, curve.p_verify, curve.p_false_alarm):
        lines.append(f"{t:.17g},{pv:.17g},{pf:.17g}")
    return "\n".join(lines) + "\n"


def build_summary_csv(rows) -> str:
    """rows: (experiment_id, mean, sem, eer-or-None)."""
    lines = ["experiment_id,mean,sem,eer"]
    for exp_id, mean, sem, eer in rows:
        eer_text = "" if eer is None else f"{eer:.17g}"
        lines.append(f"{exp_id},{mean:.17g},{sem:.17g},{eer_text}")
    return "\n".join(lines) + "\n"


def build_matrix_csv(matrix: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(np.asarray(matrix, dtype=float)):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_cmc_csv(path, curve: CMCCurve) -> None:
    atomic_write_text(path, build_cmc_csv(curve))


def write_roc_csv(path, curve: ROCCurve) -> None:
    atomic_write_text(path, build_roc_csv(curve))


def write_summary_csv(path, rows) -> None:
    atomic_write_text(path, build_summary_csv(rows))


def write_matrix_csv(path, matrix) -> None:
    atomic_write_text(path, build_matrix_csv(matrix))
