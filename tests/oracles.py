"""Independent reference computations used across the test suite.

Nothing here may import package internals beyond the public API.
Bessel references come from mpmath and least-squares references from an
eigendecomposition of the Gram matrix, so they share no algorithm with
the implementation under test.  The remaining functions are the plain
one-row-at-a-time forms of vectorized package code, kept as references
that the fast paths must match, and test-only helpers that the package
no longer exports.
"""

import csv
import math
from pathlib import Path

import mpmath
import numpy as np

from polarface import (
    ConfigError,
    FBSpectrum,
    FBTConfig,
    FeatureVector,
    NormalizationConfig,
    ParseError,
    PolarGrid,
    bessel_j,
    bilinear_sample,
    build_root_table,
    dft_feature_frequencies,
    fbt,
    fbt_features,
    fuse_max,
    to_polar,
    train_pfld,
)

DATA = Path(__file__).parent / "data"


def frozen_roots() -> dict[tuple[int, int], float]:
    """The committed bisection-on-power-series zeros of J_n."""
    table = {}
    with open(DATA / "bessel_root_oracle.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            table[(int(row["order"]), int(row["index"]))] = float(row["root"])
    return table


def series_j(n: int, x, dps: int = 60) -> float:
    """J_n(x) by the ascending power series in mpmath arithmetic."""
    with mpmath.workdps(dps):
        half = mpmath.mpf(x) / 2
        term = half**n / mpmath.factorial(n)
        total = term
        quarter = -(half * half)
        k = 1
        while True:
            term = term * quarter / (k * (n + k))
            total += term
            if abs(term) < (abs(total) + mpmath.mpf(10) ** (-dps)) * mpmath.mpf(10) ** (-dps):
                return float(total)
            k += 1


def bisect_root_on_series(n: int, lo: float, hi: float, dps: int | None = None) -> float:
    """Bisection on series_j; the bracket must contain a sign change.

    The series loses ~0.44*x digits to cancellation, so the working
    precision grows with the bracket unless overridden.
    """
    if dps is None:
        dps = 60 + int(0.5 * float(hi))
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        fa = mpmath.mpf(series_j(n, a, dps))
        for _ in range(90):
            mid = (a + b) / 2
            fm = mpmath.mpf(series_j(n, mid, dps))
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        return float((a + b) / 2)


def min_norm_lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares via eigendecomposition of A^T A.

    pinv(A^T A) A^T y equals pinv(A) y for every A, so this reaches the
    same minimum-norm solution through a different numerical route than
    the SVD-based solver under test.
    """
    gram = A.T @ A
    evals, evecs = np.linalg.eigh(gram)
    cut = max(A.shape) * np.finfo(float).eps * (evals.max() if evals.size else 0.0)
    inv = np.where(evals > cut, 1.0 / np.where(evals > cut, evals, 1.0), 0.0)
    coef = evecs.T @ (A.T @ y)
    # scale each eigencoefficient, for single and stacked right-hand sides
    scaled = inv * coef if coef.ndim == 1 else inv[:, None] * coef
    return evecs @ scaled


def row_space_projector(A: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the row space of A (eigh route again)."""
    gram = A.T @ A
    evals, evecs = np.linalg.eigh(gram)
    cut = max(A.shape) * np.finfo(float).eps * (evals.max() if evals.size else 0.0)
    keep = evecs[:, evals > cut]
    return keep @ keep.T


def padded_rows(values) -> np.ndarray:
    """Vectors stacked as rows, zero-padded to a multiple of 64 columns."""
    X = np.atleast_2d(np.asarray(values, dtype=float))
    return np.pad(X, ((0, 0), (0, (-X.shape[1]) % 64)))


def distances_to(X, row) -> np.ndarray:
    """Euclidean distance from every row of X to `row`, one row at a time.

    Both operands are zero-padded to a multiple of 64 columns, the
    explicit differences squared, the squares summed within 64-wide
    chunks and the chunk sums added in order: the explicit-difference
    path that dissimilarity_matrix's Gram products replaced, and the
    reference they must stay within a stated rounding bound of.
    """
    diff = padded_rows(X) - padded_rows(row)
    parts = diff.reshape(diff.shape[0], -1, 64)
    chunks = np.einsum("ijk,ijk->ij", parts, parts)
    acc = chunks[:, 0].copy()
    for k in range(1, chunks.shape[1]):
        acc += chunks[:, k]
    return np.sqrt(acc)


def random_split_ids(entries, spec, repetition_index: int) -> tuple[list[str], list[str]]:
    """Gallery and probe image ids of one repetition, one subject at a
    time: the id-list form that random_split's rows and masks replaced.

    Subjects in sorted order (the first spec.n_subjects of them), each
    subject's ids sorted; an RNG seeded with seed XOR repetition_index
    permutes each subject's ids in turn and the first k_train positions
    go to the gallery.  Both lists keep sorted-subject, sorted-id order.
    """
    groups = {}
    for image_id, subject_id in entries:
        groups.setdefault(str(subject_id), []).append(str(image_id))
    subjects = sorted(groups)
    if spec.n_subjects is not None:
        if spec.n_subjects > len(subjects):
            raise ConfigError(f"n_subjects {spec.n_subjects} exceeds available {len(subjects)}")
        subjects = subjects[: spec.n_subjects]
    rng = np.random.default_rng(spec.seed ^ repetition_index)
    train, test = [], []
    for s in subjects:
        images = sorted(groups[s])
        if len(images) <= spec.k_train:
            raise ConfigError(f"subject {s!r} has {len(images)} images; need more than k_train={spec.k_train}")
        chosen = {images[j] for j in rng.permutation(len(images))[: spec.k_train]}
        train.extend(i for i in images if i in chosen)
        test.extend(i for i in images if i not in chosen)
    return train, test


def nearest_neighbor_single_feature(train, train_labels, probe, feature_index: int):
    """1-D nearest neighbor of a probe on one selected coefficient.

    `train` and `probe` are FeatureVectors.  Ties resolve to the lowest
    training index.
    """
    column = np.array([f.values[feature_index] for f in train])
    gaps = np.abs(column - probe.values[feature_index])
    return train_labels[int(np.argmin(gaps))]


def per_feature_error_rates_broadcast(entries, values, spec, block: int = 16) -> np.ndarray:
    """Mean 1-NN percent error of every single feature, by brute force.

    For each repetition and block of features, the full (probes x train
    x block) gap array is built and np.argmin takes the first minimum,
    i.e. the lowest training index with train ids in random_split_ids order.
    """
    values = np.asarray(values, dtype=float)
    ids = [str(i) for i, _ in entries]
    subjects = np.array([str(s) for _, s in entries], dtype=object)
    row_of = {i: r for r, i in enumerate(ids)}
    n_features = values.shape[1]
    total = np.zeros(n_features)
    for rep in range(spec.repetitions):
        train_ids, test_ids = random_split_ids(entries, spec, rep)
        tr = np.array([row_of[i] for i in train_ids])
        te = np.array([row_of[i] for i in test_ids])
        tr_labels = subjects[tr]
        te_labels = subjects[te]
        wrong = np.zeros(n_features)
        for start in range(0, n_features, block):
            stop = min(start + block, n_features)
            gaps = np.abs(
                values[te, start:stop][:, None, :] - values[tr, start:stop][None, :, :]
            )
            nn = np.argmin(gaps, axis=1)
            predicted = tr_labels[nn]
            wrong[start:stop] = (predicted != te_labels[:, None]).mean(axis=0)
        total += 100.0 * wrong
    return total / spec.repetitions


def classify_rows(model, distances) -> tuple[np.ndarray, np.ndarray]:
    """Raw outputs and posteriors of a (n_probes, n_train) distance matrix,
    one probe at a time: each row's embedding [d - mean_offset, 1] times
    the weights as a 1-D vector-matrix product, then the logistic squash
    of every class normalized to sum 1 (uniform where all underflow)."""
    raw = np.array([np.concatenate([row - model.mean_offset, [1.0]]) @ model.weights for row in distances])
    posterior = []
    for r in raw:
        tail = np.exp(-np.abs(r))
        p = np.where(r >= 0, 1.0 / (1.0 + tail), tail / (1.0 + tail))
        total = p.sum()
        posterior.append(p / total if total > 0.0 else np.full(p.size, 1.0 / p.size))
    return raw, np.array(posterior)


def cmc_loop(scores, true_subjects, class_labels) -> np.ndarray:
    """CMC proportions one probe at a time: a probe's rank is the number
    of classes scoring at least its true subject's score (the worst rank
    among ties)."""
    scores = np.asarray(scores, dtype=float)
    hits = np.zeros(scores.shape[1])
    for row, subject in zip(scores, true_subjects):
        j = list(class_labels).index(subject)
        hits[int(np.sum(row >= row[j])) - 1] += 1
    return np.cumsum(hits) / scores.shape[0]


def roc_loop(genuine, impostor, orientation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thresholds, verification and false-alarm rates one threshold at a
    time: the mean of each score set's comparison with every threshold."""
    genuine = np.asarray(genuine, dtype=float)
    impostor = np.asarray(impostor, dtype=float)
    pool = np.concatenate([genuine, impostor])
    thresholds = np.linspace(pool.min(), pool.max(), 100)
    accept = np.less_equal if orientation == "distance" else np.greater_equal
    p_verify = np.array([np.mean(accept(genuine, t)) for t in thresholds])
    p_false = np.array([np.mean(accept(impostor, t)) for t in thresholds])
    return thresholds, p_verify, p_false


def dft_lattice_loop(max_cycles: float) -> tuple[tuple[int, int], ...]:
    """The (u, v) cells with sqrt(u^2+v^2) <= max_cycles from a double
    loop, sorted by (math.hypot radius, math.atan2 angle in [0, 2pi), u):
    the form dft_feature_frequencies's array lattice replaced."""
    rmax = int(math.floor(max_cycles))
    pts = []
    for v in range(-rmax, rmax + 1):
        for u in range(-rmax, rmax + 1):
            if u * u + v * v <= max_cycles * max_cycles:
                pts.append((math.hypot(u, v), math.atan2(v, u) % (2.0 * math.pi), u, v))
    pts.sort(key=lambda p: (p[0], p[1], p[2]))
    return tuple((u, v) for _, _, u, v in pts)


def per_split_posteriors(value_tables, train_rows, train_labels):
    """The per-split path that one dissimilarity matrix per run replaced.

    Per (n_images, dim) value table, the split's gallery rows are
    stacked, their own distance matrix trains a PFLD, and every probe is
    embedded by its distances to that gallery, one probe at a time.
    Returns the class labels and a function from probe rows to the
    max-rule fused posterior matrix.
    """
    fits = []
    for values in value_tables:
        G = np.asarray(values)[train_rows]
        fits.append((train_pfld(np.array([distances_to(G, g) for g in G]), list(train_labels)), G, values))

    def posteriors(probe_rows):
        return fuse_max(*(
            (model.class_labels, classify_rows(model, np.array([distances_to(G, values[p]) for p in probe_rows]))[1])
            for model, G, values in fits
        ))

    return fits[0][0].class_labels, posteriors


def per_split_rep_errors(value_tables, entries, spec) -> list[float]:
    """Percent error of every repetition the per-split way: random_split_ids's
    gallery and probe rows, per_split_posteriors, and each probe taking
    the class of its first maximal posterior."""
    row_of = {str(i): r for r, (i, _) in enumerate(entries)}
    subjects = [str(s) for _, s in entries]
    errors = []
    for rep in range(spec.repetitions):
        train_ids, test_ids = random_split_ids(entries, spec, rep)
        train = np.array([row_of[i] for i in train_ids])
        test = np.array([row_of[i] for i in test_ids])
        labels, posteriors = per_split_posteriors(value_tables, train, [subjects[r] for r in train])
        wrong = sum(labels[j] != subjects[r] for j, r in zip(np.argmax(posteriors(test), axis=1), test))
        errors.append(100.0 * wrong / len(test))
    return errors


def per_split_embedding(values, train_rows, probe_rows, train_labels):
    """Nearest-gallery distance per subject from stacked per-split operands."""
    values = np.asarray(values)
    d = np.array([distances_to(values[train_rows], values[p]) for p in probe_rows])
    gallery_labels = np.array([str(label) for label in train_labels], dtype=object)
    labels = tuple(sorted(set(gallery_labels)))
    return np.stack([d[:, gallery_labels == label].min(axis=1) for label in labels], axis=1), labels


def extract_fbt(image, config: FBTConfig = FBTConfig()) -> FeatureVector:
    """FBT features of one image the per-image way, to_polar then fbt:
    the reference FBTOperator must match."""
    return fbt_features(fbt(to_polar(image, config.angular_resolution), config))


def direct_dft_features(image, max_cycles: float) -> np.ndarray:
    """|F(u, v)| / sqrt(h w) on the dft_feature_frequencies lattice by the
    direct O(N^2) sum over every pixel, in np.longdouble.  Each phase
    (u x h + v y w) / (h w) is reduced exactly in integers and looked up
    in a table of cos and sin of 2 pi k / (h w)."""
    img = np.asarray(image, dtype=np.longdouble)
    h, w = img.shape
    n = h * w
    turn = 8 * np.arctan(np.longdouble(1)) / n
    k = np.arange(n, dtype=np.longdouble)
    cos_k, sin_k = np.cos(turn * k), np.sin(turn * k)
    ys, xs = np.divmod(np.arange(n), w)
    pixels = img.ravel()
    lattice = np.stack(dft_feature_frequencies(max_cycles), axis=1)
    out = np.empty(len(lattice), dtype=np.longdouble)
    block = 32  # lattice cells at a time; each block's phases are (block, h w)
    for lo in range(0, len(lattice), block):
        u, v = lattice[lo:lo + block, :1], lattice[lo:lo + block, 1:]
        phase = (u * xs * h + v * ys * w) % n
        re, im = cos_k[phase] @ pixels, sin_k[phase] @ pixels
        out[lo:lo + block] = np.sqrt(re * re + im * im) / np.sqrt(np.longdouble(n))
    return out


def spectrum_from_features(values, max_order: int, max_root: int, R: float) -> FBSpectrum:
    """Invert fbt_features given the spectrum dimensions."""
    values = np.asarray(values, dtype=float)
    half = (max_order + 1) * max_root
    if values.size != 2 * half:
        raise ConfigError(f"{values.size} values do not fit a ({max_order}, {max_root}) spectrum")
    A = values[:half].reshape(max_order + 1, max_root).copy()
    B = values[half:].reshape(max_order + 1, max_root).copy()
    return FBSpectrum(A=A, B=B, R=R)


def inverse_fbt(spectrum: FBSpectrum, n_rays: int, n_rings: int) -> PolarGrid:
    """Evaluate the truncated Fourier-Bessel series on a polar grid.

    The returned grid has rays at 360/n_rays degree steps and rings at
    1 px steps; its center is a placeholder since a reconstruction has no
    Cartesian anchor.
    """
    res = 360.0 / n_rays
    alpha = build_root_table(spectrum.max_order, spectrum.max_root)
    orders = np.arange(spectrum.max_order + 1)[:, None]
    basis = bessel_j(orders[:, :, None], alpha[:, :, None] * np.arange(n_rings, dtype=float) / spectrum.R)
    angles = orders * (np.deg2rad(res) * np.arange(n_rays))
    rad_a = np.einsum("ni,nir->nr", spectrum.A, basis)
    rad_b = np.einsum("ni,nir->nr", spectrum.B, basis)
    samples = np.cos(angles).T @ rad_a + np.sin(angles).T @ rad_b
    return PolarGrid(samples=samples, center=(0.0, 0.0), max_radius=spectrum.R, angular_resolution=res)


def read_feature_file(path) -> list[tuple[str, str, FeatureVector]]:
    """Read a feature file written by `polarface extract`: one row per
    image of image id, subject id, layout id, then the values."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: expected at least 4 fields")
            try:
                values = np.array([float(p) for p in parts[3:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad float: {exc}") from None
            rows.append((parts[0], parts[1], FeatureVector(values, parts[2])))
    return rows


def bilinear_sample_2d(image, x, y):
    """bilinear_sample by 2-D indexing from integer corners: the form the
    flat-index sampler replaced."""
    img = np.asarray(image, dtype=float)
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    h, w = img.shape
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 2)
    fx, fy = xs - x0, ys - y0
    gx, gy = 1.0 - fx, 1.0 - fy
    val = (gx * gy * img[y0, x0] + fx * gy * img[y0, x0 + 1]
           + gx * fy * img[y0 + 1, x0] + fx * fy * img[y0 + 1, x0 + 1])
    inside = (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)
    val = np.where(inside, val, 0.0)
    return float(val[0]) if scalar else val


def normalize_source_complex(left_eye, right_eye, config: NormalizationConfig = NormalizationConfig()):
    """The source point x + iy of every crop pixel, in complex arithmetic."""
    sl = complex(left_eye[0], left_eye[1])
    sr = complex(right_eye[0], right_eye[1])
    tl = complex(*config.left_eye_target)
    tr = complex(*config.right_eye_target)
    ys, xs = np.mgrid[0:config.crop_height, 0:config.crop_width].astype(float)
    return sl + (sr - sl) / (tr - tl) * (xs + 1j * ys - tl)


def normalize_face_complex(image, left_eye, right_eye, config: NormalizationConfig = NormalizationConfig()):
    """Eye normalization over the whole crop grid in complex arithmetic,
    masked afterwards: the form normalize_face replaced."""
    source = normalize_source_complex(left_eye, right_eye, config)
    ys, xs = np.mgrid[0:config.crop_height, 0:config.crop_width].astype(float)
    out = bilinear_sample(np.asarray(image, dtype=float), source.real, source.imag)
    cx, cy = config.ellipse_center
    ax, ay = config.ellipse_axes
    return np.where(((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0, out, 0.0)
