"""Command line front end.

Three subcommands:

* ``extract``     write per-image feature vectors to CSV
* ``experiment``  run an identification / verification experiment
* ``synth``       write a synthetic polar test pattern as a PGM

``extract`` and ``experiment`` compute every output before _write_outputs
creates ``--out``, so a run that exits with an error leaves it as it was.
The writer drops a canonical copy of the effective configuration
(``run_config_<hash>.ini``) next to the outputs, and the same 8-digit
hash is embedded in each output file name, so rerunning an identical
configuration overwrites the previous files with byte-identical ones.
Exit codes: 0 success, 1 failed self-check (synth-oracle), 2 bad input,
I/O trouble, a request too large for memory or a feature operator that
fails its check on the first image.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (
    CURVES,
    EXPERIMENTS,
    LAYOUTS,
    MODES,
    ORIENTATIONS,
    RunConfig,
    config_hash,
    load_run_config,
    resolved_text,
)
from .classifier import dissimilarity_matrix
from .dataset import Dataset, face_mask, load_dataset_dir, normalize_face, save_pgm
from .errors import ConfigError, DatasetError, PolarFaceError
from .evaluate import (
    Split,
    cmc,
    csv_text,
    embedding_matrix,
    equal_error_rate,
    per_feature_error_rates,
    random_split,
    run_error_experiment,
    score_matrix,
    sem_value,
    verification_pairs,
    verification_roc,
)
from .features import (
    FBTConfig,
    FeatureTable,
    apply_operators,
    dft_error_map,
    dft_feature_columns,
    dft_operator,
    extract_dft,
    fbt,
    fbt_error_map,
    fbt_features,
    fbt_operator,
    synth_angular,
    synth_mix,
    synth_radial,
)
from .fileio import atomic_write_text
from .polar import to_polar


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="INI config file")
    sub.add_argument("--mode", choices=MODES)
    sub.add_argument("--dataset", metavar="PATH")
    sub.add_argument("--layout", choices=LAYOUTS)
    sub.add_argument("--k-train", type=int, dest="k_train", metavar="K")
    sub.add_argument("--reps", type=int, dest="repetitions", metavar="N")
    sub.add_argument("--seed", type=int, metavar="S")
    sub.add_argument("--normalize", action="store_true", default=None)
    sub.add_argument("--out", metavar="DIR")
    sub.add_argument("--workers", type=int, metavar="N")
    sub.add_argument("--score-orientation", choices=ORIENTATIONS, dest="score_orientation")


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line (subcommands included) with main's one error line, not a usage block."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polarface",
        description="Polar-frequency face recognition experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_ext = subs.add_parser("extract", help="write feature CSVs for a dataset")
    _add_common(p_ext)
    p_ext.set_defaults(func=cmd_extract)

    p_exp = subs.add_parser("experiment", help="run an experiment")
    p_exp.add_argument(
        "experiment",
        nargs="?",
        choices=EXPERIMENTS,
        help="defaults to the config file's experiment.type",
    )
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_syn = subs.add_parser("synth", help="write a synthetic test pattern")
    p_syn.add_argument("kind", choices=("radial", "angular", "mix"))
    p_syn.add_argument("cycles", help="radial: float, angular: int, mix: R,A")
    p_syn.add_argument("size", type=int)
    p_syn.add_argument("out")
    p_syn.set_defaults(func=cmd_synth)
    return parser


def _resolve(args) -> RunConfig:
    # every flag's dest is the name of the config field it overrides
    return load_run_config(args.config, vars(args))


def _load_dataset(cfg: RunConfig, specs=()) -> tuple[Dataset, list[Split]]:
    """The run's dataset and the split of each spec the experiment
    draws.  Every split is drawn here, before any image is read, so a
    spec the dataset cannot satisfy is refused in milliseconds rather
    than after feature extraction."""
    if not cfg.dataset:
        raise ConfigError("no dataset given (use --dataset or [run] dataset)")
    dataset = load_dataset_dir(cfg.dataset, layout=cfg.layout)
    entries = dataset.id_subject_pairs()
    return dataset, [random_split(entries, spec) for spec in specs]


def _feature_tables(dataset: Dataset, cfg: RunConfig) -> dict[str, FeatureTable]:
    """One FeatureTable per mode, rows in dataset order.

    Images are read and normalized one at a time and go through
    apply_operators, with one operator per mode; images of another
    geometry than the first are refused.  The DFT table stores each
    conjugate pair once (dft_feature_columns).  The run then stops with
    an error unless each mode's row of the first image, in layout order,
    is within 1e-12 of the largest feature of the per-image reference.
    """
    entries = list(dataset)

    def load(row: int) -> np.ndarray:
        entry = entries[row]
        img = entry.load()
        if cfg.normalize:
            if entry.eyes is None:
                raise ConfigError(
                    f"normalization needs eye coordinates but {entry.image_id!r} "
                    "has none (provide a 6-field flat manifest)"
                )
            img = normalize_face(img, entry.eyes[0], entry.eyes[1], cfg.normalization)
        return img

    def images():
        for row in range(len(entries)):
            img = first if row == 0 else load(row)
            if img.shape != first.shape:
                raise DatasetError(
                    f"image {entries[row].image_id!r} is {img.shape} but {entries[0].image_id!r} "
                    f"is {first.shape}; all images must share one geometry"
                )
            yield img

    first = load(0)  # fixes the geometry
    checks = {}  # mode -> (name of the per-image reference, its features of `first`, operator, table columns)
    if cfg.mode != "dft":
        # run first, the reference also fills the caches the build reads;
        # normalized faces are zero outside the mask, so it bounds the operator
        checks["fbt"] = ("to_polar + fbt", fbt_features(fbt(to_polar(first, cfg.fbt.angular_resolution), cfg.fbt)),
                         fbt_operator(first.shape, cfg.fbt, face_mask(cfg.normalization) if cfg.normalize else None),
                         None)
    if cfg.mode != "fbt":
        # the reference and the operator refuse a lattice the image cannot
        # hold before it is enumerated
        checks["dft"] = ("extract_dft", extract_dft(first, cfg.dft), dft_operator(first.shape, cfg.dft),
                         dft_feature_columns(cfg.dft.max_cycles))
    tables = {m: FeatureTable.allocate([e.image_id for e in entries], want.layout_id, op.n_features, columns)
              for m, (_, want, op, columns) in checks.items()}
    apply_operators([op for _, _, op, _ in checks.values()], images(), [t.values for t in tables.values()])
    for m, (reference, want, _, _) in checks.items():
        gap = float(np.max(np.abs(tables[m].expand(tables[m][0].values) - want.values)))
        if not gap <= 1e-12 * float(np.max(np.abs(want.values))):
            raise PolarFaceError(f"the {m.upper()} operator differs from {reference} by {gap:.3g} on the first image")
    return tables


# output stem ("summary", "cmc_fbt", ...) -> (CSV header or None, rows)
Tables = dict[str, tuple[str | None, object]]
_SUMMARY = "experiment_id,mean,sem,eer"


def _write_outputs(cfg: RunConfig, tables: Tables) -> dict[str, Path]:
    """Render every table, then create --out and write the config copy and
    each table as <stem>_<hash>.csv; returns each stem's path.  A cell
    csv_text refuses therefore leaves no file."""
    tag = config_hash(cfg)
    texts = {stem: csv_text(header, rows) for stem, (header, rows) in tables.items()}
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / f"run_config_{tag}.ini", resolved_text(cfg))
    paths = {stem: out / f"{stem}_{tag}.csv" for stem in texts}
    for stem, text in texts.items():
        atomic_write_text(paths[stem], text)
    return paths


def _feature_rows(dataset: Dataset, table: FeatureTable):
    """A feature CSV's rows, made as they are rendered: ids, layout id, values in layout order."""
    return ((e.image_id, e.subject_id, table.layout_id, *table.expand(row).tolist())
            for e, row in zip(dataset, table.values))


def cmd_extract(args) -> int:
    cfg = _resolve(args)
    dataset, _ = _load_dataset(cfg)
    tables = _feature_tables(dataset, cfg)
    paths = _write_outputs(cfg, {f"features_{m}": (None, _feature_rows(dataset, t)) for m, t in tables.items()})
    for mode, table in tables.items():
        print(f"extract[{mode}]: {len(table)} images, {table.n_features} features -> {paths[f'features_{mode}']}")
    return 0


_ORACLE_FBT = FBTConfig(max_order=30, max_root=10, angular_resolution=0.5)
_ORACLE_SIZE = 131


def _oracle_peaks(image) -> list[tuple[int, int]]:
    """Spectrum cells (n, i) by descending modulus, ties in (n, i) order,
    DC cell (0, 1) excluded."""
    mod = fbt(to_polar(image, _ORACLE_FBT.angular_resolution), _ORACLE_FBT).modulus()
    order = np.argsort(-mod, axis=None, kind="stable")
    return [(int(n), int(j) + 1) for n, j in zip(*np.unravel_index(order, mod.shape)) if n or j]


def _synth_oracle(cfg: RunConfig, dataset, splits) -> tuple[int, Tables]:
    """Peak-location self-checks on analytically understood patterns;
    exit code 1 if any check fails.  Reads no dataset."""
    checks = (
        ("radial-8", synth_radial(8, _ORACLE_SIZE), {(0, 8)}),
        ("angular-4", synth_angular(4, _ORACLE_SIZE), {(4, 1)}),
        ("mix-8-4", synth_mix(8, 4, _ORACLE_SIZE), {(0, 8), (4, 1)}),
    )
    rows = []
    for name, image, expected in checks:
        observed = set(_oracle_peaks(image)[: len(expected)])
        status = "PASS" if observed == expected else "FAIL"
        exp_text, obs_text = ("+".join(f"({n};{i})" for n, i in sorted(cells)) for cells in (expected, observed))
        rows.append((name, exp_text, obs_text, status))
        print(f"synth-oracle {name}: expected {exp_text} observed {obs_text} {status}")
    code = 0 if all(row[3] == "PASS" for row in rows) else 1
    return code, {"synth_oracle": ("check,expected,observed,status", rows)}


def _matrices(dataset: Dataset, cfg: RunConfig) -> list[np.ndarray]:
    """One dissimilarity matrix per spectrum, rows in dataset order: every
    distance an identification experiment reads is one cell."""
    return [dissimilarity_matrix(t) for t in _feature_tables(dataset, cfg).values()]


def _first_split(cfg: RunConfig, dataset: Dataset, split: Split, scorer) -> tuple[np.ndarray, np.ndarray, tuple]:
    """scorer(matrices, train rows, probe rows, train labels) on the
    split's first repetition, with the probes' true subjects: (scores,
    truths, class labels)."""
    matrices = _matrices(dataset, cfg)
    train = split.train[0]
    scores, labels = scorer(matrices, split.rows[train], split.rows[~train], split.subjects[train])
    return scores, split.subjects[~train], labels


def _mean_sem(errors: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of per-repetition percent errors."""
    return float(errors.mean()), sem_value(errors)


def _error_rate(cfg: RunConfig, dataset: Dataset, splits: list[Split]) -> tuple[int, Tables]:
    mean, sem = _mean_sem(run_error_experiment(splits[0], _matrices(dataset, cfg)))
    print(f"error-rate[{cfg.mode}]: error {mean:.3f} sem {sem:.3f}")
    return 0, {"summary": (_SUMMARY, [(f"error-rate-{cfg.mode}", mean, sem, None)])}


def _curve(cfg: RunConfig, dataset: Dataset, splits: list[Split]) -> tuple[int, Tables]:
    """An error-rate curve, one split per point of the config's list (see
    config.CURVES); the SplitSpec field the points set heads the CSV's
    first column."""
    name = cfg.experiment
    values, field, prefix = CURVES[name]
    matrices = _matrices(dataset, cfg)
    points = [(v, *_mean_sem(run_error_experiment(split, matrices)))
              for v, split in zip(getattr(cfg, values), splits)]
    for v, mean, sem in points:
        print(f"{name}[{cfg.mode}] {prefix}={v}: error {mean:.3f} sem {sem:.3f}")
    summary = [(f"{name}-{prefix}{v}-{cfg.mode}", mean, sem, None) for v, mean, sem in points]
    return 0, {f"{name.replace('-', '_')}_{cfg.mode}": (f"{field},mean,sem", points), "summary": (_SUMMARY, summary)}


def _cmc(cfg: RunConfig, dataset: Dataset, splits: list[Split]) -> tuple[int, Tables]:
    scores, truths, labels = _first_split(cfg, dataset, splits[0], score_matrix)
    curve = cmc(scores, truths, labels)
    rank1_error = 100.0 * (1.0 - float(curve.proportions[0]))
    print(f"cmc[{cfg.mode}]: rank-1 error {rank1_error:.3f} over {len(truths)} probes")
    return 0, {f"cmc_{cfg.mode}": ("rank,proportion", zip(curve.ranks, curve.proportions)),
               "summary": (_SUMMARY, [(f"cmc-{cfg.mode}", rank1_error, 0.0, None)])}


def _roc(cfg: RunConfig, dataset: Dataset, splits: list[Split]) -> tuple[int, Tables]:
    # a claim is confirmed at or below a threshold ("distance") or at or above it ("similarity")
    if cfg.verification_score == "embedding":
        dists, truths, labels = _first_split(cfg, dataset, splits[0], lambda ms, *split: embedding_matrix(ms[0], *split))
        claims = dists if cfg.score_orientation == "distance" else -dists
    else:
        posteriors, truths, labels = _first_split(cfg, dataset, splits[0], score_matrix)
        claims = 1.0 - posteriors if cfg.score_orientation == "distance" else posteriors
    genuine, impostor = verification_pairs(claims, truths, labels)
    roc = verification_roc(genuine, impostor, cfg.score_orientation)
    eer = equal_error_rate(roc)
    print(
        f"roc[{cfg.mode}]: eer {100.0 * eer.eer:.3f} between thresholds "
        f"{eer.threshold_low:.6g} and {eer.threshold_high:.6g}"
    )
    curve = ("threshold,p_verify,p_false_alarm", zip(roc.thresholds, roc.p_verify, roc.p_false_alarm))
    return 0, {f"roc_{cfg.mode}": curve, "summary": (_SUMMARY, [(f"roc-{cfg.mode}", 100.0 * eer.eer, 0.0, eer.eer)])}


def _feature_map(cfg: RunConfig, dataset: Dataset, splits: list[Split]) -> tuple[int, Tables]:
    table = _feature_tables(dataset, cfg)[cfg.mode]
    errors = table.expand(per_feature_error_rates(dataset.id_subject_pairs(), table.values, splits[0]))
    if cfg.mode == "fbt":
        planes = fbt_error_map(errors, cfg.fbt.max_order, cfg.fbt.max_root)
        tables = {"feature_map_fbt_a": (None, planes[0]), "feature_map_fbt_b": (None, planes[1])}
    else:
        tables = {"feature_map_dft": (None, dft_error_map(errors, cfg.dft))}
    print(
        f"feature-map[{cfg.mode}]: best {errors.min():.3f} "
        f"worst {errors.max():.3f} over {errors.size} features"
    )
    tables["summary"] = (_SUMMARY, [
        (f"feature-map-{cfg.mode}-best", float(errors.min()), 0.0, None),
        (f"feature-map-{cfg.mode}-worst", float(errors.max()), 0.0, None),
    ])
    return 0, tables


# experiment type -> run(cfg, dataset, splits) -> (exit code, tables to write)
_EXPERIMENTS = {
    "error-rate": _error_rate,
    "learning-curve": _curve,
    "subject-curve": _curve,
    "cmc": _cmc,
    "roc": _roc,
    "feature-map": _feature_map,
    "synth-oracle": _synth_oracle,
}


def cmd_experiment(args) -> int:
    cfg = _resolve(args)
    # every split is drawn with the dataset, so a bad one is refused before any image is read
    dataset, splits = (None, []) if cfg.experiment == "synth-oracle" else _load_dataset(cfg, cfg.split_specs())
    code, tables = _EXPERIMENTS[cfg.experiment](cfg, dataset, splits)
    _write_outputs(cfg, tables)
    return code


_MAX_PATTERN = 4096  # pixels per side; the float64 coordinate grids alone take 268 MB at this size


def cmd_synth(args) -> int:
    if not 2 <= args.size <= _MAX_PATTERN:
        raise ConfigError(f"pattern size must be between 2 and {_MAX_PATTERN}, got {args.size}")
    try:
        if args.kind == "radial":
            image = synth_radial(float(args.cycles), args.size)
        elif args.kind == "angular":
            image = synth_angular(int(args.cycles), args.size)
        else:
            r_text, a_text = args.cycles.split(",")
            image = synth_mix(float(r_text), int(a_text), args.size)
    except ValueError:
        raise ConfigError(
            f"bad cycles value {args.cycles!r} for kind {args.kind!r}"
        ) from None
    save_pgm(args.out, np.rint(image * 255.0), maxval=255)
    print(f"synth {args.kind} cycles {args.cycles} size {args.size} -> {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (PolarFaceError, OSError) as exc:
        print(f"polarface: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"polarface: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
