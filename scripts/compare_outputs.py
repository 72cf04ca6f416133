#!/usr/bin/env python3
"""Run the CLI from two source trees on the same inputs and compare what they write.

Usage, from the repository root:

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the `polarface`
package, such as two checkouts' src/.  For each of the seeds 0, 1 and
2, perfbench.inputs.make_tree writes one synthetic 40 x 10 tree; each
of the 24 invocations in RUNS then runs as a `python3 -m polarface.cli`
child of either side, with one BLAS thread and its own output
directory.  The report counts the runs that exit non-zero.

The sides must agree on every exit code, and on stdout and stderr once
each side's source and work paths are masked.  Every output file is
compared byte for byte.  For each kind of file (its name without the
config hash) and committed tolerance (TOLERANCES; a file with none must
be identical) the report prints "identical" or, over the numeric cells
of the files that differ, the largest absolute and relative change and
how many files are beyond the tolerance.  Exit status: 0 when every
file is identical or within its tolerance, 1 otherwise, 2 on a wrong
number of arguments.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.inputs import make_tree  # noqa: E402

SEEDS = (0, 1, 2)
EMBEDDING = "[experiment]\nverification_score = embedding\n"
SUBJECTS = "[experiment]\nsubject_counts = 10, 20, 40\n"
NORMALIZED = ("--normalize", "--layout", "flat-manifest")

# label -> (CLI arguments before --dataset and --out, config file text or None)
RUNS: dict[str, tuple[tuple[str, ...], str | None]] = {
    **{f"error-rate-{m}": (("experiment", "error-rate", "--mode", m), None) for m in ("dft", "fbt", "fused")},
    **{f"cmc-{m}": (("experiment", "cmc", "--mode", m), None) for m in ("fbt", "dft", "fused")},
    "roc-fused-normalized": (("experiment", "roc", "--mode", "fused", *NORMALIZED), None),
    "roc-dft-distance": (("experiment", "roc", "--mode", "dft", "--score-orientation", "distance"), None),
    "roc-dft-similarity": (("experiment", "roc", "--mode", "dft", "--score-orientation", "similarity"), None),
    "roc-fbt": (("experiment", "roc", "--mode", "fbt"), None),
    "roc-fbt-embedding": (("experiment", "roc", "--mode", "fbt", "--score-orientation", "distance"), EMBEDDING),
    "roc-dft-embedding": (("experiment", "roc", "--mode", "dft"), EMBEDDING),
    "learning-curve-dft": (("experiment", "learning-curve", "--mode", "dft"), None),
    "learning-curve-fused": (("experiment", "learning-curve", "--mode", "fused"), None),
    "subject-curve-fbt": (("experiment", "subject-curve", "--mode", "fbt"), SUBJECTS),
    "subject-curve-dft": (("experiment", "subject-curve", "--mode", "dft"), SUBJECTS),
    "feature-map-dft": (("experiment", "feature-map", "--mode", "dft"), None),
    "feature-map-fbt": (("experiment", "feature-map", "--mode", "fbt"), None),
    "extract-fbt": (("extract", "--mode", "fbt"), None),
    "extract-dft": (("extract", "--mode", "dft"), None),
    "extract-fused-normalized": (("extract", "--mode", "fused", *NORMALIZED), None),
    "synth-oracle": (("experiment", "synth-oracle"), None),
    "error-rate-dft-normalized": (("experiment", "error-rate", "--mode", "dft", *NORMALIZED), None),
    "feature-map-dft-normalized": (("experiment", "feature-map", "--mode", "dft", *NORMALIZED,
                                   "--k-train", "2", "--reps", "2"), None),
}

# Committed tolerances, by run label and output file name prefix: (absolute or relative, bound) on
# every numeric cell of the run's files of that prefix.  Every other file must be identical.  A
# posterior ROC threshold moves by the PFLD solve's magnification of a last-bit change of a distance
# (about 1e-11 has been seen); an embedding ROC threshold is itself a distance.  An FBT feature is a
# sum over thousands of pixels, and regrouping that sum moves its last bits by about 1e-15 of the
# row's largest coefficient (84 to 245 on 8-bit synthetic faces; 2.7e-13 absolute has been seen).
# Its bound is absolute: a coefficient near zero, left by cancellation, carries the same absolute
# error, which relative to itself has read 1.3e-10.
TOLERANCES: dict[tuple[str, str], tuple[str, float]] = {
    ("roc-fused-normalized", "roc_"): ("absolute", 1e-10),
    ("roc-dft-distance", "roc_"): ("absolute", 1e-10),
    ("roc-dft-similarity", "roc_"): ("absolute", 1e-10),
    ("roc-fbt", "roc_"): ("absolute", 1e-10),
    ("roc-fbt-embedding", "roc_"): ("relative", 1e-13),
    ("roc-dft-embedding", "roc_"): ("relative", 1e-13),
    ("extract-fbt", "features_fbt_"): ("absolute", 1e-11),
    ("extract-fused-normalized", "features_fbt_"): ("absolute", 1e-11),
}


def run_side(src: Path, work: Path, trees: dict[int, Path], runs: dict) -> dict:
    """Run every invocation on every tree from `src`, with `work` as the
    children's working directory; return (seed, label) -> (exit code,
    masked stdout, masked stderr, {output file name: bytes})."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for seed, tree in trees.items():
        for label, (args, config) in runs.items():
            out = work / f"s{seed}" / label
            out.parent.mkdir(parents=True, exist_ok=True)
            argv = list(args)
            if config is not None:
                (work / f"{label}.ini").write_text(config, encoding="ascii")
                argv += ["--config", f"{label}.ini"]
            dataset = tree / "manifest.csv" if "--normalize" in args else tree
            proc = subprocess.run([sys.executable, "-m", "polarface.cli", *argv, "--dataset", str(dataset),
                                   "--out", str(out.relative_to(work))],
                                  cwd=work, env=env, capture_output=True, text=True)
            stdout, stderr = (text.replace(str(src), "<SRC>").replace(str(work), "<WORK>")
                              for text in (proc.stdout, proc.stderr))
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            results[seed, label] = (proc.returncode, stdout, stderr, files)
    return results


def _cells(data: bytes) -> list[str]:
    return re.split(r"[,\n]", data.decode("utf-8", errors="replace"))


def file_change(a: bytes, b: bytes):
    """(largest absolute, largest relative) change over the numeric cells
    of two comma-separated texts, or None when their cells differ in
    number or in any cell that is not a number."""
    cells_a, cells_b = _cells(a), _cells(b)
    if len(cells_a) != len(cells_b):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(cells_a, cells_b):
        if x == y:
            continue
        try:
            u, v = float(x), float(y)
        except ValueError:
            return None
        if math.isnan(u) or math.isnan(v):
            return None
        worst_abs = max(worst_abs, abs(u - v))
        worst_rel = max(worst_rel, abs(u - v) / max(abs(u), abs(v)))
    return worst_abs, worst_rel


def kind_of(name: str) -> str:
    """A file name without its 8-digit config hash."""
    return re.sub(r"_[0-9a-f]{8}(?=\.[^.]+$)", "", name)


def tolerance_of(label: str, name: str) -> tuple[str, float] | None:
    """The committed tolerance of one run's output file; None when it
    must be identical."""
    return next((bound for (run, prefix), bound in TOLERANCES.items() if run == label and name.startswith(prefix)),
                None)


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines for two run_side results of the same runs, and whether
    every file is identical or within its run's committed tolerance.
    Files are reported by kind and tolerance."""
    lines, same = [], True
    kinds: dict[str, tuple] = {}
    for key in sorted(parent):
        (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = parent[key], change[key]
        for what, x, y in (("exit code", code_a, code_b), ("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if x != y:
                lines.append(f"s{key[0]} {key[1]}: {what} differs: {x!r} -> {y!r}")
                same = False
        for name in sorted(files_a.keys() | files_b.keys()):
            tolerance = tolerance_of(key[1], name)
            kind = kind_of(name) + ("" if tolerance is None else f" within {tolerance[1]:g} {tolerance[0]}")
            kinds.setdefault(kind, (tolerance, []))[1].append((files_a.get(name), files_b.get(name)))
    failed = sum(code != 0 for code, *_ in parent.values())
    lines.append(f"{len(parent)} runs per side, {failed} of them exiting non-zero on the parent side")
    if same:
        lines.append("exit codes, stdout and stderr identical (paths masked)")
    for kind, (tolerance, pairs) in sorted(kinds.items()):
        differ = [(a, b) for a, b in pairs if a != b]
        if not differ:
            lines.append(f"{kind}: {len(pairs)} files identical")
            continue
        changes = [None if a is None or b is None else file_change(a, b) for a, b in differ]
        if None in changes:
            same = False
            lines.append(f"{kind}: {len(differ)} of {len(pairs)} files differ, in layout or in a non-numeric cell")
            continue
        unit, bound = tolerance or ("absolute", -1.0)  # no tolerance: every differing file is beyond it
        beyond = sum(c[unit == "relative"] > bound for c in changes)
        same = same and not beyond
        lines.append(f"{kind}: {len(differ)} of {len(pairs)} files differ, largest change "
                     f"{max(c[0] for c in changes):.3g} absolute, {max(c[1] for c in changes):.3g} relative; "
                     + (f"{beyond} beyond tolerance" if beyond else "all within tolerance"))
    return lines, same


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        trees = {s: tmp / f"tree{s}" for s in SEEDS}
        for seed, tree in trees.items():
            make_tree(tree, seed)
        sides = []
        for name, src in zip(("parent", "change"), sys.argv[1:]):
            (tmp / name).mkdir()
            sides.append(run_side(Path(src).resolve(), tmp / name, trees, RUNS))
    lines, same = compare(*sides)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
