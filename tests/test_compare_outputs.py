"""scripts/compare_outputs.py: CLI outputs of two source trees, compared."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

# a 4 x 4 tree: the FBT operator, eye normalization and the DFT path
SPLIT = ("--k-train", "2", "--reps", "2")
SMALL = {
    "extract-fbt": compare_outputs.RUNS["extract-fbt"],
    "roc-fused-normalized": ((*compare_outputs.RUNS["roc-fused-normalized"][0], *SPLIT), None),
    "error-rate-dft": ((*compare_outputs.RUNS["error-rate-dft"][0], *SPLIT), None),
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Make the tree, run SMALL once from src/; return (tree, results)."""
    tmp = tmp_path_factory.mktemp("compare")
    compare_outputs.make_tree(tmp / "tree", 0, n_subjects=4, n_images=4)
    (tmp / "side").mkdir()
    return tmp / "tree", compare_outputs.run_side(SRC, tmp / "side", {0: tmp / "tree"}, SMALL)


def test_a_source_tree_compared_with_itself_is_identical(small_run, tmp_path):
    tree, first = small_run
    second = compare_outputs.run_side(SRC, tmp_path, {0: tree}, SMALL)
    report, same = compare_outputs.compare(first, second)
    assert same
    assert report[:2] == ["3 runs per side, 0 of them exiting non-zero on the parent side",
                          "exit codes, stdout and stderr identical (paths masked)"]
    assert "features_fbt.csv within 1e-11 absolute: 1 files identical" in report
    assert "roc_fused.csv within 1e-10 absolute: 1 files identical" in report
    assert all(line.endswith(" files identical") for line in report[2:])


def planted(results, label, prefix, move, row=1, column=0):
    """One run of `results`, a copy of it whose file named `prefix`...
    has the cell at (row, column) replaced by move(cell), and that
    cell's old text."""
    run = {key: result for key, result in results.items() if key[1] == label}
    (key, (code, out, err, files)), = run.items()
    assert code == 0
    (name, data), = ((n, d) for n, d in files.items() if n.startswith(prefix))
    lines = data.decode().split("\n")
    cells = lines[row].split(",")
    cell, cells[column] = cells[column], move(cells[column])
    lines[row] = ",".join(cells)
    return run, {key: (code, out, err, {**files, name: "\n".join(lines).encode()})}, cell


def nudged(step):
    """A move for planted: the number in the cell, changed by step(value)."""
    return lambda cell: repr(float(step(float(cell))))


def test_a_planted_one_ulp_change_is_reported(small_run):
    # the mean error of the DFT run: summaries have no tolerance
    error_run, changed, cell = planted(small_run[1], "error-rate-dft", "summary_",
                                       nudged(lambda v: np.nextafter(v, np.inf)), column=1)
    report, same = compare_outputs.compare(error_run, changed)
    assert not same
    (line,) = [line for line in report if line.startswith("summary.csv")]
    match = re.fullmatch(r"summary\.csv: 1 of 1 files differ, largest change (\S+) absolute, (\S+) relative; "
                         r"1 beyond tolerance", line)
    assert match, line
    assert float(match[1]) == pytest.approx(np.spacing(abs(float(cell))), rel=0.01)
    assert 0.0 < float(match[2]) <= np.finfo(float).eps
    # a changed label is not a numeric change, whatever the file's tolerance
    extract_run, relabeled, _ = planted(small_run[1], "extract-fbt", "features_fbt_", lambda _: "s9", column=1)
    assert ("features_fbt.csv within 1e-11 absolute: 1 of 1 files differ, in layout or in a non-numeric cell"
            in compare_outputs.compare(extract_run, relabeled)[0])


def test_fbt_features_pass_within_their_committed_absolute_tolerance(small_run):
    # the FBT features of the extract runs may move by 1e-11 absolute; no other features may move
    assert compare_outputs.tolerance_of("extract-fused-normalized", "features_fbt_00000000.csv") == ("absolute", 1e-11)
    assert compare_outputs.tolerance_of("extract-fused-normalized", "features_dft_00000000.csv") is None
    assert compare_outputs.tolerance_of("extract-dft", "features_dft_00000000.csv") is None
    extract_run, inside, _ = planted(small_run[1], "extract-fbt", "features_fbt_", nudged(lambda v: v + 0.9e-11),
                                     column=3)
    report, same = compare_outputs.compare(extract_run, inside)
    assert same
    (line,) = [line for line in report if line.startswith("features_fbt.csv")]
    match = re.match(r"features_fbt\.csv within 1e-11 absolute: 1 of 1 files differ, largest change (\S+) absolute",
                     line)
    assert match and float(match[1]) == pytest.approx(0.9e-11, rel=0.01), line
    _, outside, _ = planted(small_run[1], "extract-fbt", "features_fbt_", nudged(lambda v: v + 1.1e-11), column=3)
    report, same = compare_outputs.compare(extract_run, outside)
    assert not same
    assert any(line.endswith("; 1 beyond tolerance") for line in report)


def test_posterior_roc_thresholds_pass_within_their_committed_tolerance(small_run):
    # roc-fused-normalized's thresholds may move by 1e-10 absolute; its summary not at all
    assert compare_outputs.TOLERANCES["roc-fused-normalized", "roc_"] == ("absolute", 1e-10)
    roc_run, inside, _ = planted(small_run[1], "roc-fused-normalized", "roc_fused_", nudged(lambda v: v + 0.9e-10))
    report, same = compare_outputs.compare(roc_run, inside)
    assert same
    (line,) = [line for line in report if line.startswith("roc_fused.csv")]
    assert line.startswith("roc_fused.csv within 1e-10 absolute: 1 of 1 files differ, largest change 9e-11 absolute")
    assert line.endswith("; all within tolerance")
    _, outside, _ = planted(small_run[1], "roc-fused-normalized", "roc_fused_", nudged(lambda v: v + 1.1e-10))
    report, same = compare_outputs.compare(roc_run, outside)
    assert not same
    assert any(line.endswith("; 1 beyond tolerance") for line in report)
    # the EER in the same run's summary: one ulp is beyond, as in every file without a tolerance
    _, summary, _ = planted(small_run[1], "roc-fused-normalized", "summary_",
                            nudged(lambda v: np.nextafter(v, np.inf)), column=1)
    assert not compare_outputs.compare(roc_run, summary)[1]


def test_distance_roc_tolerance_is_relative():
    # an embedding ROC's thresholds are distances: 1e-13 of the value, at any scale; its summary has none
    assert compare_outputs.tolerance_of("roc-dft-embedding", "summary_00000000.csv") is None
    header = b"threshold,p_verify,p_false_alarm\n"
    for scale in (1e-3, 1.0, 1e6):
        for factor, ok in ((1 + 0.9e-13, True), (1 + 1.1e-13, False)):
            files = ({"roc_dft_00000000.csv": header + f"{v!r},0.5,0.25\n".encode()} for v in (scale, scale * factor))
            sides = ({(0, "roc-dft-embedding"): (0, "", "", f)} for f in files)
            assert compare_outputs.compare(*sides)[1] is ok
