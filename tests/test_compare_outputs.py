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
    assert "features_fbt.csv: 1 files identical" in report
    assert "roc_fused.csv: 1 files identical" in report
    assert all(line.endswith(" files identical") for line in report[2:])


def test_a_planted_one_ulp_change_is_reported(small_run):
    extract_run = {key: run for key, run in small_run[1].items() if key[1] == "extract-fbt"}
    (key, (code, out, err, files)), = extract_run.items()
    assert code == 0
    (name, data), = ((n, d) for n, d in files.items() if n.startswith("features_fbt_"))
    lines = data.decode().split("\n")
    cells = lines[1].split(",")
    cell = cells[3]  # the first feature of the second image
    value = float(cell)
    cells[3] = repr(float(np.nextafter(value, np.inf)))
    lines[1] = ",".join(cells)
    planted = {key: (code, out, err, {**files, name: "\n".join(lines).encode()})}
    report, same = compare_outputs.compare(extract_run, planted)
    assert not same
    (line,) = [line for line in report if line.startswith("features_fbt.csv")]
    match = re.fullmatch(r"features_fbt\.csv: 1 of 1 files differ, largest change (\S+) absolute, (\S+) relative",
                         line)
    assert match, line
    assert float(match[1]) == pytest.approx(np.spacing(abs(value)), rel=0.01)
    assert 0.0 < float(match[2]) <= np.finfo(float).eps
    # a changed label is not a numeric change
    cells[1] = "s9"
    lines[1] = ",".join(cells)
    relabeled = {key: (code, out, err, {**files, name: "\n".join(lines).encode()})}
    assert "features_fbt.csv: 1 of 1 files differ, in layout or in a non-numeric cell" in compare_outputs.compare(
        extract_run, relabeled)[0]
