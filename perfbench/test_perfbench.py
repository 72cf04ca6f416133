"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import inputs
import run
import tracer

HERE = Path(__file__).resolve().parent


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    def tree_bytes(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    trees = [tmp_path / name for name in ("a", "b", "c")]
    for root, seed in zip(trees, (7, 7, 8)):
        inputs.make_tree(root, seed, n_subjects=3, n_images=3)
    first = tree_bytes(trees[0])
    assert len(first) == 3 * 3 + 1
    assert first == tree_bytes(trees[1])
    assert first != tree_bytes(trees[2])
    assert first["s1/1.pgm"].startswith(b"P5\n92 112\n255\n")
    assert len(first["s1/1.pgm"]) == len(b"P5\n92 112\n255\n") + 92 * 112


@pytest.fixture(scope="module")
def dft_output(tmp_path_factory):
    """One real dft error-rate invocation on a 4 x 4 tree."""
    work = tmp_path_factory.mktemp("dft")
    inputs.make_tree(work / "tree", 3, n_subjects=4, n_images=4)
    out = work / "out"
    args = ["experiment", "error-rate", "--mode", "dft", "--k-train", "2", "--reps", "2",
            "--dataset", str(work / "tree"), "--out", str(out)]
    assert run.invoke(args, work)["code"] == 0
    return out


def test_check_accepts_output_and_matching_reference(dft_output):
    rows = check.read_summary(next(dft_output.glob("summary_*.csv")))
    problems, digest = check.check_outputs(dft_output, "dft-error-rate", None, 3)
    assert problems == [] and digest
    tolerance = check.load_references()["tolerance"]
    assert check.compare_reference(rows, {k: list(v) for k, v in rows.items()}, tolerance) == []


def test_check_flags_corrupted_reference(dft_output):
    rows = check.read_summary(next(dft_output.glob("summary_*.csv")))
    tolerance = check.load_references()["tolerance"]
    corrupted = {k: [v[0] + 1.0, v[1], v[2]] for k, v in rows.items()}
    assert check.compare_reference(rows, corrupted, tolerance)


def test_check_flags_corrupted_output(dft_output, tmp_path):
    _, digest = check.check_outputs(dft_output, "dft-error-rate", None, 3)
    summary = next(dft_output.glob("summary_*.csv")).name

    changed = tmp_path / "changed"
    shutil.copytree(dft_output, changed)
    text = (changed / summary).read_text()
    (changed / summary).write_text(text.replace("error-rate-dft,", "error-rate-dft,1"))
    problems, other = check.check_outputs(changed, "dft-error-rate", None, 3)
    assert problems or other != digest

    garbled = tmp_path / "garbled"
    shutil.copytree(dft_output, garbled)
    (garbled / summary).write_text("not,a,summary\n")
    assert check.check_outputs(garbled, "dft-error-rate", None, 3)[0]

    missing = tmp_path / "missing"
    shutil.copytree(dft_output, missing)
    (missing / summary).unlink()
    assert check.check_outputs(missing, "dft-error-rate", None, 3)[0]

    refs = {"tolerance": check.load_references()["tolerance"],
            "values": {"dft-error-rate": {"3": {"error-rate-dft": [99.0, 0.0, None]}}}}
    assert check.check_outputs(dft_output, "dft-error-rate", refs, 3)[0]


def test_trace_counts_and_coverage_repeat(tmp_path):
    inputs.make_tree(tmp_path / "tree", 5, n_subjects=2, n_images=2)
    results = []
    for k in range(2):
        args = run.cli_command("fused-roc-normalized", {"setup": tmp_path / "tree"}, tmp_path / f"out{k}",
                              setup=True)
        trace_path = tmp_path / f"trace{k}.json"
        assert run.invoke(args, tmp_path, trace_path)["code"] == 0
        trace = json.loads(trace_path.read_text())
        results.append(tracer.layer_metrics(trace))
    counts = ("bessel.bessel_j.calls", "bessel.bessel_roots.calls", "classifier.distance_pairs",
              "classifier.classify.calls", "features.fbt.mflop_computed", "dataset.load_pgm.mb_read")
    for name in counts:
        assert results[0][name] == results[1][name] > 0, name
    for metrics in results:
        assert 0.95 <= metrics["trace.coverage"] <= 1.0 + 1e-9
    assert abs(results[0]["trace.coverage"] - results[1]["trace.coverage"]) < 1e-3


def test_benchmark_json_declares_what_the_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    trace = {"import_s": 0.1, "main_s": 1.0, "spans": [[1, "cli.main", 0.0, 1.0, None, 1, None]]}
    reported = {*tracer.layer_metrics(trace), "trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    moves = json.loads((HERE / "moves.json").read_text())
    assert set(moves) == reported
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS) == set(check.EXPECTED)


def test_self_times_share_overlapping_threads():
    # root 0..10 on thread 1; worker spans 2..6 and 4..8 on threads 2, 3;
    # a zero-length span at 9 on thread 1
    spans = [[1, "cli.main", 0.0, 10.0, None, 1, None],
             [2, "a", 2.0, 6.0, 1, 2, None],
             [3, "b", 4.0, 8.0, 1, 3, None],
             [4, "z", 9.0, 9.0, 1, 1, None]]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 4.0, 2: 3.0, 3: 3.0, 4: 0.0}
    assert sum(selfs.values()) == 10.0


def test_run_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dft-error-rate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
