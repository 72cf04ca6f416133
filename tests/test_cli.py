"""End-to-end command-line runs on the toy dataset."""

import shutil

import numpy as np
import pytest

from oracles import read_feature_file
from polarface import cli, features, load_pgm, save_pgm
from polarface.cli import main
from polarface.config import EXPERIMENTS, MODES


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_synth_writes_readable_pattern(tmp_path, capsys):
    out = tmp_path / "radial.pgm"
    assert run_cli("synth", "radial", "6", "64", out) == 0
    assert "synth radial" in capsys.readouterr().out
    img = load_pgm(out)
    assert img.shape == (64, 64)
    assert img.min() >= 0.0 and img.max() <= 255.0


def test_synth_bad_cycles_exits_two(tmp_path, capsys):
    assert run_cli("synth", "mix", "what", "32", tmp_path / "x.pgm") == 2
    assert "polarface: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, cycles", [("radial", "nan"), ("radial", "inf"), ("radial", "1e308"), ("mix", "nan,2")]
)
def test_synth_non_finite_pattern_exits_two(tmp_path, capsys, kind, cycles):
    # these once wrote an all-zero image and exited 0
    out = tmp_path / "x.pgm"
    assert run_cli("synth", kind, cycles, "16", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polarface: error: bad cycles value")
    assert not out.exists()


@pytest.mark.parametrize("size", ["100000", "4097", "1"])
def test_synth_size_out_of_range_exits_two(tmp_path, capsys, monkeypatch, size):
    # 100000 once asked numpy for a 149 GiB grid and ended in a traceback;
    # the refusal must come before any pattern array is made
    def never(*args):
        raise AssertionError("pattern drawn before the size was checked")

    monkeypatch.setattr(cli, "synth_radial", never)
    out = tmp_path / "x.pgm"
    assert run_cli("synth", "radial", "3", size, out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polarface: error: pattern size must be between 2 and 4096")
    assert not out.exists()


def test_out_of_memory_exits_two(toy_faces, tmp_path, capsys, monkeypatch):
    # an oversized request fails in numpy's allocator; the stage raises the
    # error itself here, so the test allocates nothing
    def oversized(*_):
        raise MemoryError("Unable to allocate 14.2 PiB for an array with shape (1000000000000000, 2)")

    monkeypatch.setattr(cli, "run_error_experiment", oversized)
    code = run_cli("experiment", "error-rate", "--dataset", toy_faces, "--mode", "dft",
                   "--k-train", "4", "--reps", "1", "--out", tmp_path / "runs")
    assert_refusal(code, capsys, "out of memory: Unable to allocate 14.2 PiB")
    assert not (tmp_path / "runs").exists()


def test_missing_dataset_exits_two(tmp_path, capsys):
    code = run_cli(
        "experiment", "error-rate",
        "--dataset", tmp_path / "nowhere", "--out", tmp_path / "runs",
    )
    assert code == 2
    assert "polarface: error:" in capsys.readouterr().err


def test_error_rate_run_on_separable_faces(toy_faces, tmp_path, capsys):
    out = tmp_path / "runs"
    code = run_cli(
        "experiment", "error-rate",
        "--dataset", toy_faces, "--mode", "fbt",
        "--k-train", "5", "--reps", "3", "--out", out,
    )
    assert code == 0
    assert "error-rate[fbt]: error 0.000 sem 0.000" in capsys.readouterr().out
    summaries = list(out.glob("summary_*.csv"))
    configs = list(out.glob("run_config_*.ini"))
    assert len(summaries) == 1 and len(configs) == 1
    tag = summaries[0].stem.split("_")[-1]
    assert configs[0].stem.endswith(tag)
    body = summaries[0].read_text()
    assert body.splitlines()[0] == "experiment_id,mean,sem,eer"
    assert "error-rate-fbt,0,0," in body


def test_reruns_are_byte_identical_across_out_dirs(toy_faces, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_cli(
            "experiment", "error-rate",
            "--dataset", toy_faces, "--mode", "dft",
            "--k-train", "4", "--reps", "2", "--out", out,
            "--workers", "2" if name == "two" else "1",
        ) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_extract_round_trips_both_spectra(toy_faces, tmp_path):
    out = tmp_path / "feat"
    assert run_cli(
        "extract", "--dataset", toy_faces, "--mode", "fused", "--out", out,
    ) == 0
    for mode, dim in (("fbt", 186), ("dft", 1201)):
        path = next(out.glob(f"features_{mode}_*.csv"))
        rows = read_feature_file(path)
        assert len(rows) == 21
        table = {image_id: vec for image_id, _, vec in rows}
        vec = table["s1/1.pgm"]
        assert vec.values.shape == (dim,)
        assert np.all(np.isfinite(vec.values))


def test_dft_stdout_counts_every_lattice_cell(toy_faces, tmp_path, capsys):
    # the table stores each conjugate pair once; what the user sees is the layout
    out = tmp_path / "runs"
    assert run_cli("extract", "--dataset", toy_faces, "--mode", "dft", "--out", out) == 0
    assert "extract[dft]: 21 images, 1201 features ->" in capsys.readouterr().out
    assert run_cli(
        "experiment", "feature-map", "--dataset", toy_faces, "--mode", "dft",
        "--k-train", "4", "--reps", "2", "--out", out,
    ) == 0
    assert "over 1201 features" in capsys.readouterr().out


def test_cmc_and_roc_runs(toy_faces, tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli(
        "experiment", "cmc",
        "--dataset", toy_faces, "--mode", "dft",
        "--k-train", "4", "--reps", "1", "--out", out,
    ) == 0
    assert "cmc[dft]: rank-1 error 0.000 over 9 probes" in capsys.readouterr().out
    cmc_path = next(out.glob("cmc_dft_*.csv"))
    lines = cmc_path.read_text().splitlines()
    assert lines[0] == "rank,proportion"
    assert lines[1] == "1,1"  # separable toy data: everyone at rank 1

    assert run_cli(
        "experiment", "roc",
        "--dataset", toy_faces, "--mode", "dft",
        "--k-train", "4", "--reps", "1", "--out", out,
    ) == 0
    assert "roc[dft]: eer 0.000" in capsys.readouterr().out
    roc_path = next(out.glob("roc_dft_*.csv"))
    assert roc_path.read_text().splitlines()[0] == "threshold,p_verify,p_false_alarm"


def test_learning_curve_and_feature_map_runs(toy_faces, tmp_path, capsys):
    out = tmp_path / "runs"
    cfg = tmp_path / "run.ini"
    cfg.write_text("[experiment]\ntype = learning-curve\nk_values = 1,3\n")
    assert run_cli(
        "experiment", "--config", cfg,
        "--dataset", toy_faces, "--mode", "dft",
        "--reps", "2", "--out", out,
    ) == 0
    text = capsys.readouterr().out
    assert "learning-curve[dft] k=1:" in text and "k=3:" in text
    curve = next(out.glob("learning_curve_dft_*.csv"))
    assert curve.read_text().splitlines()[0] == "k_train,mean,sem"

    assert run_cli(
        "experiment", "feature-map",
        "--dataset", toy_faces, "--mode", "fbt",
        "--k-train", "4", "--reps", "2", "--out", out,
    ) == 0
    assert "feature-map[fbt]:" in capsys.readouterr().out
    assert list(out.glob("feature_map_fbt_a_*.csv"))
    assert list(out.glob("feature_map_fbt_b_*.csv"))


# (experiment, [experiment] setting, modes it accepts, output CSVs
# before "_<tag>.csv", summary experiment ids); {m} is the mode
EXPERIMENT_RUNS = [
    ("error-rate", "", MODES, ["summary"], ["error-rate-{m}"]),
    ("learning-curve", "k_values = 1,3", MODES, ["learning_curve_{m}", "summary"],
     ["learning-curve-k1-{m}", "learning-curve-k3-{m}"]),
    ("subject-curve", "subject_counts = 2,3", MODES, ["subject_curve_{m}", "summary"],
     ["subject-curve-n2-{m}", "subject-curve-n3-{m}"]),
    ("cmc", "", MODES, ["cmc_{m}", "summary"], ["cmc-{m}"]),
    ("roc", "", MODES, ["roc_{m}", "summary"], ["roc-{m}"]),
    ("roc", "verification_score = embedding", ("fbt", "dft"), ["roc_{m}", "summary"], ["roc-{m}"]),
    ("feature-map", "", ("fbt",), ["feature_map_fbt_a", "feature_map_fbt_b", "summary"],
     ["feature-map-fbt-best", "feature-map-fbt-worst"]),
    ("feature-map", "", ("dft",), ["feature_map_dft", "summary"],
     ["feature-map-dft-best", "feature-map-dft-worst"]),
    ("synth-oracle", "", MODES, ["synth_oracle"], []),
]


def test_experiment_runs_cover_every_experiment():
    assert sorted({run[0] for run in EXPERIMENT_RUNS}) == sorted(EXPERIMENTS)


@pytest.mark.parametrize(
    "experiment, setting, mode, csvs, ids",
    [
        pytest.param(e, setting, m, csvs, ids, id="-".join([e, m, *setting.split()[2:]]))
        for e, setting, modes, csvs, ids in EXPERIMENT_RUNS
        for m in modes
    ],
)
def test_every_experiment_runs_in_every_mode(toy_faces, tmp_path, experiment, setting, mode, csvs, ids):
    config = tmp_path / "run.ini"
    config.write_text(f"[experiment]\ntype = {experiment}\n{setting}\n")
    out = tmp_path / "runs"
    assert run_cli(
        "experiment", "--config", config, "--dataset", toy_faces, "--mode", mode,
        "--k-train", "4", "--reps", "2", "--out", out,
    ) == 0
    tag = next(out.glob("run_config_*.ini")).stem.split("_")[-1]
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted([f"run_config_{tag}.ini"] + [f"{c.format(m=mode)}_{tag}.csv" for c in csvs])
    if ids:
        summary = (out / f"summary_{tag}.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in summary] == [i.format(m=mode) for i in ids]


@pytest.fixture
def truncated_faces(tmp_path):
    """Two subjects whose only images stop short of their pixel data."""
    for subject in ("s1", "s2"):
        (tmp_path / "faces" / subject).mkdir(parents=True)
        (tmp_path / "faces" / subject / "1.pgm").write_bytes(b"P5\n48 48\n255\n" + bytes(100))
    return tmp_path / "faces"


def assert_refusal(code, capsys, phrase="single spectrum mode"):
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polarface: error:")
    assert phrase in err[0]


@pytest.mark.parametrize(
    "args, phrase",
    [
        (("experiment", "error-rate", "--mode", "pca"), "argument --mode: invalid choice: 'pca'"),
        (("extract", "--k-train", "five"), "argument --k-train: invalid int value: 'five'"),
    ],
)
def test_bad_flag_values_exit_two_with_one_line(toy_faces, tmp_path, capsys, args, phrase):
    # argparse's own refusal once printed a usage block above its error line
    out = tmp_path / "runs"
    assert_refusal(run_cli(*args, "--dataset", toy_faces, "--out", out), capsys, phrase)
    assert not out.exists()


def test_help_prints_usage(capsys):
    with pytest.raises(SystemExit) as stop:
        run_cli("experiment", "--help")
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polarface experiment")


def test_feature_map_rejects_fused_mode(toy_faces, truncated_faces, tmp_path, capsys):
    # the mode is refused before any image is read, so a broken tree
    # gets the same error
    for k, faces in enumerate((toy_faces, truncated_faces)):
        code = run_cli(
            "experiment", "feature-map",
            "--dataset", faces, "--mode", "fused", "--out", tmp_path / f"r{k}",
        )
        assert_refusal(code, capsys)
    # extract loads the same config, so it refuses the same settings
    config = tmp_path / "run.ini"
    config.write_text("[run]\nmode = fused\n[experiment]\ntype = feature-map\n")
    out = tmp_path / "features"
    assert_refusal(run_cli("extract", "--config", config, "--dataset", toy_faces, "--out", out), capsys)
    assert not out.exists()


def test_subject_curve_without_counts_fails_before_reading(toy_faces, truncated_faces, tmp_path, capsys):
    for k, faces in enumerate((toy_faces, truncated_faces)):
        code = run_cli(
            "experiment", "subject-curve",
            "--dataset", faces, "--mode", "dft", "--out", tmp_path / f"r{k}",
        )
        assert_refusal(code, capsys, "subject_counts")


@pytest.mark.parametrize(
    "body, phrase",
    [
        ("[run]\ndataset = {tmp}/100%faces\n", "100%faces"),  # loads; the tree is missing
        ("[dft]\nmax_cycles = inf\n", "dft.max_cycles must be a finite number"),
        ("[normalize]\nellipse_axes = nan,nan\n", "normalize.ellipse_axes must be"),
        ("[DEFAULT]\nmode = dft\n[run]\nlayout = orl\n", "unknown config section [DEFAULT]"),
        # refused when the config loads, although a dft run never resamples to polar
        ("[fbt]\nangular_resolution = 0.7\n", "angular_resolution 0.7 does not divide 360 evenly"),
    ],
)
def test_bad_config_files_exit_two(toy_faces, tmp_path, capsys, body, phrase):
    config = tmp_path / "run.ini"
    config.write_text(body.format(tmp=tmp_path))
    code = run_cli(
        "experiment", "error-rate", "--config", config, "--mode", "dft", "--out", tmp_path / "runs",
        *(() if "dataset" in body else ("--dataset", toy_faces)),
    )
    assert_refusal(code, capsys, phrase)


@pytest.mark.parametrize(
    "body, phrase",
    [
        ("[experiment]\ntype = learning-curve\nk_values = 0,3\n", "experiment.k_values"),
        ("[experiment]\ntype = subject-curve\nsubject_counts = 1\n", "experiment.subject_counts"),
    ],
)
def test_bad_curve_points_refused_before_any_output(toy_faces, tmp_path, capsys, body, phrase):
    config = tmp_path / "run.ini"
    config.write_text(body)
    out = tmp_path / "runs"
    code = run_cli("experiment", "--config", config, "--dataset", toy_faces, "--mode", "dft", "--out", out)
    assert_refusal(code, capsys, phrase)
    assert not out.exists()


@pytest.mark.parametrize(
    "args, body, phrase",
    [
        (("error-rate", "--k-train", "7"), "", "need more than k_train=7"),
        (("cmc", "--k-train", "9"), "", "need more than k_train=9"),
        (("feature-map", "--k-train", "7"), "", "need more than k_train=7"),
        (("learning-curve",), "[experiment]\nk_values = 1,3,7\n", "need more than k_train=7"),
        (("subject-curve",), "[experiment]\nsubject_counts = 2,4\n", "n_subjects 4 exceeds available 3"),
        # a 14.2 PiB gallery mask: refused before numpy is asked for it
        (("error-rate", "--k-train", "2", "--reps", "1000000000000000"), "", "GiB gallery mask"),
    ],
)
def test_unsatisfiable_splits_refused_before_extraction(toy_faces, tmp_path, capsys, monkeypatch, args, body, phrase):
    # toy_faces has 3 subjects of 7 images each
    def never(*_):
        raise AssertionError("features were extracted")

    monkeypatch.setattr(cli, "_feature_tables", never)
    config = tmp_path / "run.ini"
    config.write_text(body)
    code = run_cli("experiment", *args, "--config", config, "--dataset", toy_faces, "--mode", "dft",
                   "--out", tmp_path / "runs")
    assert_refusal(code, capsys, phrase)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("mode", ["dft", "fused"])
def test_oversized_max_cycles_refused_before_the_lattice_is_made(toy_faces, tmp_path, capsys, monkeypatch, mode):
    # the lattice of 400 cycles has 502 625 cells; the 48 x 48 toy faces hold radius 23
    def never(*_):
        raise AssertionError("the DFT lattice was enumerated")

    monkeypatch.setattr(features, "dft_feature_frequencies", never)
    config = tmp_path / "run.ini"
    config.write_text("[dft]\nmax_cycles = 400\n")
    code = run_cli("experiment", "error-rate", "--config", config, "--dataset", toy_faces, "--mode", mode,
                   "--k-train", "4", "--reps", "1", "--out", tmp_path / "runs")
    assert_refusal(code, capsys, "max_cycles 400.0 exceeds the 48x48 frequency plane")
    assert not (tmp_path / "runs").exists()


def test_comma_in_an_image_id_leaves_no_output(toy_faces, tmp_path, capsys):
    # every table is rendered before --out is made, so a cell the CSV
    # format refuses leaves no file behind
    faces = tmp_path / "faces"
    shutil.copytree(toy_faces / "s1", faces / "s,1")
    shutil.copytree(toy_faces / "s2", faces / "s2")
    out = tmp_path / "runs"
    code = run_cli("extract", "--dataset", faces, "--mode", "dft", "--out", out)
    assert_refusal(code, capsys, "a CSV cell may not contain a comma or newline: 's,1/1.pgm'")
    assert not out.exists()


def mixed_geometry_faces(root):
    """3 subjects x 3 images of 112x92 pixels, except s2/2.pgm at 80x64,
    with a 6-field manifest whose eyes sit at the same relative spots."""
    rng = np.random.default_rng(9)
    lines = []
    for s in range(1, 4):
        (root / f"s{s}").mkdir(parents=True)
        for k in range(1, 4):
            h, w = (80, 64) if (s, k) == (2, 2) else (112, 92)
            save_pgm(root / f"s{s}" / f"{k}.pgm", rng.integers(0, 256, size=(h, w)), maxval=255)
            lines.append(f"s{s}/{k}.pgm,s{s},{0.3 * w},{0.4 * h},{0.7 * w},{0.4 * h}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return root


def test_mixed_image_geometry_is_refused(tmp_path, capsys):
    faces = mixed_geometry_faces(tmp_path / "faces")
    for mode in ("dft", "fbt"):
        code = run_cli(
            "experiment", "error-rate", "--dataset", faces, "--mode", mode,
            "--k-train", "1", "--reps", "1", "--out", tmp_path / mode,
        )
        assert_refusal(code, capsys, "'s2/2.pgm' is (80, 64) but 's1/1.pgm' is (112, 92)")
        assert not (tmp_path / mode).exists()
    # normalization crops every image to one geometry, so the same tree passes
    assert run_cli(
        "experiment", "error-rate", "--dataset", faces / "manifest.csv", "--layout", "flat-manifest",
        "--normalize", "--mode", "dft", "--k-train", "1", "--reps", "1", "--out", tmp_path / "norm",
    ) == 0


def embedding_roc(dataset, out, orientation, mode="dft"):
    cfg = out.parent / "embedding.ini"
    cfg.write_text("[experiment]\ntype = roc\nverification_score = embedding\n")
    return run_cli(
        "experiment", "--config", cfg,
        "--dataset", dataset, "--mode", mode, "--score-orientation", orientation,
        "--k-train", "3", "--reps", "1", "--out", out,
    )


@pytest.mark.parametrize("orientation", ["distance", "similarity"])
def test_embedding_roc_in_both_orientations(noisy_faces, tmp_path, orientation):
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        assert embedding_roc(noisy_faces, out, orientation) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    summary = next(outs[0].glob("summary_*.csv")).read_text().splitlines()
    eer = float(summary[1].split(",")[3])
    assert 0.0 < eer < 0.5


def test_embedding_roc_rejects_fused_mode(noisy_faces, truncated_faces, tmp_path, capsys):
    for k, faces in enumerate((noisy_faces, truncated_faces)):
        assert_refusal(embedding_roc(faces, tmp_path / f"r{k}", "distance", mode="fused"), capsys)


def test_oversized_ascii_pgm_header_exits_two(tmp_path, capsys):
    # 2^30 x 2^30 declared pixels must be refused before any allocation
    for subject in ("s1", "s2"):
        (tmp_path / "faces" / subject).mkdir(parents=True)
        (tmp_path / "faces" / subject / "1.pgm").write_bytes(
            b"P2\n1073741824 1073741824\n255\n1 2 3\n"
        )
    code = run_cli(
        "extract", "--dataset", tmp_path / "faces", "--mode", "dft", "--out", tmp_path / "out",
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polarface: error:")


def test_non_utf8_manifest_exits_two(toy_faces, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(f"{toy_faces}/s1/1.pgm,s1\n".encode() + b"\xff\n")
    out = tmp_path / "runs"
    code = run_cli("experiment", "error-rate", "--layout", "flat-manifest", "--dataset", manifest, "--out", out)
    assert_refusal(code, capsys, "manifest.csv: manifest is not UTF-8 text")
    assert not out.exists()
