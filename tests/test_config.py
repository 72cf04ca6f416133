"""Config defaults, file parsing, override precedence, canonical hash."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import mutated
from polarface import (
    DFTConfig,
    FBTConfig,
    NormalizationConfig,
    RunConfig,
    SplitSpec,
    config_hash,
    load_run_config,
    resolved_text,
)
from polarface.config import EXPERIMENTS, LAYOUTS, MODES, ORIENTATIONS, VERIFICATION_SCORES
from polarface.errors import ConfigError, PolarFaceError


def test_defaults():
    cfg = load_run_config()
    assert cfg == RunConfig()
    assert cfg.mode == "fbt"
    assert cfg.fbt.n_features == 186
    assert cfg.split.k_train == 5
    assert cfg.split.repetitions == 10
    assert cfg.k_values == (1, 3, 5)


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\n"
        "mode = dft\n"
        "dataset = /data/faces\n"
        "normalize = yes\n"
        "workers = 4\n"
        "[experiment]\n"
        "type = learning-curve\n"
        "k_values = 2, 4\n"
        "[fbt]\n"
        "max_order = 12\n"
        "[dft]\n"
        "max_cycles = 8.5\n"
        "[split]\n"
        "k_train = 3\n"
        "n_subjects = 15\n"
        "seed = 99\n"
        "[normalize]\n"
        "crop_width = 64\n"
        "crop_height = 80\n"
        "left_eye_target = 16,24\n"
        "right_eye_target = 47,24\n"
        "ellipse_center = 31.5,40\n"
        "ellipse_axes = 30,38\n"
    )
    cfg = load_run_config(path)
    assert cfg.mode == "dft"
    assert cfg.dataset == "/data/faces"
    assert cfg.normalize is True
    assert cfg.workers == 4
    assert cfg.experiment == "learning-curve"
    assert cfg.k_values == (2, 4)
    assert cfg.fbt.max_order == 12
    assert cfg.fbt.max_root == 3  # untouched keys keep defaults
    assert cfg.dft.max_cycles == 8.5
    assert cfg.split.k_train == 3
    assert cfg.split.n_subjects == 15
    assert cfg.split.seed == 99
    assert cfg.normalization.crop_width == 64
    assert cfg.normalization.ellipse_axes == (30.0, 38.0)


def test_cli_overrides_beat_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nmode = dft\n[split]\nk_train = 3\n")
    cfg = load_run_config(path, {"mode": "fused", "k_train": 4, "seed": None})
    assert cfg.mode == "fused"
    assert cfg.split.k_train == 4
    assert cfg.split.seed == 0  # None override leaves the file/default value
    # only the merged settings are judged: an overridden file value that
    # could not run alone is never refused
    path.write_text("[run]\nworkers = 0\n")
    assert load_run_config(path, {"workers": 2}).workers == 2
    path.write_text("[experiment]\ntype = subject-curve\n")
    assert load_run_config(path, {"experiment": "error-rate"}).experiment == "error-rate"


def test_unknown_section_and_key_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[runn]\nmode = fbt\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "[runn]" in str(err.value)
    path.write_text("[run]\nmoed = fbt\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "'moed'" in str(err.value)
    # a [DEFAULT] section would silently apply to, or be missing from,
    # every other section
    path.write_text("[DEFAULT]\nmode = dft\n[run]\nlayout = orl\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "[DEFAULT]" in str(err.value)


def test_bad_values_rejected(tmp_path):
    path = tmp_path / "run.ini"
    for body in (
        "[run]\nmode = pca\n",
        "[run]\nnormalize = maybe\n",
        "[run]\nworkers = 0\n",
        "[split]\nk_train = five\n",
        "[experiment]\ntype = tsne\n",
        "[experiment]\nk_values = 1,x\n",
        "[fbt]\nangular_resolution = fine\n",
        "[fbt]\nangular_resolution = 0.7\n",  # 360 / 0.7 rays is not a whole number
        "[experiment]\nk_values =\n",
        "[dft]\nmax_cycles = inf\n",
        "[normalize]\nellipse_axes = nan,nan\n",
        "[normalize]\nellipse_center = 1,2,3\n",
    ):
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_run_config(path)
    path.write_bytes(b"[run]\ndataset = \xff\n")  # not UTF-8
    with pytest.raises(ConfigError):
        load_run_config(path)
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.ini")


@pytest.mark.parametrize(
    "body, phrase",
    [
        ("[experiment]\nk_values = 0,3\n", "experiment.k_values: k_train must be >= 1, got 0"),
        ("[experiment]\nsubject_counts = 10,1\n", "experiment.subject_counts: n_subjects must be >= 2, got 1"),
        # the settings no experiment can run together
        ("[experiment]\ntype = subject-curve\n", "subject-curve needs experiment.subject_counts"),
        ("[run]\nmode = fused\n[experiment]\ntype = feature-map\n",
         "feature-map needs a single spectrum mode (fbt or dft)"),
        ("[run]\nmode = fused\n[experiment]\ntype = roc\nverification_score = embedding\n",
         "embedding verification needs a single spectrum mode"),
    ],
)
def test_curve_points_checked_on_load(tmp_path, body, phrase):
    path = tmp_path / "run.ini"
    path.write_text(body)
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert phrase in str(err.value)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_split_specs_one_per_curve_point(experiment):
    split = SplitSpec(k_train=2, n_subjects=30, seed=7)
    cfg = RunConfig(experiment=experiment, k_values=(1, 4), subject_counts=(5, 10, 20), split=split)
    specs = cfg.split_specs()
    if experiment == "learning-curve":
        assert specs == [dataclasses.replace(split, k_train=k) for k in (1, 4)]
    elif experiment == "subject-curve":
        assert specs == [dataclasses.replace(split, n_subjects=n) for n in (5, 10, 20)]
    else:
        assert specs == [split]


def test_percent_is_a_literal(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\ndataset = /data/100%faces\n")
    cfg = load_run_config(path)
    assert cfg == RunConfig(dataset="/data/100%faces")
    path.write_text(resolved_text(cfg))
    assert load_run_config(path) == cfg


def test_readme_sample_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sample = readme.split("## Config files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.ini"
    path.write_text(sample)
    assert load_run_config(path) == RunConfig(dataset="/data/faces")


def test_resolved_text_is_canonical():
    text = resolved_text(RunConfig())
    assert text.startswith("[run]\n")
    keys = {line.split(" = ")[0] for line in text.splitlines() if " = " in line}
    assert "out" not in keys and "workers" not in keys
    assert "n_subjects = \n" in text  # unset cap renders empty
    assert resolved_text(RunConfig()) == text  # stable across calls
    assert "max_cycles = 19.5" in text
    # pinned: a change here renames every run_config_<hash>.ini and
    # hash-tagged output
    assert config_hash(RunConfig()) == "c4200496"


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
def counts(low):
    return st.lists(st.integers(low, 60), max_size=4).map(tuple)


@st.composite
def run_configs(draw):
    width, height = draw(st.integers(2, 300)), draw(st.integers(2, 300))
    eye = st.tuples(st.floats(0, width - 1), st.floats(0, height - 1))
    left, right = draw(eye), draw(eye)
    assume(left != right)
    values = dict(
        mode=draw(st.sampled_from(MODES)),
        dataset=draw(st.text(alphabet="aZ09/._-%;#=:[] ", max_size=16).map(str.strip)),
        layout=draw(st.sampled_from(LAYOUTS)),
        normalize=draw(st.booleans()),
        out=draw(st.sampled_from(("runs", "elsewhere"))),
        workers=draw(st.integers(1, 8)),
        score_orientation=draw(st.sampled_from(ORIENTATIONS)),
        experiment=draw(st.sampled_from(EXPERIMENTS)),
        k_values=draw(counts(1).filter(bool)),  # k_train >= 1
        subject_counts=draw(counts(2)),  # n_subjects >= 2
        verification_score=draw(st.sampled_from(VERIFICATION_SCORES)),
        fbt=FBTConfig(draw(st.integers(0, 40)), draw(st.integers(1, 10)), 360 / draw(st.integers(1, 720))),
        dft=DFTConfig(draw(st.floats(min_value=0.0, allow_infinity=False))),
        split=SplitSpec(
            k_train=draw(st.integers(1, 20)),
            n_subjects=draw(st.none() | st.integers(2, 100)),
            repetitions=draw(st.integers(1, 50)),
            seed=draw(st.integers(0, 2**40)),
        ),
        normalization=NormalizationConfig(
            left_eye_target=left,
            right_eye_target=right,
            crop_width=width,
            crop_height=height,
            ellipse_center=draw(st.tuples(finite, finite)),
            ellipse_axes=draw(st.tuples(positive, positive)),
        ),
    )
    # only configs that can run: a draw RunConfig refuses is discarded
    try:
        return RunConfig(**values)
    except ConfigError:
        assume(False)


@given(cfg=run_configs())
@settings(deadline=None)
def test_resolved_text_round_trips(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round_trip.ini"
    path.write_text(resolved_text(cfg), encoding="utf-8")
    loaded = load_run_config(path)
    assert loaded == dataclasses.replace(cfg, out=RunConfig().out, workers=RunConfig().workers)
    assert resolved_text(loaded) == resolved_text(cfg)


# Valid config files for the fuzzer below to mutate: the defaults, and a
# run that sets the optional values the defaults leave empty.
_INI_SEEDS = tuple(
    resolved_text(cfg).encode("utf-8")
    for cfg in (
        RunConfig(),
        RunConfig(mode="dft", normalize=True, k_values=(1, 3), subject_counts=(2, 4),
                  split=SplitSpec(k_train=2, n_subjects=10, seed=7)),
    )
)


@given(mutated(_INI_SEEDS))
@settings(max_examples=300, deadline=None)
def test_mutated_config_files_load_or_raise_polarface_errors(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_bytes(blob)
    try:
        load_run_config(path)
    except PolarFaceError:
        pass


def test_hash_ignores_execution_details_only():
    base = RunConfig()
    assert len(config_hash(base)) == 8
    assert int(config_hash(base), 16) >= 0
    moved = RunConfig(out="elsewhere", workers=8)
    assert config_hash(moved) == config_hash(base)
    for variant in (
        RunConfig(mode="dft"),
        RunConfig(normalize=True),
        RunConfig(score_orientation="similarity"),
        RunConfig(k_values=(1, 2)),
    ):
        assert config_hash(variant) != config_hash(base)
    reseeded = dataclasses.replace(base, split=dataclasses.replace(base.split, seed=1))
    assert config_hash(reseeded) != config_hash(base)
