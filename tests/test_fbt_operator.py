"""The FBT operator against the per-image to_polar + fbt reference, and
the CLI's block-wise extraction through it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import extract_fbt
from polarface import (
    Dataset,
    DatasetEntry,
    DFTConfig,
    FBTConfig,
    NormalizationConfig,
    RunConfig,
    dft_operator,
    extract_dft,
    face_mask,
    fbt_operator,
    save_pgm,
)
from polarface import cli

# ray counts 720 ... 1: multiples of 4, even but not of 4 (6, 18, 30, 50)
# and odd (15, 9, 5, 3, 1)
RESOLUTIONS = (0.5, 1.0, 2.0, 2.5, 5.0, 7.2, 12.0, 20.0, 24.0, 40.0, 45.0, 60.0, 72.0, 90.0, 120.0, 360.0)


def assert_matches_reference(images, config, tol=1e-12):
    got = fbt_operator(images.shape[1:], config)(images)
    for image, row in zip(images, got):
        want = extract_fbt(image, config).values
        assert np.max(np.abs(row - want)) <= tol * max(1.0, np.max(np.abs(want)))


@given(
    st.integers(2, 40),
    st.integers(2, 40),
    st.integers(0, 8),
    st.integers(1, 4),
    st.sampled_from(RESOLUTIONS),
    st.sampled_from(("uniform", "zero", "constant")),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_operator_matches_per_image_reference(h, w, max_order, max_root, res, kind, seed):
    rng = np.random.default_rng(seed)
    images = {
        "uniform": rng.uniform(0.0, 255.0, size=(2, h, w)),
        "zero": np.zeros((1, h, w)),
        "constant": np.full((1, h, w), 173.0),
    }[kind]
    assert_matches_reference(images, FBTConfig(max_order, max_root, res))


def test_residual_carries_border_samples():
    # at 3 x 2 and 5 degrees, ring 1 has 25 inside samples: the orbits
    # around 30 degrees lose one member to rounding and go unfolded
    config = FBTConfig(max_order=4, max_root=3, angular_resolution=5.0)
    op = fbt_operator((3, 2), config)
    assert op.residual_pixels.size > 0
    images = np.random.default_rng(3).uniform(size=(3, 3, 2))
    assert_matches_reference(images, config)


def test_odd_ray_count_is_all_residual():
    config = FBTConfig(max_order=3, max_root=2, angular_resolution=72.0)
    op = fbt_operator((9, 7), config)
    assert op.quarter.shape[1] == 0 and op.residual_pixels.size > 0
    assert_matches_reference(np.random.default_rng(4).uniform(size=(2, 9, 7)), config)


@pytest.mark.parametrize("shape", [(112, 92), (140, 118)])
def test_default_geometries_fold_completely(shape):
    op = fbt_operator(shape)
    assert op.residual_pixels.size == 0
    h, w = shape
    quadrant = (h - (h - 1) // 2) * (w - (w - 1) // 2)
    assert op.mirrors.shape == (4, quadrant)
    # one column per quadrant pixel, zero-padded to whole 64-column slices
    assert op.quarter.shape == (183, -(-quadrant // 64) * 64)
    assert not op.quarter[:, quadrant:].any()
    images = np.random.default_rng(5).uniform(0.0, 255.0, size=(2, *shape))
    got = op(images)
    for image, row in zip(images, got):
        want = extract_fbt(image).values
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.all(row[93:96] == 0.0)  # B_0 is exactly zero


@given(st.integers(2, 30), st.integers(2, 30), st.sampled_from((1.0, 5.0, 72.0)), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_support_drops_columns_of_pixels_no_image_lights(h, w, res, seed):
    rng = np.random.default_rng(seed)
    support = rng.uniform(size=(h, w)) < 0.6
    config = FBTConfig(max_order=5, max_root=2, angular_resolution=res)
    op = fbt_operator((h, w), config, support)
    full = fbt_operator((h, w), config)
    assert op.mirrors.shape[1] <= full.mirrors.shape[1]
    assert np.all(support.ravel()[op.residual_pixels])
    images = rng.uniform(0.0, 255.0, size=(2, h, w)) * support
    for image, row in zip(images, op(images)):
        want = extract_fbt(image, config).values
        assert np.max(np.abs(row - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_face_mask_bounds_the_normalized_operator():
    mask = face_mask(NormalizationConfig())
    op = fbt_operator(mask.shape, FBTConfig(), mask)
    assert op.mirrors.shape[1] < fbt_operator(mask.shape).mirrors.shape[1]
    image = np.random.default_rng(6).uniform(0.0, 255.0, size=mask.shape) * mask
    want = extract_fbt(image).values
    assert np.max(np.abs(op(image[None])[0] - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n_images", [1, 15, 16, 17, 33])
def test_block_boundaries(n_images):
    rng = np.random.default_rng(n_images)
    images = rng.uniform(0.0, 255.0, size=(n_images, 48, 40))
    config = RunConfig(mode="fused", dft=DFTConfig(max_cycles=9.5))

    def tables(order):
        dataset = Dataset(tuple(DatasetEntry(f"i{k}", f"s{k % 3}", image=images[k]) for k in order))
        return cli._feature_tables(dataset, config)

    forward, backward = tables(range(n_images)), tables(range(n_images - 1, -1, -1))
    operators = {"fbt": fbt_operator(images.shape[1:], config.fbt), "dft": dft_operator(images.shape[1:], config.dft)}
    references = {"fbt": lambda image: extract_fbt(image, config.fbt), "dft": lambda image: extract_dft(image, config.dft)}
    for row, image in enumerate(images):
        for mode, op in operators.items():
            got, want = forward[mode][row].values, references[mode](image).values
            assert np.max(np.abs(forward[mode].expand(got) - want)) <= 1e-12 * np.max(np.abs(want))
            # a row never depends on its block, its position or the dataset size
            assert np.array_equal(got, op(image[None])[0])
            assert np.array_equal(got, backward[mode][n_images - 1 - row].values)


def eye_faces(root, n_subjects=3, n_images=6):
    """112 x 92 random faces with a 6-field manifest."""
    rng = np.random.default_rng(12)
    lines = []
    for s in range(1, n_subjects + 1):
        (root / f"s{s}").mkdir(parents=True)
        for k in range(1, n_images + 1):
            save_pgm(root / f"s{s}" / f"{k}.pgm", rng.integers(0, 256, size=(112, 92)), maxval=255)
            left, right = (rng.uniform(28, 34), rng.uniform(44, 50)), (rng.uniform(58, 64), rng.uniform(44, 50))
            lines.append(f"s{s}/{k}.pgm,s{s},{left[0]},{left[1]},{right[0]},{right[1]}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return root / "manifest.csv"


def test_fused_normalized_run_is_independent_of_blas_threads(tmp_path):
    # the FBT projection and the distance kernel sum fixed 64-wide slices of their inner axis in
    # order, so BLAS cannot split that axis differently for another thread count; two child
    # processes, at one and at two BLAS threads (all a 2-core machine can show), write the same bytes
    manifest = eye_faces(tmp_path / "faces")
    src = Path(cli.__file__).resolve().parents[1]
    common = ["--mode", "fused", "--normalize", "--layout", "flat-manifest", "--dataset", str(manifest)]
    outs = [tmp_path / "one", tmp_path / "two"]
    for out, threads in zip(outs, ("1", "2")):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        for run in (["extract"], ["experiment", "roc", "--k-train", "3", "--reps", "1"]):
            subprocess.run([sys.executable, "-m", "polarface.cli", *run, *common, "--out", str(out)],
                           env=env, check=True, capture_output=True)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"features_fbt", "features_dft", "roc_fused"} <= {name.rsplit("_", 1)[0] for name in names}
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_corrupted_operator_stops_the_run(toy_faces, tmp_path, monkeypatch, capsys):
    build = cli.fbt_operator

    def corrupted(*args):
        op = build(*args)
        op.quarter[40, 100] += 1e-6
        return op

    monkeypatch.setattr(cli, "fbt_operator", corrupted)
    code = cli.main([
        "experiment", "error-rate", "--dataset", str(toy_faces), "--mode", "fbt",
        "--k-train", "4", "--reps", "1", "--out", str(tmp_path / "runs"),
    ])
    assert code != 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "the FBT operator differs from to_polar + fbt" in err[0]
    assert not (tmp_path / "runs").exists()
