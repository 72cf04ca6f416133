"""The DFT operator against a direct extended-precision DFT and against
extract_dft, its refusals, and the image checks both operators share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import direct_dft_features
from polarface import (
    ConfigError,
    DFTConfig,
    DomainError,
    cli,
    dft_feature_columns,
    dft_feature_frequencies,
    dft_operator,
    extract_dft,
    fbt_operator,
)


@pytest.mark.parametrize(
    "shape, max_cycles",
    [((48, 40), 19.5), ((41, 37), 18.0), ((39, 40), 19.5), ((112, 92), 19.5), ((140, 118), 19.5)],
)
def test_operator_matches_direct_longdouble_dft(shape, max_cycles):
    # even, odd and prime sides (41, 37, 59 = 118 / 2), and r at the
    # largest the 39-pixel side allows; one positive and one zero-mean image
    rng = np.random.default_rng(shape[0] * shape[1])
    images = np.stack([rng.uniform(0.0, 255.0, shape), rng.uniform(-1.0, 1.0, shape)])
    images[1] -= images[1].mean()
    got = dft_operator(shape, DFTConfig(max_cycles))(images)[:, dft_feature_columns(max_cycles)]
    for image, row in zip(images, got):
        want = direct_dft_features(image, max_cycles)
        assert row.shape == want.shape
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(want)


@given(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 12.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_operator_matches_extract_dft_and_refuses_what_it_refuses(h, w, max_cycles, seed):
    config = DFTConfig(max_cycles)
    image = np.random.default_rng(seed).uniform(0.0, 255.0, size=(h, w))
    try:
        want = extract_dft(image, config).values
    except ConfigError:
        with pytest.raises(ConfigError, match="exceeds the"):
            dft_operator((h, w), config)
        return
    got = dft_operator((h, w), config)(image[None])[0][dft_feature_columns(max_cycles)]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@given(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 12.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_each_conjugate_pair_is_stored_once(h, w, max_cycles, seed):
    # even, odd and prime sides: the operator's row holds DC and one cell
    # of each pair (u, v), (-u, -v), and expands to extract_dft's row
    config = DFTConfig(max_cycles)
    image = np.random.default_rng(seed).uniform(0.0, 255.0, size=(h, w))
    try:
        want = extract_dft(image, config).values
    except ConfigError:
        return
    columns = dft_feature_columns(max_cycles)
    us, vs = dft_feature_frequencies(max_cycles)
    row = dft_operator((h, w), config)(image[None])[0]
    assert row.size == (us.size + 1) // 2 and columns[0] == 0 and us[0] == vs[0] == 0
    assert np.max(np.abs(row[columns] - want)) <= 1e-12 * np.max(want)
    cell = {(u, v): k for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist()))}
    mates = np.array([cell[-u, -v] for u, v in zip(us.tolist(), vs.tolist())])
    assert np.array_equal(columns[mates], columns)
    # the stored columns are the first cell of each pair, numbered in lattice order
    first = np.arange(us.size) <= mates
    assert np.array_equal(columns[first], np.arange(row.size))
    assert not columns.flags.writeable and dft_feature_columns(max_cycles) is columns


def both_operators(shape):
    """An FBT and a DFT operator of h x w images."""
    return fbt_operator(shape), dft_operator(shape, DFTConfig(4.5))


def test_operator_refuses_other_shapes():
    for op in both_operators((40, 42)):
        for image in (np.zeros((42, 40)), np.zeros((40, 43)), np.zeros(40 * 42)):
            # refused alone and after an image of the right shape
            for images in ([image], [np.ones((40, 42)), image]):
                with pytest.raises(DomainError, match="operator for"):
                    op(images)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_operator_refuses_non_finite_pixels(bad):
    image = np.ones((20, 20))
    image[7, 3] = bad
    for op in both_operators((20, 20)):
        with pytest.raises(DomainError, match="non-finite"):
            op(image[None])


@pytest.mark.parametrize("shape", [(38, 60), (60, 38), (0, 60)])
def test_operator_refuses_max_cycles_beyond_the_plane(shape):
    with pytest.raises(ConfigError, match="max_cycles 19.5 exceeds"):
        dft_operator(shape, DFTConfig(19.5))
    dft_operator((39, 39), DFTConfig(19.5))  # r = 19 fits a 39-pixel side


def test_corrupted_operator_stops_the_run(toy_faces, tmp_path, monkeypatch, capsys):
    build = cli.dft_operator

    def corrupted(*args):
        op = build(*args)
        op.rows[5, 3] += 1e-6
        return op

    monkeypatch.setattr(cli, "dft_operator", corrupted)
    code = cli.main([
        "experiment", "error-rate", "--dataset", str(toy_faces), "--mode", "fused",
        "--k-train", "4", "--reps", "1", "--out", str(tmp_path / "runs"),
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "the DFT operator differs from extract_dft" in err[0]
    assert not (tmp_path / "runs").exists()
