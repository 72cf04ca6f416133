"""Polar-frequency feature extraction: FBT and DFT magnitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarface import (
    DFTConfig,
    FBTConfig,
    dft_feature_frequencies,
    dft_features,
    dft_magnitude,
    extract_dft,
    fbt,
    fbt_features,
    synth_angular,
    synth_mix,
    synth_radial,
    to_polar,
)
from polarface.errors import ConfigError, DomainError
from polarface.evaluate import csv_text
from polarface.features import _SLICE, _sliced_matmul, dft_error_map, fbt_error_map

from oracles import dft_lattice_loop, extract_fbt, inverse_fbt, read_feature_file, spectrum_from_features

SMALL = FBTConfig(max_order=4, max_root=3, angular_resolution=5.0)


def offset_blob(size, radius, angle_deg, sigma=7.0):
    """Gaussian blob at polar position (radius, angle) about the center."""
    c = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    x0 = c + radius * math.cos(math.radians(angle_deg))
    y0 = c + radius * math.sin(math.radians(angle_deg))
    return np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / (2.0 * sigma**2))


def test_config_defaults_and_feature_count():
    assert FBTConfig().n_features == 186
    assert FBTConfig(max_order=30, max_root=10).n_features == 620


def test_config_validation():
    with pytest.raises(ConfigError):
        FBTConfig(max_order=-1)
    with pytest.raises(ConfigError):
        FBTConfig(max_root=0)
    with pytest.raises(ConfigError):
        FBTConfig(angular_resolution=0.0)
    with pytest.raises(ConfigError):
        DFTConfig(max_cycles=-1.0)


@pytest.mark.parametrize("max_cycles", [math.inf, -math.inf, math.nan])
def test_non_finite_max_cycles_refused(max_cycles):
    # an infinite radius would reach extract_dft as a raw OverflowError
    with pytest.raises(ConfigError, match="finite"):
        DFTConfig(max_cycles)


def test_fbt_shapes_and_zero_sine_row():
    grid = to_polar(np.random.default_rng(0).uniform(size=(41, 41)), 5.0)
    spec = fbt(grid, SMALL)
    assert spec.A.shape == (5, 3)
    assert spec.B.shape == (5, 3)
    assert np.all(spec.B[0] == 0.0)
    assert spec.max_order == 4 and spec.max_root == 3
    assert spec.modulus().shape == (5, 3)


def test_fbt_rejects_mismatched_grid_resolution():
    grid = to_polar(np.zeros((21, 21)), 2.0)
    with pytest.raises(ConfigError):
        fbt(grid, SMALL)


def test_constant_disk_concentrates_in_order_zero():
    # a constant square image is NOT angularly flat (its corners carry
    # 4-fold structure), so build the constant directly on the disk
    from polarface import PolarGrid

    grid = PolarGrid(
        samples=np.full((72, 21), 0.7),
        center=(10.0, 10.0),
        max_radius=20.5,
        angular_resolution=5.0,
    )
    spec = fbt(grid, SMALL)
    top = np.abs(spec.A[0]).max()
    assert top > 0.0
    assert np.abs(spec.A[1:]).max() < 1e-10 * top
    assert np.abs(spec.B).max() < 1e-10 * top


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fbt_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    img1 = rng.uniform(size=(31, 31))
    img2 = rng.uniform(size=(31, 31))
    g1 = fbt(to_polar(img1, 5.0), SMALL)
    g2 = fbt(to_polar(img2, 5.0), SMALL)
    mix = fbt(to_polar(a * img1 + b * img2, 5.0), SMALL)
    assert np.allclose(mix.A, a * g1.A + b * g2.A, atol=1e-11)
    assert np.allclose(mix.B, a * g1.B + b * g2.B, atol=1e-11)


def test_rotation_leaves_modulus_invariant():
    # the blob is rotated analytically, so no resampling error is involved
    cfg = FBTConfig(max_order=12, max_root=6, angular_resolution=1.0)
    m0 = fbt(to_polar(offset_blob(101, 18.0, 10.0), 1.0), cfg).modulus()
    m1 = fbt(to_polar(offset_blob(101, 18.0, 46.5), 1.0), cfg).modulus()
    assert np.max(np.abs(m1 - m0)) < 1e-3 * max(np.max(m0), 1e-30)


def test_spectrum_round_trip_through_inverse():
    rng = np.random.default_rng(42)
    n_rays, n_rings = 360, 48
    R = float(n_rings - 1) + 0.5
    cfg = FBTConfig(max_order=10, max_root=8, angular_resolution=1.0)
    values = rng.uniform(-1.0, 1.0, size=cfg.n_features)
    spec = spectrum_from_features(values, cfg.max_order, cfg.max_root, R)
    spec.B[0, :] = 0.0
    back = fbt(inverse_fbt(spec, n_rays, n_rings), cfg)
    ref = np.concatenate([spec.A.ravel(), spec.B.ravel()])
    got = np.concatenate([back.A.ravel(), back.B.ravel()])
    rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    assert rel < 0.05


def test_small_scale_radial_peak():
    # same mechanism as the 131x131 oracle, smaller geometry
    cfg = FBTConfig(max_order=8, max_root=6, angular_resolution=2.0)
    spec = fbt(to_polar(synth_radial(4.0, 65), 2.0), cfg)
    mod = spec.modulus()
    mod[0, 0] = -np.inf  # ignore DC
    n, i = np.unravel_index(np.argmax(mod), mod.shape)
    assert (n, i + 1) == (0, 4)


def test_feature_vector_layout_and_inverse_mapping():
    img = synth_mix(6.0, 3, 65)
    vec = extract_fbt(img, SMALL)
    assert vec.layout_id == "fbt-30"
    assert vec.values.size == SMALL.n_features
    grid = to_polar(img, SMALL.angular_resolution)
    spec = fbt(grid, SMALL)
    rebuilt = spectrum_from_features(vec.values, SMALL.max_order, SMALL.max_root, grid.max_radius)
    assert np.array_equal(rebuilt.A, spec.A)
    assert np.array_equal(rebuilt.B, spec.B)
    with pytest.raises(ConfigError):
        spectrum_from_features(vec.values[:-1], SMALL.max_order, SMALL.max_root, grid.max_radius)


def test_default_extract_fbt_layout_id():
    assert extract_fbt(np.zeros((31, 31)) + 0.3).layout_id == "fbt-186"


def sliced_loop(a, b):
    """a @ b.T as an explicit in-order sum of one product per _SLICE-wide
    column slice of the operands as given.  Not of contiguous copies: for a
    transposed operand, OpenBLAS rounds some small products differently."""
    total = np.zeros((len(a), len(b)))
    for s in range(0, a.shape[1], _SLICE):
        total += a[:, s:s + _SLICE] @ b[:, s:s + _SLICE].T
    return total


@pytest.mark.parametrize("m, n, slices", [(16, 13, 3), (64, 200, 10), (5, 64, 1), (16, 7, 0)])
def test_sliced_matmul_is_the_in_order_slice_sum(m, n, slices):
    # operands laid out as the callers' are: a column range of a block, a row range of an
    # operator, a transpose and an F-ordered matrix, each with one more slice, all zero
    rng = np.random.default_rng(m * n + slices)
    k = (slices + 1) * _SLICE
    block = rng.normal(size=(m, 3 * k + 5))
    operator = rng.normal(size=(n + 9, k))
    cases = [(block[:, k:2 * k], operator[4:4 + n]),
             (rng.normal(size=(k, m)).T, rng.normal(size=(n, 2 * k))[:, k:]),
             (np.asfortranarray(rng.normal(size=(m, k))), rng.normal(size=(k, n)).T)]
    for a, b in cases:
        a[:, -_SLICE:] = b[:, -_SLICE:] = 0.0
        got = _sliced_matmul(a[:, :-_SLICE], b[:, :-_SLICE])
        assert got.shape == (m, n)
        assert np.array_equal(got, sliced_loop(a[:, :-_SLICE], b[:, :-_SLICE]))
        assert np.array_equal(_sliced_matmul(a, b), got)  # the zero slice adds exact zeros


@pytest.mark.parametrize("ka, kb", [(63, 63), (65, 65), (64, 128), (1, 1)])
def test_sliced_matmul_refuses_partial_slices(ka, kb):
    with pytest.raises(ValueError):
        _sliced_matmul(np.ones((4, ka)), np.ones((3, kb)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_dft_parseval(seed):
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(8, 6))
    mag = dft_magnitude(img)
    assert np.sum(mag**2) == pytest.approx(np.sum(img**2), rel=1e-12)


def test_dft_single_cosine_closed_form():
    h, w, u0 = 16, 24, 5
    xs = np.arange(w, dtype=float)
    img = np.tile(np.cos(2.0 * math.pi * u0 * xs / w), (h, 1))
    mag = dft_magnitude(img)
    cy, cx = h // 2, w // 2
    peak = math.sqrt(h * w) / 2.0
    assert mag[cy, cx + u0] == pytest.approx(peak, rel=1e-12)
    assert mag[cy, cx - u0] == pytest.approx(peak, rel=1e-12)
    mask = np.ones_like(mag, dtype=bool)
    mask[cy, cx + u0] = mask[cy, cx - u0] = False
    assert np.max(mag[mask]) < 1e-9 * peak


def test_dft_dc_is_scaled_mean():
    img = np.full((10, 14), 2.5)
    mag = dft_magnitude(img)
    assert mag[5, 7] == pytest.approx(2.5 * math.sqrt(10 * 14), rel=1e-12)


def test_frequency_lattice_counts():
    assert dft_feature_frequencies(0.0)[0].size == 1
    assert dft_feature_frequencies(1.0)[0].size == 5
    assert dft_feature_frequencies(1.5)[0].size == 9
    brute = sum(
        1
        for u in range(-20, 21)
        for v in range(-20, 21)
        if u * u + v * v <= 19.5**2
    )
    assert dft_feature_frequencies(19.5)[0].size == brute
    assert abs(brute - 1200) <= 12  # within 1% of the nominal 1200


def test_frequency_lattice_ordering():
    freqs = list(zip(*(a.tolist() for a in dft_feature_frequencies(3.0))))
    assert freqs[0] == (0, 0)
    assert freqs[1] == (1, 0)  # angle 0 before angle pi/2
    radii = [math.hypot(u, v) for u, v in freqs]
    assert all(radii[i] <= radii[i + 1] + 1e-12 for i in range(len(radii) - 1))
    assert len(set(freqs)) == len(freqs)


def test_dft_features_select_plane_values():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(32, 32))
    mag = dft_magnitude(img)
    cfg = DFTConfig(max_cycles=4.5)
    vec = dft_features(mag, cfg)
    us, vs = dft_feature_frequencies(4.5)
    assert vec.layout_id == f"dft-{us.size}"
    for u, v, value in zip(us, vs, vec.values):
        assert value == mag[16 + v, 16 + u]


def test_dft_lattice_cache_is_read_only():
    us, vs = dft_feature_frequencies(19.5)
    assert dft_feature_frequencies(19.5)[0] is us
    for lattice in (us, vs):
        with pytest.raises(ValueError):
            lattice[0] = 1


@pytest.mark.parametrize("max_cycles", [0, 0.5, 1, 1.5, 2, 2.5, 3, 4.5, 7.07, 10, 12.3, 19.5, 25, 40, 63.5])
def test_dft_lattice_equals_double_loop_oracle(max_cycles):
    us, vs = dft_feature_frequencies(max_cycles)
    assert list(zip(us.tolist(), vs.tolist())) == list(dft_lattice_loop(max_cycles))


def test_dft_features_plane_bound():
    with pytest.raises(ConfigError):
        extract_dft(np.zeros((24, 24)))  # default 19.5 cycles cannot fit


def test_fbt_error_map_layout():
    errors = np.arange(30, dtype=float)
    planes = fbt_error_map(errors, 4, 3)
    assert planes.shape == (2, 5, 3)
    assert planes[0, 0, 0] == 0.0
    assert planes[1, 0, 0] == 15.0
    with pytest.raises(ConfigError):
        fbt_error_map(errors[:-1], 4, 3)


def test_dft_error_map_scatter():
    cfg = DFTConfig(max_cycles=2.0)
    us, vs = dft_feature_frequencies(2.0)
    errors = np.arange(us.size, dtype=float)
    plane = dft_error_map(errors, cfg)
    assert plane.shape == (5, 5)
    assert np.sum(~np.isnan(plane)) == us.size
    assert plane[2, 2] == 0.0  # DC mapped to the center
    for u, v, e in zip(us, vs, errors):
        assert plane[2 + v, 2 + u] == e


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(finite_floats, min_size=1, max_size=8), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_feature_file_round_trip(values, tag):
    # a feature row as the extract command writes it: ids, layout, values
    rows = [(f"img{tag}", f"s{tag}", f"toy-{len(values)}", *values)]
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text(None, rows))
        back = read_feature_file(path)
    finally:
        os.unlink(path)
    assert len(back) == 1
    image_id, subject_id, vec = back[0]
    assert (image_id, subject_id, vec.layout_id) == (f"img{tag}", f"s{tag}", f"toy-{len(values)}")
    assert np.array_equal(vec.values, np.array(values))


def test_feature_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("only,three,fields\n")
    with pytest.raises(Exception) as exc:
        read_feature_file(path)
    assert "1" in str(exc.value)
    path.write_text("a,b,layout,notafloat\n")
    with pytest.raises(Exception):
        read_feature_file(path)
    for field in ("has,comma", "has\nnewline"):
        with pytest.raises(ConfigError):
            csv_text(None, [(field, "s", "t", 0.0)])


def test_synth_pattern_values_and_ranges():
    img = synth_radial(8.0, 131)
    assert img[65, 65] == 0.5  # center
    assert np.all(img >= 0.0) and np.all(img <= 1.0)
    ang = synth_angular(4, 131)
    assert ang[65, 70] == pytest.approx(0.5, abs=1e-12)  # theta = 0
    mix = synth_mix(8.0, 4, 131)
    assert np.allclose(mix, 0.5 * (img + ang))


def test_synth_pattern_validation():
    with pytest.raises(DomainError):
        synth_radial(4.0, 1)
    with pytest.raises(DomainError):
        synth_angular(2.5, 33)
