"""Polar resampling geometry and bilinear interpolation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bilinear_sample_2d
from polarface import PolarGrid, bilinear_sample, to_polar
from polarface.errors import ConfigError, DomainError
from polarface.polar import _bilinear_corners, _plan_taps


def test_grid_geometry_131():
    grid = to_polar(np.zeros((131, 131)), angular_resolution=0.5)
    assert grid.n_rays == 720
    assert grid.n_rings == 92
    assert grid.center == (65.0, 65.0)
    assert grid.max_radius == pytest.approx(65.0 * math.sqrt(2.0), rel=1e-12)
    assert grid.samples.shape == (720, 92)  # rays x rings


def test_grid_geometry_rectangular():
    grid = to_polar(np.zeros((41, 61)), angular_resolution=1.0)
    # center at the half-pixel midpoint, radius out to the farthest corner
    assert grid.center == (30.0, 20.0)
    assert grid.max_radius == pytest.approx(math.hypot(30.0, 20.0), rel=1e-12)
    assert grid.n_rays == 360


def test_angular_resolution_must_divide_circle():
    with pytest.raises(ConfigError):
        to_polar(np.zeros((21, 21)), angular_resolution=0.7)


coeff = st.floats(-5.0, 5.0)


@given(coeff, coeff, coeff, coeff, st.floats(0.0, 8.9), st.floats(0.0, 6.9))
def test_bilinear_exact_on_bilinear_functions(a, b, c, d, x, y):
    ys, xs = np.mgrid[0:8, 0:10].astype(float)
    img = a + b * xs + c * ys + d * xs * ys
    want = a + b * x + c * y + d * x * y
    got = bilinear_sample(img, np.array([x]), np.array([y]))[0]
    assert got == pytest.approx(want, abs=1e-9 * (1.0 + abs(want)))


# Pixels with signed zeros and negatives, so that a flipped sign of a zero
# weight would show in the sum.
_PIXELS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 255.0)), st.floats(-1e3, 1e3))


@st.composite
def bilinear_cases(draw):
    h, w = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    img = np.array(draw(st.lists(_PIXELS, min_size=h * w, max_size=h * w))).reshape(h, w)

    def coordinate(side):
        # the borders, -0.0, points just outside and anywhere in between
        edges = (0.0, -0.0, side - 1.0, side - 2.0, np.nextafter(side - 1.0, 0.0), np.nextafter(-0.0, -1.0))
        return st.one_of(st.sampled_from(edges), st.floats(-2.0, side + 1.0), st.integers(-1, side).map(float))

    if draw(st.booleans()):
        return img, draw(coordinate(w)), draw(coordinate(h))
    n = draw(st.integers(1, 8))
    xs = draw(st.lists(coordinate(w), min_size=n, max_size=n))
    ys = draw(st.lists(coordinate(h), min_size=n, max_size=n))
    return img, np.array(xs), np.array(ys)


@given(bilinear_cases())
# x = -0.0 on the bottom border sums four signed zeros: the result is -0.0
@example((np.array([[-1.0, 1.0], [-0.0, 1.0]]), np.array([-0.0]), np.array([1.0])))
@settings(max_examples=300)
def test_bilinear_sample_equals_2d_indexing_bit_for_bit(case):
    img, x, y = case
    got, want = bilinear_sample(img, x, y), bilinear_sample_2d(img, x, y)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the FBT operator's four taps of each inside point, summed in order
    inside, *corners = _bilinear_corners(np.atleast_1d(x), np.atleast_1d(y), *img.shape)
    pixel, weight = _plan_taps(img.shape[1], np.flatnonzero(inside), inside, *corners)
    terms = weight * img.ravel()[pixel]
    taps = np.zeros(inside.shape)
    taps[inside] = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
    assert taps.tobytes() == np.atleast_1d(got).tobytes()


def test_bilinear_outside_is_zero():
    img = np.ones((5, 5))
    xs = np.array([-0.51, 5.0, 2.0, 2.0])
    ys = np.array([2.0, 2.0, -1.0, 3.2])
    got = bilinear_sample(img, xs, ys)
    assert got[0] == 0.0 and got[1] == 0.0 and got[2] == 0.0
    assert got[3] == 1.0


def test_constant_image_samples_inside_disc():
    img = np.full((31, 31), 3.25)
    grid = to_polar(img, angular_resolution=2.0)
    inside = grid.samples[:, :15]  # rings fully inside the image
    assert np.max(np.abs(inside - 3.25)) < 1e-12  # weights sum to 1 +- ulp


def test_quarter_turn_permutes_rays():
    rng = np.random.default_rng(5)
    img = rng.uniform(size=(31, 31))
    res = 1.0
    base = to_polar(img, angular_resolution=res)
    turned = to_polar(np.rot90(img), angular_resolution=res)
    shift = int(round(90.0 / res))
    assert np.allclose(turned.samples, np.roll(base.samples, -shift, axis=0), atol=1e-9)


def test_ring_profile_tracks_radial_function():
    # per-ring means of a purely radial image reproduce its 1-D profile
    size, period = 101, 16.0
    c = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    img = 0.5 + 0.5 * np.cos(2.0 * math.pi * np.hypot(xs - c, ys - c) / period)
    grid = to_polar(img, angular_resolution=0.5)
    rings = np.arange(int(c))  # keep to radii fully inside the image
    profile = grid.samples[:, rings].mean(axis=0)
    want = 0.5 + 0.5 * np.cos(2.0 * math.pi * rings / period)
    assert np.max(np.abs(profile - want)) < 0.02  # of the unit range


def test_image_validation():
    with pytest.raises(DomainError):
        to_polar(np.zeros((1, 5)))
    with pytest.raises(DomainError):
        to_polar(np.zeros(7))
    bad = np.zeros((5, 5))
    bad[2, 2] = np.nan
    with pytest.raises(DomainError):
        to_polar(bad)


@pytest.mark.parametrize("shape", [(2, 2), (8, 6), (9, 7), (12, 9), (140, 118)])
def test_to_polar_equals_bilinear_sample_bit_for_bit(shape):
    # to_polar reuses a cached sampling geometry per image shape; each
    # image must still sample exactly as bilinear_sample does
    rng = np.random.default_rng(sum(shape))
    h, w = shape
    x0, y0 = (w - 1) / 2.0, (h - 1) / 2.0
    for res in (0.5, 7.5):
        theta = np.deg2rad(res) * np.arange(round(360.0 / res))
        radii = np.arange(int(math.floor(math.hypot(x0, y0))) + 1, dtype=float)
        xs = x0 + radii[None, :] * np.cos(theta)[:, None]
        ys = y0 + radii[None, :] * np.sin(theta)[:, None]
        for img in (rng.normal(size=shape), rng.uniform(0.0, 255.0, size=(w, h)).T):
            want = bilinear_sample(img, xs, ys)
            got = to_polar(img, res).samples
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
