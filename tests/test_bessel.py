"""Bessel evaluation and root finding against independent references."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarface import bessel_j, bessel_roots, build_root_table, to_polar
from polarface.errors import DomainError

from oracles import bisect_root_on_series, frozen_roots

ROOTS = frozen_roots()
ORACLE_ORDERS = (0, 1, 2, 5, 10, 30)


def test_first_roots_well_known_values():
    assert bessel_roots(0, 1)[0] == pytest.approx(2.404825557695773, abs=1e-12)
    assert bessel_roots(1, 1)[0] == pytest.approx(3.831705970207512, abs=1e-12)
    assert bessel_roots(0, 8)[-1] == pytest.approx(24.352471530749302, abs=1e-12)


def test_roots_match_frozen_oracle():
    for n in ORACLE_ORDERS:
        mine = bessel_roots(n, 30)
        ref = np.array([ROOTS[(n, i)] for i in range(1, 31)])
        assert np.max(np.abs(mine - ref)) < 1e-9


def test_frozen_oracle_entries_rederived_live():
    # guards the committed table: re-run the bisection for a few entries
    for n, i in ((0, 1), (1, 2), (5, 7), (30, 30)):
        ref = ROOTS[(n, i)]
        live = bisect_root_on_series(n, ref - 0.4, ref + 0.4)
        assert abs(live - ref) < 1e-12


def test_bessel_j_against_mpmath_grid():
    xs = np.linspace(0.0, 60.0, 121)
    with mpmath.workdps(30):
        for n in (0, 1, 2, 5, 13, 30):
            mine = bessel_j(n, xs)
            ref = np.array([float(mpmath.besselj(n, float(x))) for x in xs])
            assert np.max(np.abs(mine - ref)) < 1e-14


def test_bessel_j_array_orders_against_mpmath():
    # every order meets arguments across [0, 200], around x = 7 and around
    # the turning point x ~ n
    rng = np.random.default_rng(2718)
    orders, xs = [], []
    for n in range(61):
        pts = [0.0, 7.0 - 1e-9, 7.0, 7.0 + 1e-9, 200.0, max(n - 0.5, 0.0), float(n), n + 0.5]
        pts += list(rng.uniform(0.0, 200.0, size=8))
        orders += [n] * len(pts)
        xs += pts
    orders, xs = np.array(orders), np.array(xs)
    mine = bessel_j(orders, xs)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(int(n), float(x))) for n, x in zip(orders, xs)])
    assert np.max(np.abs(mine - ref)) < 1e-14


def test_bessel_j_scalar_and_array_forms_agree():
    # every element takes its own node count, so a value does not depend
    # on the batch it is computed in
    xs = np.array([0.0, 0.5, 6.9, 7.0, 7.0 + 1e-9, 7.1, 42.0, 199.5])
    arr = bessel_j(3, xs)
    for x, v in zip(xs, arr):
        scalar = bessel_j(3, float(x))
        assert isinstance(scalar, float)
        assert scalar == v
    orders = np.arange(12)
    grid = bessel_j(orders[:, None], xs[None, :])
    assert grid.shape == (12, xs.size)
    for n in orders:
        assert np.array_equal(grid[n], bessel_j(int(n), xs))
    assert np.array_equal(bessel_j(orders, 42.0), grid[:, 6])


def test_bessel_j_batches_at_radial_table_scale_equal_scalar_calls():
    # the default FBT's (31, 3, 91) radial basis call on the 118 x 140
    # normalized grid, and a batch of identical pairs long enough to span
    # several evaluation blocks
    grid = to_polar(np.zeros((140, 118)), 0.5)
    alpha = build_root_table(30, 3)
    orders = np.arange(31)[:, None, None]
    xs = alpha[:, :, None] * np.arange(float(grid.n_rings)) / grid.max_radius
    basis = bessel_j(orders, xs)
    assert basis.shape == (31, 3, 91)
    for (n, i, r), v in np.ndenumerate(basis):
        assert bessel_j(n, float(xs[n, i, r])) == v
    batch = bessel_j(np.full(9000, 30), np.full(9000, 150.0))
    assert np.all(batch == bessel_j(30, 150.0))


def test_bessel_j_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 9):
        assert bessel_j(n, 0.0) == 0.0


@given(st.integers(1, 20), st.floats(0.1, 50.0))
def test_three_term_recurrence(n, x):
    lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
    rhs = 2.0 * n / x * bessel_j(n, x)
    assert abs(lhs - rhs) < 1e-10


@given(st.integers(0, 40), st.floats(0.0, 120.0))
@settings(max_examples=60)
def test_magnitude_bound(n, x):
    assert abs(bessel_j(n, x)) <= 1.0 + 1e-15


def test_root_residuals_and_spacing():
    for n in (0, 3, 17):
        roots = bessel_roots(n, 12)
        assert np.max(np.abs(bessel_j(n, roots))) < 1e-10
        assert np.all(np.diff(roots) > 3.0)  # spacing approaches pi from above
        assert roots[0] > 0.0


def test_roots_for_an_array_of_orders_equal_per_order_calls():
    orders = np.array([0, 1, 2, 5, 10, 30])
    batch = bessel_roots(orders, 30)
    assert batch.shape == (6, 30)
    for n, row in zip(orders, batch):
        assert np.array_equal(row, bessel_roots(int(n), 30))
    assert np.array_equal(build_root_table(30, 3), bessel_roots(np.arange(31), 3))


def test_root_table_interlacing():
    table = build_root_table(6, 8)
    assert table.shape == (7, 8)
    for n in range(6):
        for i in range(8):
            assert table[n, i] < table[n + 1, i]
            if i < 7:
                assert table[n + 1, i] < table[n, i + 1]


def test_root_table_is_cached_and_read_only():
    a = build_root_table(10, 4)
    assert a is build_root_table(10, 4)
    with pytest.raises(ValueError):
        a[0, 0] = 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(1.5, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -0.5)
    with pytest.raises(DomainError):
        bessel_j(0, np.nan)
    with pytest.raises(DomainError):
        bessel_j(np.array([1, -1]), 1.0)
    with pytest.raises(DomainError):
        bessel_j(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(DomainError):
        bessel_roots(0, 0)
    with pytest.raises(DomainError):
        bessel_roots(np.array([0, -2]), 3)
