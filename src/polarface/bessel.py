"""Bessel functions of the first kind and their positive zeros.

Everything downstream (the radial basis of the polar-frequency transform)
rests on two primitives: evaluating J_n(x) for integer n >= 0 and locating
the ascending zeros alpha_{n,i} of J_n.  Both are implemented here from
scratch in float64, and both work on whole arrays of orders at once.

Evaluation: Bessel's integral (DLMF 10.9.2)

    J_n(x) = (1/pi) * integral_0^pi cos(n t - x sin t) dt

has a smooth 2 pi-periodic integrand, so the trapezoidal rule converges
exponentially for every (n, x) (Trefethen and Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56(3), 2014).  With m steps on
[0, pi] the rule returns J_n(x) plus aliased terms, the largest being
J_{2m-n}(x).  Each element takes its own

    m = 8 * ceil((n + x + 12 * cbrt(x) + 16) / 16),

so 2m - n >= x + 12 x^(1/3) + 16: that order lies far enough past its
turning point x that J_{2m-n}(x) is far below rounding.  The phase n t_j
is reduced exactly in integers, modulo 2 pi.  m depends only on the
element's own (n, x), so a value never depends on its batch, bit for bit,
and J_n(0) is exact.  Against mpmath the absolute error stays below 3.1e-15
for n in 0..60 and x in [0, 200].

Zeros start from asymptotic guesses, McMahon's expansion for n = 0 and
Olver's uniform expansion for n >= 1 (DLMF 10.21.19, 10.21.41-43), which
land within 0.003 of every zero alpha_{n,i} for n <= 300, i <= 150.  Zeros
are more than 3 apart, so the interval of half-width 1 around a guess
holds exactly that zero; its sign change is checked, and Newton steps
that leave it fall back to bisection.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

_BLOCK_VALUES = 8192      # integrand values per pass (64 KB), below malloc's mmap threshold
_ROOT_RESIDUAL = 1e-10    # accepted |J_n(alpha)| at a reported zero
_BRACKET = 1.0            # half-width around a guess; zeros are > 3 apart
_NEWTON_DONE = 1e-9       # a Newton step this small (relative) leaves ~x*1e-18
_NEWTON_STEPS = 60       # cap; bisection alone narrows a width-2 bracket to rounding in ~55


def _orders(n) -> np.ndarray:
    orders = np.asarray(n)
    if orders.dtype == bool or not np.issubdtype(orders.dtype, np.integer):
        raise DomainError(f"order must be a non-negative integer, got {n!r}")
    if np.any(orders < 0):
        raise DomainError(f"order must be >= 0, got {n!r}")
    return orders.astype(np.int64)


def _quadrature(n: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    # m-step trapezoidal rule for Bessel's integral, one row per (n, x);
    # the end nodes t = 0 and t = pi, 1 and (-1)^n at half weight, add 1
    # for even n and 0 for odd n.
    h = math.pi / m
    j = np.arange(1, m)
    phase = h * (np.outer(n, j) % (2 * m)) - np.outer(x, np.sin(h * j))
    return (np.cos(phase).sum(axis=1) + (n % 2 == 0)) / m


def bessel_j(n, x):
    """Evaluate J_n(x) for integer orders n >= 0.

    Args:
        n: order or array of orders, non-negative integers, broadcast
            against x.
        x: point or array of points, each finite and >= 0.

    Returns:
        float when both inputs are scalars, else an ndarray of the
        broadcast shape.  Each value depends only on its own (n, x).

    Raises:
        DomainError: negative or non-integer order, negative or
            non-finite argument.
    """
    orders = _orders(n)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("argument of bessel_j must be finite")
    if np.any(xs < 0):
        raise DomainError("argument of bessel_j must be >= 0")
    orders, xs = np.broadcast_arrays(orders, xs)
    shape = xs.shape
    orders = orders.ravel()
    xs = xs.ravel()
    out = np.where(orders == 0, 1.0, 0.0)  # J_n(0), kept where x == 0
    live = np.flatnonzero(xs > 0)
    steps = 8 * np.ceil((orders[live] + xs[live] + 12.0 * np.cbrt(xs[live]) + 16.0) / 16.0).astype(np.int64)
    for m in sorted(set(steps.tolist())):  # np.unique would import numpy.ma
        group = live[steps == m]
        rows = max(1, _BLOCK_VALUES // m)
        for lo in range(0, group.size, rows):
            part = group[lo:lo + rows]
            out[part] = _quadrature(orders[part], xs[part], m)
    return float(out[0]) if not shape else out.reshape(shape)


def _airy_zeros(m: np.ndarray) -> np.ndarray:
    # a_m, the m-th negative zero of Ai (DLMF 9.9.6 and 9.9.18).
    t = 3.0 * math.pi * (4.0 * m - 1.0) / 8.0
    tt = t**-2
    return -(t ** (2.0 / 3.0)) * (1.0 + tt * (5.0 / 48.0 + tt * (-5.0 / 36.0 + tt * 77125.0 / 82944.0)))


def _zero_guesses(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    # McMahon's expansion (DLMF 10.21.19) for n = 0.
    beta = (m + 0.5 * n - 0.25) * math.pi
    e = 1.0 / (8.0 * beta)
    mcmahon = beta + e * (1.0 + e * e * (-124.0 / 3.0 + e * e * 120928.0 / 15.0))
    # Olver's uniform expansion (DLMF 10.21.41-43) for n >= 1:
    # alpha ~ nu z(zeta) + f1(zeta)/nu with zeta = nu^(-2/3) a_m, where
    # z = sec(s) solves tan(s) - s = (2/3)(-zeta)^(3/2).
    nu = np.maximum(n, 1).astype(float)
    zeta = _airy_zeros(m) * nu ** (-2.0 / 3.0)
    w = (2.0 / 3.0) * (-zeta) ** 1.5
    s = np.where(w < 1.0, np.cbrt(3.0 * w), 0.5 * math.pi - 1.0 / (w + 0.5 * math.pi))
    for _ in range(6):
        tan_s = np.tan(s)
        s = s - (tan_s - s - w) / (tan_s * tan_s)
    z = 1.0 / np.cos(s)
    root = np.tan(s)  # sqrt(z^2 - 1)
    b0 = -5.0 / (48.0 * zeta * zeta) + (5.0 / (24.0 * root**3) + 1.0 / (8.0 * root)) / np.sqrt(-zeta)
    f1 = 0.5 * z * np.sqrt(4.0 * zeta / (1.0 - z * z)) * b0
    return np.where(n == 0, mcmahon, nu * z + f1 / nu)


def bessel_roots(n, count: int) -> np.ndarray:
    """Return the first `count` ascending positive zeros of J_n.

    `n` is an order or an array of orders; the result has shape
    `np.shape(n) + (count,)`.  All zeros are refined together by Newton
    steps inside their checked brackets, each zero stopping on its own
    step size, so a zero does not depend on the other orders of its
    batch.  Every returned zero alpha satisfies |J_n(alpha)| < 1e-10.
    """
    orders = _orders(n)
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    nn = np.repeat(orders.reshape(-1, 1), count, axis=1).ravel()
    both = np.concatenate([nn, nn + 1])
    x = _zero_guesses(nn, np.tile(np.arange(1.0, count + 1.0), orders.size))
    lo = x - _BRACKET
    hi = x + _BRACKET
    f_lo, f_hi = np.split(bessel_j(np.concatenate([nn, nn]), np.concatenate([lo, hi])), 2)
    if np.any(f_lo * f_hi >= 0.0):
        raise RuntimeError(f"asymptotic zero guesses for orders {n!r} do not bracket a zero")
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        f, f_next = np.split(bessel_j(both, np.concatenate([x, x])), 2)
        slope = nn / x * f - f_next  # J_n' = (n/x) J_n - J_{n+1}
        keep_lo = f * f_lo > 0.0
        lo = np.where(keep_lo, x, lo)
        f_lo = np.where(keep_lo, f, f_lo)
        hi = np.where(keep_lo, hi, x)
        step = f / slope
        new = x - step
        newton = (new >= lo) & (new <= hi)
        new = np.where(newton, new, 0.5 * (lo + hi))
        done = newton & (np.abs(step) <= _NEWTON_DONE * x)
        x = np.where(active, new, x)
        active &= ~done
        if not active.any():
            break
    else:
        raise RuntimeError(f"zero refinement for orders {n!r} did not converge")
    residual = np.abs(bessel_j(nn, x))
    if np.any(residual >= _ROOT_RESIDUAL):
        worst = float(residual.max())
        raise RuntimeError(f"zero refinement for orders {n!r} left residual {worst:.3e}")
    return x.reshape(orders.shape + (count,))


@lru_cache(maxsize=8)
def build_root_table(max_order: int, max_root: int) -> np.ndarray:
    """Build (and cache) the zero table for orders 0..max_order.

    `table[n, i-1]` is the i-th ascending zero of J_n, i = 1..max_root.
    The array is read-only, so the cached copy is safe to share.
    Verifies strict row monotonicity and the interlacing property
    alpha[n][i] < alpha[n+1][i] < alpha[n][i+1] before returning.
    """
    if max_order < 0 or max_root < 1:
        raise DomainError(
            f"need max_order >= 0 and max_root >= 1, got {max_order}, {max_root}"
        )
    table = bessel_roots(np.arange(max_order + 1), max_root)
    if not np.all(np.diff(table, axis=1) > 0):
        raise RuntimeError("root table rows are not strictly increasing")
    interlaced = np.all(table[:-1] < table[1:], axis=1) & np.all(table[1:, :-1] < table[:-1, 1:], axis=1)
    if not interlaced.all():
        n = int(np.argmin(interlaced))
        raise RuntimeError(f"interlacing violated between orders {n}, {n + 1}")
    table.setflags(write=False)
    return table
