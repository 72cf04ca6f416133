"""Bessel functions of the first kind and their positive zeros.

Everything downstream (the radial basis of the polar-frequency transform)
rests on two primitives: evaluating J_n(x) for integer n >= 0 and locating
the ascending zeros alpha_{n,i} of J_n.  Both are implemented here from
scratch in float64, and both work on whole arrays of orders at once.

Evaluation strategy: the ascending power series

    J_n(x) = (x/2)^n * sum_k (-x^2/4)^k / (k! * (n+k)!)

is used for small arguments, where every term is well scaled.  Beyond that
the series cancels catastrophically (the largest term grows like I_0(x)),
so large arguments use one downward three-term recurrence (Miller's
algorithm) normalized by the identity J_0(x) + 2*J_2(x) + 2*J_4(x) + ... = 1,
which is stable for every (n, x) pair.  The crossover sits at x = 7: there
the series' cancellation error is bounded by ~I_0(7)*eps ~ 4e-14.

Each element of a recurrence batch starts from its own index

    m = ceil(t + 3*sqrt(t) + 20),   t = max(n, x),

and holds exactly zero until the downward pass reaches m, so a value never
depends on the other elements of its batch, bit for bit.  Debye's forms
put the point where the wanted solution J leads the unwanted Y by 1e17 at
m - t ~ 7.7 t^(1/3); the rule stays at least 12 orders above that for
every t, so one pass suffices and no retry is needed.  Against mpmath the
absolute error stays below 1e-14 for n in 0..60 and x in [0, 200]; the
largest, ~6e-15, sits on the series side of the x = 7 crossover.

Zeros start from asymptotic guesses, McMahon's expansion for n = 0 and
Olver's uniform expansion for n >= 1 (DLMF 10.21.19, 10.21.41-43), which
land within 0.003 of every zero alpha_{n,i} for n <= 300, i <= 150.  Zeros
are more than 3 apart, so the interval of half-width 1 around a guess
holds exactly that zero; its sign change is checked, and Newton steps
that leave it fall back to bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

_SERIES_CUTOFF = 7.0
_SERIES_TERMS = 46        # series truncation; term 46 at x=7 is ~1e-90
_FACTORIAL = np.array([math.factorial(k) for k in range(171)], dtype=float)  # 171! overflows
_SEED = 1e-30             # J_m at each element's start index
_RESCALE = 1e250          # magnitude guard inside the downward recurrence
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


def _series(n: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # Ascending power series; valid only while cancellation is bounded,
    # i.e. for xs <= _SERIES_CUTOFF.
    half = 0.5 * xs
    fact = np.where(n < _FACTORIAL.size, _FACTORIAL[np.minimum(n, _FACTORIAL.size - 1)], np.inf)
    term = half**n / fact
    q = -(half * half)
    total = term.copy()
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * (n + k))
        total += term
    return total


def _recurrence(n: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # Downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, every element
    # seeded at its own start index, normalized by the even-order sum.
    top = np.maximum(n, xs)
    start = np.ceil(top + 3.0 * np.sqrt(top) + 20.0).astype(np.int64)
    above = np.zeros_like(xs)
    cur = np.zeros_like(xs)
    target = np.zeros_like(xs)
    even_acc = np.zeros_like(xs)
    for k in range(int(start.max()), 0, -1):
        cur = np.where(start == k, _SEED, cur)
        below = (2.0 * k) / xs * cur - above
        above = cur
        cur = below
        overflow = np.abs(cur) > _RESCALE
        if overflow.any():
            scale = np.where(overflow, 1.0 / _RESCALE, 1.0)
            cur = cur * scale
            above = above * scale
            target = target * scale
            even_acc = even_acc * scale
        target = np.where(n == k - 1, cur, target)
        if k - 1 > 0 and (k - 1) % 2 == 0:
            even_acc += cur
    return target / (cur + 2.0 * even_acc)


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
    out = np.empty_like(xs)
    small = xs <= _SERIES_CUTOFF
    if small.any():
        out[small] = _series(orders[small], xs[small])
    large = ~small
    if large.any():
        out[large] = _recurrence(orders[large], xs[large])
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


@dataclass(frozen=True)
class BesselRootTable:
    """Zeros alpha_{n,i} for n = 0..max_order, i = 1..max_root.

    `roots[n, i-1]` is the i-th ascending zero of J_n.  Instances are
    immutable and safe to share across threads.
    """

    max_order: int
    max_root: int
    roots: np.ndarray


@lru_cache(maxsize=8)
def build_root_table(max_order: int, max_root: int) -> BesselRootTable:
    """Build (and cache) the zero table for orders 0..max_order.

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
    return BesselRootTable(max_order=max_order, max_root=max_root, roots=table)
