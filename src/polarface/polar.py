"""Cartesian-to-polar resampling of gray images.

A gray image is a 2-D float64 ndarray indexed [row, col]; pixel (x, y)
means column x, row y.  The polar grid samples the image on concentric
rings one pixel apart, along rays a fixed angular step apart, with angles
measured counterclockwise from +x while y grows downward (the atan2
convention on pixel coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError


def _as_image(image) -> np.ndarray:
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise DomainError(f"image must be 2-D with both sides >= 2, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DomainError("image contains non-finite intensities")
    return img


def _bilinear_terms(fx, fy, w: int):
    """Flat offsets, in a w-wide image, and weights of the top-left,
    top-right, bottom-left and bottom-right pixels of a bilinear sample at
    offset (fx, fy) from the top-left one, in the order of every sum."""
    gx, gy = 1.0 - fx, 1.0 - fy
    return (0, 1, w, w + 1), (gx * gy, fx * gy, gx * fy, fx * fy)


def _bilinear_corners(xs, ys, h: int, w: int):
    """Which points (xs, ys) lie inside [0, w-1] x [0, h-1], and for those
    only the flat index of the top-left pixel of their bilinear sample
    (the last row and column sample from the one before) and their
    offsets (fx, fy) from it."""
    inside = (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)
    xs, ys = xs[inside], ys[inside]
    col = np.minimum(xs.astype(np.intp), w - 2)
    row = np.minimum(ys.astype(np.intp), h - 2)
    return inside, row * w + col, xs - col, ys - row


def _bilinear_sum(img, inside, top, fx, fy) -> np.ndarray:
    """Bilinear samples of `img` at a _bilinear_corners result's points, 0.0 outside."""
    flat = img.ravel()
    (o0, o1, o2, o3), (w00, w10, w01, w11) = _bilinear_terms(fx, fy, img.shape[1])
    out = np.zeros(inside.shape)
    # four gathers: one (N, 4) gather is slower
    out[inside] = w00 * flat[o0:][top] + w10 * flat[o1:][top] + w01 * flat[o2:][top] + w11 * flat[o3:][top]
    return out


def _plan_taps(w: int, where, inside, top, fx, fy):
    """Flat pixel indices and weights, both (samples, 4), of the samples at
    `where` in the `inside` of a _bilinear_corners result, all inside."""
    k = np.cumsum(inside.ravel()).reshape(inside.shape)[where] - 1  # position among the inside points
    offsets, weights = _bilinear_terms(fx[k], fy[k], w)
    return top[k][:, None] + np.array(offsets), np.stack(weights, axis=1)


def bilinear_sample(image, x, y):
    """Sample `image` at (x, y) = (column, row) with bilinear interpolation.

    Points outside [0, w-1] x [0, h-1] return exactly 0.0.  Scalar
    coordinates give a float; array coordinates give an ndarray.
    """
    img = _as_image(image)
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if xs.shape != ys.shape:
        raise DomainError("x and y must have matching shapes")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("sample coordinates must be finite")
    val = _bilinear_sum(img, *_bilinear_corners(xs, ys, *img.shape))
    return float(val[0]) if scalar else val


@dataclass(frozen=True)
class PolarGrid:
    """Polar resampling of an image.

    samples[k, j] is the intensity on ray k (angle k * angular_resolution
    degrees) at ring j (radius j pixels).  `max_radius` is the distance
    from the center to the farthest image corner; rings cover 0..n_rings-1
    which spans it at 1 px steps.
    """

    samples: np.ndarray
    center: tuple[float, float]
    max_radius: float
    angular_resolution: float

    @property
    def n_rays(self) -> int:
        return self.samples.shape[0]

    @property
    def n_rings(self) -> int:
        return self.samples.shape[1]

    def ring_radii(self) -> np.ndarray:
        """Ring radii in pixels (0, 1, 2, ...)."""
        return np.arange(self.n_rings, dtype=float)


def to_polar(image, angular_resolution: float = 0.5) -> PolarGrid:
    """Resample `image` onto a polar grid around the image center.

    The center is ((w-1)/2, (h-1)/2); rays count round(360/res); rings
    step 1 px out to floor(max_radius).  Samples falling outside the
    image are exactly 0.  360/angular_resolution must be integral.
    """
    img = _as_image(image)
    n_rays = _ray_count(angular_resolution)
    h, w = img.shape
    *plan, max_radius = _polar_plan(h, w, n_rays, float(angular_resolution))
    return PolarGrid(
        samples=_bilinear_sum(img, *plan),
        center=((w - 1) / 2.0, (h - 1) / 2.0),
        max_radius=max_radius,
        angular_resolution=float(angular_resolution),
    )


def _ray_count(angular_resolution: float) -> int:
    """Number of rays, 360 / angular_resolution, which must be integral."""
    if not (angular_resolution > 0.0) or not math.isfinite(angular_resolution):
        raise ConfigError(f"angular_resolution must be positive, got {angular_resolution}")
    ratio = 360.0 / angular_resolution
    n_rays = round(ratio)
    if n_rays < 1 or abs(ratio - n_rays) > 1e-9:
        raise ConfigError(
            f"angular_resolution {angular_resolution} does not divide 360 evenly"
        )
    return n_rays


@lru_cache(maxsize=8)
def _polar_plan(h: int, w: int, n_rays: int, angular_resolution: float):
    # Sampling geometry of one image shape: _bilinear_corners of its grid.
    x0 = (w - 1) / 2.0
    y0 = (h - 1) / 2.0
    max_radius = math.hypot(x0, y0)  # center to farthest corner
    n_rings = int(math.floor(max_radius)) + 1
    theta = np.deg2rad(angular_resolution) * np.arange(n_rays)
    radii = np.arange(n_rings, dtype=float)
    xs = x0 + radii[None, :] * np.cos(theta)[:, None]
    ys = y0 + radii[None, :] * np.sin(theta)[:, None]
    plan = _bilinear_corners(xs, ys, h, w)
    for arr in plan:
        arr.setflags(write=False)
    return (*plan, max_radius)
