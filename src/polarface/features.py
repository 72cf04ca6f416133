"""Polar-frequency feature extraction.

Two feature families over gray images:

* Fourier-Bessel coefficients A_{n,i}, B_{n,i} of the polar resampling,
  where n is the angular order (cosine/sine) and i indexes the zeros of
  J_n used as radial frequencies.  The disk expansion vanishes at the
  grid's outer radius R, so the radial basis is J_n(alpha_{n,i} * r / R).
* Centered 2-D DFT magnitudes on the integer frequency lattice inside a
  configurable radius (cycles per image).

Both produce flat FeatureVector values tagged with a layout id so that
downstream stages can refuse to mix incompatible spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import bessel_j, build_root_table
from .errors import ConfigError, DomainError, ParseError
from .fileio import atomic_write_text
from .polar import PolarGrid, to_polar


@dataclass(frozen=True)
class FBTConfig:
    """Fourier-Bessel extraction settings.

    Defaults give (30+1) orders x 3 roots x {A, B} = 186 coefficients at
    0.5 degree angular resolution.
    """

    max_order: int = 30
    max_root: int = 3
    angular_resolution: float = 0.5

    def __post_init__(self):
        if self.max_order < 0:
            raise ConfigError(f"max_order must be >= 0, got {self.max_order}")
        if self.max_root < 1:
            raise ConfigError(f"max_root must be >= 1, got {self.max_root}")
        if not (self.angular_resolution > 0):
            raise ConfigError(
                f"angular_resolution must be positive, got {self.angular_resolution}"
            )

    @property
    def n_features(self) -> int:
        return 2 * (self.max_order + 1) * self.max_root


@dataclass(frozen=True)
class DFTConfig:
    """DFT magnitude selection: lattice points with frequency radius
    sqrt(u^2 + v^2) <= max_cycles, DC included."""

    max_cycles: float = 19.5

    def __post_init__(self):
        if not (self.max_cycles >= 0):
            raise ConfigError(f"max_cycles must be >= 0, got {self.max_cycles}")

    @property
    def n_features(self) -> int:
        return len(dft_feature_frequencies(self.max_cycles))


@dataclass(frozen=True)
class FBSpectrum:
    """Fourier-Bessel coefficient matrices.

    A[n, i-1] and B[n, i-1] hold the cosine and sine coefficients for
    order n, root index i; B[0, :] is identically zero.  R is the outer
    radius of the polar grid the spectrum was measured on.
    """

    A: np.ndarray
    B: np.ndarray
    R: float

    @property
    def max_order(self) -> int:
        return self.A.shape[0] - 1

    @property
    def max_root(self) -> int:
        return self.A.shape[1]

    def modulus(self) -> np.ndarray:
        """sqrt(A^2 + B^2), shape (max_order+1, max_root)."""
        return np.hypot(self.A, self.B)


@dataclass(frozen=True)
class FeatureVector:
    """Flat feature values plus a tag identifying the extraction recipe."""

    values: np.ndarray
    layout_id: str


# The distance kernel sums squares over chunks of this many coordinates;
# table rows are zero-padded to a multiple of it.
CHUNK_WIDTH = 64


@dataclass(frozen=True)
class FeatureTable:
    """One layout's feature vectors for a list of images, one row each.

    `values` is (n_images, dim rounded up to a multiple of CHUNK_WIDTH),
    zero past column dim: the operand layout of the distance kernel.
    table[r] is row r as a FeatureVector, a view of its first dim values.
    """

    ids: tuple[str, ...]
    layout_id: str
    dim: int  # unpadded vector length
    values: np.ndarray

    @classmethod
    def allocate(cls, ids, layout_id: str, dim: int) -> FeatureTable:
        """An all-zero table, filled row by row with put."""
        ids = tuple(str(i) for i in ids)
        return cls(ids, layout_id, dim, np.zeros((len(ids), dim + (-dim) % CHUNK_WIDTH)))

    def put(self, row: int, vector: FeatureVector) -> None:
        """Write one image's vector into its row; refuses another layout or length."""
        if (vector.layout_id, vector.values.size) != (self.layout_id, self.dim):
            raise ConfigError(
                f"feature layout {vector.layout_id!r} of length {vector.values.size} does not fit "
                f"a table of layout {self.layout_id!r} and length {self.dim}"
            )
        self.values[row, : self.dim] = vector.values

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> FeatureVector:
        return FeatureVector(self.values[row, : self.dim], self.layout_id)


@lru_cache(maxsize=32)
def _trig_tables(max_order: int, n_rays: int, angular_resolution: float):
    theta = np.deg2rad(angular_resolution) * np.arange(n_rays)
    orders = np.arange(max_order + 1)
    grid = np.outer(orders, theta)
    return np.cos(grid), np.sin(grid)


@lru_cache(maxsize=32)
def _radial_tables(max_order: int, max_root: int, n_rings: int, R: float):
    # J basis and orthogonality prefactors; shared across images with the
    # same grid geometry, which is what makes batch extraction cheap.
    alpha = build_root_table(max_order, max_root).roots
    orders = np.arange(max_order + 1)[:, None]
    radii = np.arange(n_rings, dtype=float)
    basis = bessel_j(orders[:, :, None], alpha[:, :, None] * radii / R)
    edge = bessel_j(orders + 1, alpha)
    scale = np.where(orders == 0, 1.0, 2.0)
    pref = scale / (math.pi * R * R * edge * edge)
    basis.setflags(write=False)
    pref.setflags(write=False)
    return basis, pref


def fbt(grid: PolarGrid, config: FBTConfig) -> FBSpectrum:
    """Fourier-Bessel transform of a polar grid.

    Coefficients are Riemann sums over the (ring, ray) grid of
    f * r * J_n(alpha_{n,i} r / R) * {cos, sin}(n theta) * dr * dtheta,
    scaled by the disk orthogonality prefactors (1 or 2)/(pi R^2 J_{n+1}^2).
    """
    if abs(grid.angular_resolution - config.angular_resolution) > 1e-12:
        raise ConfigError(
            f"grid angular resolution {grid.angular_resolution} differs from "
            f"config {config.angular_resolution}"
        )
    basis, pref = _radial_tables(
        config.max_order, config.max_root, grid.n_rings, grid.max_radius
    )
    cosn, sinn = _trig_tables(config.max_order, grid.n_rays, grid.angular_resolution)
    dtheta = np.deg2rad(grid.angular_resolution)
    dr = 1.0
    radii = grid.ring_radii()
    proj_cos = cosn @ grid.samples  # (orders, rings)
    proj_sin = sinn @ grid.samples
    weighted = basis * radii  # r * J_n(alpha r / R)
    A = pref * np.einsum("nir,nr->ni", weighted, proj_cos) * dr * dtheta
    B = pref * np.einsum("nir,nr->ni", weighted, proj_sin) * dr * dtheta
    B[0, :] = 0.0  # sin(0 theta) basis carries nothing
    return FBSpectrum(A=A, B=B, R=grid.max_radius)


def inverse_fbt(spectrum: FBSpectrum, n_rays: int, n_rings: int) -> PolarGrid:
    """Evaluate the truncated Fourier-Bessel series on a polar grid.

    The returned grid has rays at 360/n_rays degree steps and rings at
    1 px steps; its center is a placeholder since a reconstruction has no
    Cartesian anchor.
    """
    if n_rays < 1 or n_rings < 1:
        raise DomainError(f"need n_rays >= 1 and n_rings >= 1, got {n_rays}, {n_rings}")
    res = 360.0 / n_rays
    basis, _ = _radial_tables(spectrum.max_order, spectrum.max_root, n_rings, spectrum.R)
    cosn, sinn = _trig_tables(spectrum.max_order, n_rays, res)
    rad_a = np.einsum("ni,nir->nr", spectrum.A, basis)
    rad_b = np.einsum("ni,nir->nr", spectrum.B, basis)
    samples = cosn.T @ rad_a + sinn.T @ rad_b
    return PolarGrid(
        samples=samples,
        center=(0.0, 0.0),
        max_radius=spectrum.R,
        angular_resolution=res,
    )


def fbt_features(spectrum: FBSpectrum) -> FeatureVector:
    """Flatten A then B, order-major and root-minor, zero B_0 row included."""
    values = np.concatenate([spectrum.A.ravel(), spectrum.B.ravel()])
    return FeatureVector(values=values, layout_id=f"fbt-{values.size}")


def spectrum_from_features(values: np.ndarray, max_order: int, max_root: int, R: float) -> FBSpectrum:
    """Invert fbt_features given the spectrum dimensions."""
    values = np.asarray(values, dtype=float)
    half = (max_order + 1) * max_root
    if values.size != 2 * half:
        raise ConfigError(
            f"{values.size} values do not fit a ({max_order}, {max_root}) spectrum"
        )
    A = values[:half].reshape(max_order + 1, max_root).copy()
    B = values[half:].reshape(max_order + 1, max_root).copy()
    return FBSpectrum(A=A, B=B, R=R)


def extract_fbt(image, config: FBTConfig = FBTConfig()) -> FeatureVector:
    """Polar-resample an image and return its flattened FB spectrum."""
    grid = to_polar(image, config.angular_resolution)
    return fbt_features(fbt(grid, config))


def dft_magnitude(image) -> np.ndarray:
    """Unitary 2-D DFT magnitude with DC shifted to the array center.

    The 1/sqrt(M N) scaling makes the transform energy-preserving
    (Parseval holds with no extra factors).
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise DomainError(f"image must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DomainError("image contains non-finite intensities")
    h, w = img.shape
    return np.abs(np.fft.fftshift(np.fft.fft2(img))) / math.sqrt(h * w)


@lru_cache(maxsize=32)
def dft_feature_frequencies(max_cycles: float) -> tuple[tuple[int, int], ...]:
    """Integer (u, v) pairs with sqrt(u^2+v^2) <= max_cycles.

    Sorted by (radius, angle in [0, 2pi), u); DC first.  Conjugate pairs
    are both kept.
    """
    rmax = int(math.floor(max_cycles))
    pts = []
    for v in range(-rmax, rmax + 1):
        for u in range(-rmax, rmax + 1):
            if u * u + v * v <= max_cycles * max_cycles:
                radius = math.hypot(u, v)
                angle = math.atan2(v, u) % (2.0 * math.pi)
                pts.append((radius, angle, u, v))
    pts.sort(key=lambda p: (p[0], p[1], p[2]))
    return tuple((u, v) for _, _, u, v in pts)


@lru_cache(maxsize=32)
def _dft_lattice(max_cycles: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only u and v index arrays of dft_feature_frequencies."""
    lattice = np.array(dft_feature_frequencies(max_cycles))
    lattice.setflags(write=False)
    return lattice[:, 0], lattice[:, 1]


def dft_features(magnitudes: np.ndarray, config: DFTConfig = DFTConfig()) -> FeatureVector:
    """Select centered-DFT magnitudes on the lattice disk as features."""
    mag = np.asarray(magnitudes, dtype=float)
    if mag.ndim != 2:
        raise DomainError(f"magnitude plane must be 2-D, got shape {mag.shape}")
    h, w = mag.shape
    cy, cx = h // 2, w // 2
    us, vs = _dft_lattice(config.max_cycles)
    if (cx + us.min() < 0 or cx + us.max() >= w
            or cy + vs.min() < 0 or cy + vs.max() >= h):
        raise ConfigError(
            f"max_cycles {config.max_cycles} exceeds the {w}x{h} frequency plane"
        )
    values = mag[cy + vs, cx + us]
    return FeatureVector(values=values, layout_id=f"dft-{values.size}")


def extract_dft(image, config: DFTConfig = DFTConfig()) -> FeatureVector:
    """DFT-magnitude features of an image."""
    return dft_features(dft_magnitude(image), config)


def synth_radial(cycles: float, size: int) -> np.ndarray:
    """Concentric ring pattern, `cycles` full periods across the image
    diagonal, intensities mapped to [0, 1]; 0.5 at the exact center."""
    if size < 2:
        raise DomainError(f"size must be >= 2, got {size}")
    c = (size - 1) / 2.0
    rimg = math.hypot(c, c)
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    r = np.hypot(xs - c, ys - c)
    return 0.5 + 0.5 * np.sin(math.pi * cycles * r / rimg)


def synth_angular(cycles: int, size: int) -> np.ndarray:
    """Angular sine pattern sin(cycles * theta) mapped to [0, 1]."""
    if size < 2:
        raise DomainError(f"size must be >= 2, got {size}")
    if not isinstance(cycles, (int, np.integer)):
        raise DomainError(f"angular cycles must be an integer, got {cycles!r}")
    c = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    theta = np.arctan2(ys - c, xs - c)
    return 0.5 + 0.5 * np.sin(cycles * theta)


def synth_mix(radial_cycles: float, angular_cycles: int, size: int) -> np.ndarray:
    """Pixel-wise average of the radial and angular patterns."""
    return 0.5 * (synth_radial(radial_cycles, size) + synth_angular(angular_cycles, size))


def fbt_error_map(errors: np.ndarray, max_order: int, max_root: int) -> np.ndarray:
    """Reshape per-feature values into spectrum layout (2, orders, roots);
    plane 0 is the A block, plane 1 the B block."""
    errors = np.asarray(errors, dtype=float)
    half = (max_order + 1) * max_root
    if errors.size != 2 * half:
        raise ConfigError(
            f"{errors.size} per-feature values do not fit a "
            f"({max_order}, {max_root}) spectrum"
        )
    return errors.reshape(2, max_order + 1, max_root)


def dft_error_map(errors: np.ndarray, config: DFTConfig = DFTConfig()) -> np.ndarray:
    """Scatter per-feature values back onto the centered frequency plane.

    Returns a (2r+1) x (2r+1) plane, r = floor(max_cycles), NaN where no
    feature was selected.
    """
    us, vs = _dft_lattice(config.max_cycles)
    errors = np.asarray(errors, dtype=float)
    if errors.size != us.size:
        raise ConfigError(
            f"{errors.size} per-feature values for {us.size} selected frequencies"
        )
    rmax = int(math.floor(config.max_cycles))
    side = 2 * rmax + 1
    plane = np.full((side, side), np.nan)
    plane[vs + rmax, us + rmax] = errors.ravel()
    return plane


def write_feature_file(path, rows) -> None:
    """Write features as comma-separated text.

    One image per row: image-id, subject-id, layout_id, then the values
    with full float64 round-trip precision.
    """
    lines = []
    for image_id, subject_id, vec in rows:
        for field in (str(image_id), str(subject_id), vec.layout_id):
            if "," in field or "\n" in field:
                raise ConfigError(f"feature file field may not contain commas: {field!r}")
        vals = ",".join(f"{v:.17g}" for v in vec.values)
        lines.append(f"{image_id},{subject_id},{vec.layout_id},{vals}")
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_feature_file(path) -> list[tuple[str, str, FeatureVector]]:
    """Read a feature file written by write_feature_file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: expected at least 4 fields")
            image_id, subject_id, layout_id = parts[0], parts[1], parts[2]
            try:
                values = np.array([float(p) for p in parts[3:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad float: {exc}") from None
            rows.append((image_id, subject_id, FeatureVector(values, layout_id)))
    return rows
