"""Polar-frequency feature extraction.

Two feature families over gray images:

* Fourier-Bessel coefficients A_{n,i}, B_{n,i} of the polar resampling,
  where n is the angular order (cosine/sine) and i indexes the zeros of
  J_n used as radial frequencies.  The disk expansion vanishes at the
  grid's outer radius R, so the radial basis is J_n(alpha_{n,i} * r / R).
* Centered 2-D DFT magnitudes on the integer frequency lattice inside a
  configurable radius (cycles per image).

Both produce flat FeatureVector values tagged with a layout id (such as
"fbt-186"), which a feature CSV writes as its third column.  Polar
resampling and the FBT are linear in the pixels, and the DFT magnitudes
are the modulus of a separable linear map, so a run extracts each
spectrum through one operator per image shape (FBTOperator,
DFTOperator), applied by apply_operators; fbt(to_polar(image)) and
extract_dft(image) are the per-image references they are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import bessel_j, build_root_table
from .errors import ConfigError, DomainError
from .polar import PolarGrid, _plan_taps, _polar_plan, _ray_count


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
        _ray_count(self.angular_resolution)  # refuses one that is not positive or does not divide 360

    @property
    def n_features(self) -> int:
        return 2 * (self.max_order + 1) * self.max_root


@dataclass(frozen=True)
class DFTConfig:
    """DFT magnitude selection: lattice points with frequency radius
    sqrt(u^2 + v^2) <= max_cycles, DC included."""

    max_cycles: float = 19.5

    def __post_init__(self):
        if not 0 <= self.max_cycles < math.inf:
            raise ConfigError(f"max_cycles must be a finite number >= 0, got {self.max_cycles}")


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


@dataclass(frozen=True)
class FeatureTable:
    """One layout's feature vectors for a list of images, one row each.

    `values` is (n_images, dim); table[r] is row r as a FeatureVector,
    a view of `values`.  A layout whose features repeat (the DFT's
    conjugate pairs) stores each distinct feature once: `columns` then
    gives the stored column of every layout feature, and `expand` reads
    values back in layout order.  `columns` is None when every layout
    feature has its own column.
    """

    ids: tuple[str, ...]
    layout_id: str
    values: np.ndarray
    columns: np.ndarray | None = None

    @classmethod
    def allocate(cls, ids, layout_id: str, dim: int, columns=None) -> FeatureTable:
        """An all-zero table, for the caller to fill through `values`."""
        ids = tuple(str(i) for i in ids)
        return cls(ids, layout_id, np.zeros((len(ids), dim)), columns)

    @property
    def n_features(self) -> int:
        """Features per row in the layout, repeats included."""
        return self.values.shape[1] if self.columns is None else self.columns.size

    def expand(self, values: np.ndarray) -> np.ndarray:
        """`values` over the stored columns (last axis), read back in layout order."""
        return values if self.columns is None else values[..., self.columns]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> FeatureVector:
        return FeatureVector(self.values[row], self.layout_id)


@lru_cache(maxsize=32)
def _trig_tables(max_order: int, n_rays: int, angular_resolution: float):
    theta = np.deg2rad(angular_resolution) * np.arange(n_rays)
    orders = np.arange(max_order + 1)
    grid = np.outer(orders, theta)
    return np.cos(grid), np.sin(grid)


@lru_cache(maxsize=32)
def _radial_tables(max_order: int, max_root: int, n_rings: int, R: float, angular_resolution: float):
    """Read-only (orders, roots, rings) table of the FBT's radial weights,
    pref * J_n(alpha_{n,i} r / R) * r * dtheta at ring radius r (dr = 1),
    pref the disk orthogonality prefactor (1 or 2)/(pi R^2 J_{n+1}^2)."""
    alpha = build_root_table(max_order, max_root)
    orders = np.arange(max_order + 1)[:, None]
    radii = np.arange(n_rings, dtype=float)
    basis = bessel_j(orders[:, :, None], alpha[:, :, None] * radii / R)
    edge = bessel_j(orders + 1, alpha)
    scale = np.where(orders == 0, 1.0, 2.0)
    pref = scale / (math.pi * R * R * edge * edge)
    radial = pref[:, :, None] * basis * (radii * np.deg2rad(angular_resolution))
    radial.setflags(write=False)
    return radial


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
    radial = _radial_tables(config.max_order, config.max_root, grid.n_rings, grid.max_radius,
                            grid.angular_resolution)
    cosn, sinn = _trig_tables(config.max_order, grid.n_rays, grid.angular_resolution)
    A = np.einsum("nir,nr->ni", radial, cosn @ grid.samples)  # ray sums are (orders, rings)
    B = np.einsum("nir,nr->ni", radial, sinn @ grid.samples)
    B[0, :] = 0.0  # sin(0 theta) basis carries nothing
    return FBSpectrum(A=A, B=B, R=grid.max_radius)


def fbt_features(spectrum: FBSpectrum) -> FeatureVector:
    """Flatten A then B, order-major and root-minor, zero B_0 row included."""
    values = np.concatenate([spectrum.A.ravel(), spectrum.B.ravel()])
    return FeatureVector(values=values, layout_id=f"fbt-{values.size}")


# Operator builds work on blocks of about this many float64 values (1 MB)
# and chunks of this many pixels, which bounds their temporaries.
_BUILD_BLOCK = 1 << 17
_BUILD_CHUNK = 1024


class _BlockOperator:
    """A linear feature map for one image `shape`, applied in two steps:
    fold(image, out) per image, into a block buffer of `fold_shape` rows,
    then project(block) to one feature row per image."""

    def __call__(self, images) -> np.ndarray:
        """Feature rows, one per image of an (n, h, w) stack, by apply_operators."""
        rows = np.empty((len(images), self.n_features))
        apply_operators([self], images, [rows])
        return rows


# A matrix product's rows can round differently with its row count, so
# operators always project whole blocks of this many images.
_BLOCK = 16
# Its entries can round differently with how BLAS splits its inner axis,
# which may follow the thread count.  So every product with a long inner
# axis (the FBT projection, the distance kernel's Gram blocks, the PFLD
# forward solve's updates) goes through _sliced_matmul.
_SLICE = 64


def _sliced_matmul(a, b) -> np.ndarray:
    """a @ b.T, (m, n), for an (m, K) a and (n, K) b, as one K = _SLICE
    product per slice s of _SLICE columns, a[:, s] @ b[:, s].T, summed in
    slice order; zeros when K = 0.  K must be a whole number of slices:
    callers zero-pad their operands, so an all-zero slice adds exact
    zeros.  Each operand is viewed once as a (slices, rows, _SLICE) stack,
    which copies nothing for a row or column range or a transpose."""
    if a.shape[1] != b.shape[1] or a.shape[1] % _SLICE:
        raise ValueError(f"inner axes of {a.shape[1]} and {b.shape[1]} columns: "
                         f"need one whole number of {_SLICE}-column slices")
    slices = a.shape[1] // _SLICE
    total = np.zeros((len(a), len(b)))
    for x, y in zip(*(v.reshape(len(v), slices, _SLICE).swapaxes(0, 1) for v in (a, b))):
        total += x @ y.T
    return total


def apply_operators(operators, images, outs) -> None:
    """Write operators[i]'s feature row of the k-th image into outs[i][k].

    Each image is checked against every operator's shape and for finite
    pixels, then folded into a row of each operator's _BLOCK-row buffer.
    Every projection is of the whole buffer, whatever its other rows hold,
    so a row's bits depend only on its image and never on its position or
    on how many images there are.
    """
    blocks = [np.zeros((_BLOCK, *op.fold_shape)) for op in operators]
    count = 0

    def project():
        start = (count - 1) // _BLOCK * _BLOCK
        for op, block, out in zip(operators, blocks, outs):
            out[start:count] = op.project(block)[: count - start]

    for count, image in enumerate(images, 1):
        img = np.asarray(image, dtype=float)
        for op in operators:
            if img.shape != op.shape:
                raise DomainError(f"operator for {op.shape} images got a {img.shape} image")
        if not np.isfinite(img).all():
            raise DomainError("image contains non-finite intensities")
        for op, block in zip(operators, blocks):
            op.fold(img, block[(count - 1) % _BLOCK])
        if count % _BLOCK == 0:
            project()
    if count % _BLOCK:
        project()


@dataclass(frozen=True, eq=False)
class FBTOperator(_BlockOperator):
    """fbt_features(fbt(to_polar(image))) as one linear map, for one image shape.

    The polar grid is centred on the image, so it is symmetric under the
    mirrors x -> w-1-x and y -> h-1-y, which take ray k to rays n/2-k and
    n-k.  Under a mirror each coefficient only changes sign: cos(n theta)
    by (-1)^n in x and not at all in y, sin(n theta) by -(-1)^n in x and
    by -1 in y.  The map is therefore stored for the samples of the rays
    from 0 to 90 degrees only, over the image quadrant they touch:
    `quarter` has one row per coefficient, in groups of one sign pattern
    (`classes`), and each group meets its own sign-combined sum of the
    quadrant and its three mirror images (`mirrors`).  Samples the fold
    cannot reproduce go unfolded into `residual`, over the pixels they
    touch: orbits of mirror samples that disagree on lying inside the
    image (border points within rounding), and every sample when the ray
    count is odd.

    fold(image) gives an image's operator input, one sum per class and
    then the residual pixels, each in whole _SLICE slices like the
    operator columns they meet; project maps stacked inputs to feature
    rows, and calling the operator on an image stack does both.
    """

    shape: tuple[int, int]
    n_features: int
    features: np.ndarray  # feature index of each operator row
    classes: tuple[tuple[int, int, int, int], ...]  # (first row, end row, x sign, y sign)
    mirrors: np.ndarray  # (4, quadrant pixels): flat index of each and of its x, y and xy mirror
    quarter: np.ndarray  # (rows, quadrant pixels), zero-padded to whole _SLICE columns
    residual_pixels: np.ndarray  # flat image indices
    residual: np.ndarray  # (rows, residual pixels), zero-padded likewise

    @property
    def fold_shape(self) -> tuple[int]:
        """Shape of fold's output."""
        return (len(self.classes) * self.quarter.shape[1] + self.residual.shape[1],)

    def fold(self, img, out) -> None:
        """Write the operator input of one float image into out, leaving its
        pad entries as they are: 0 in apply_operators' block buffer."""
        q, qx, qy, qxy = img.ravel()[self.mirrors]
        n, width = q.size, self.quarter.shape[1]
        for sy in (1, -1):
            a = q + qy if sy > 0 else q - qy
            b = qx + qxy if sy > 0 else qx - qxy
            for c, (_, _, cls_x, cls_y) in enumerate(self.classes):
                if cls_y == sy:
                    (np.add if cls_x > 0 else np.subtract)(a, b, out=out[c * width:c * width + n])
        out[len(self.classes) * width:][:self.residual_pixels.size] = img.ravel()[self.residual_pixels]

    def project(self, folded) -> np.ndarray:
        """Feature rows of a stack of fold outputs."""
        width = self.quarter.shape[1]  # fold columns per class
        rows = np.empty((len(folded), self.features.size))
        for c, (start, stop, _, _) in enumerate(self.classes):
            rows[:, start:stop] = _sliced_matmul(folded[:, c * width:(c + 1) * width], self.quarter[start:stop])
        rows += _sliced_matmul(folded[:, len(self.classes) * width:], self.residual)
        out = np.zeros((len(folded), self.n_features))  # B_0 has no row and stays 0
        out[:, self.features] = rows
        return out


def fbt_operator(shape, config: FBTConfig = FBTConfig(), support=None) -> FBTOperator:
    """Build the FBTOperator of h x w images; see that class.

    `support`, an optional h x w boolean mask, promises that every image
    the operator meets is zero outside it; pixels that no image can light
    then get no operator column.
    """
    h, w = (int(v) for v in shape)
    if h < 2 or w < 2:
        raise DomainError(f"image must be 2-D with both sides >= 2, got shape {tuple(shape)}")
    support = np.ones((h, w), dtype=bool) if support is None else np.asarray(support, dtype=bool)
    if support.shape != (h, w):
        raise DomainError(f"support of shape {support.shape} for {(h, w)} images")
    res = float(config.angular_resolution)
    n_rays = _ray_count(res)
    *plan, max_radius = _polar_plan(h, w, n_rays, res)
    inside, n_rings = plan[0], plan[0].shape[1]
    radial = _radial_tables(config.max_order, config.max_root, n_rings, max_radius, res)
    cosn, sinn = _trig_tables(config.max_order, n_rays, res)

    # Coefficient groups (cos or sin, orders) by the signs the x and y
    # mirrors give them; B_0 = 0 is left out.
    order, roots = np.arange(config.max_order + 1), config.max_root
    groups = [(0, order[0::2], 1, 1), (0, order[1::2], -1, 1), (1, order[1::2], 1, -1), (1, order[2::2], -1, -1)]
    groups = [g for g in groups if g[1].size]
    trig = np.concatenate([(cosn, sinn)[t][n] for t, n, _, _ in groups])  # (orders of all groups, rays)
    radial = radial[np.concatenate([n for _, n, _, _ in groups])]  # per order of all groups
    # operator rows: group by group, order-major and root-minor within one
    features = np.concatenate([((t * order.size + n)[:, None] * roots + np.arange(roots)).ravel()
                               for t, n, _, _ in groups])
    ends = roots * np.cumsum([n.size for _, n, _, _ in groups])
    classes = tuple((int(e - roots * n.size), int(e), sx, sy) for e, (_, n, sx, sy) in zip(ends, groups))

    y0, x0 = (h - 1) // 2, (w - 1) // 2
    flat = np.arange(h * w).reshape(h, w)
    mirrors = np.stack([flat[y0:, x0:], flat[y0:, w - 1 - x0::-1],
                        flat[h - 1 - y0::-1, x0:], flat[h - 1 - y0::-1, w - 1 - x0::-1]]).reshape(4, -1)
    quarter, columns = np.zeros((features.size, 0)), np.zeros(0, dtype=np.intp)
    residual = inside.copy()
    if n_rays % 2 == 0:
        columns = np.flatnonzero(support.ravel()[mirrors].any(axis=0))
        # rays 0..90 degrees and their mirrors; rays 0 and 90 are their own
        # mirror in y and in x, so their samples count half
        k0 = np.arange(n_rays // 4 + 1)
        orbits = np.stack([k0, (n_rays // 2 - k0) % n_rays, -k0 % n_rays, (n_rays // 2 + k0) % n_rays])
        fold = inside[orbits].all(axis=0)
        ray, ring = np.nonzero(fold)
        pixel, weight = _plan_taps(w, (ray, ring), *plan)
        # a sample folds if its whole orbit is inside and its pixels are the quadrant's
        keep = fold[ray, ring] = ((pixel // w >= y0) & (pixel % w >= x0)).all(axis=1)
        ray, ring, pixel, weight = ray[keep], ring[keep], pixel[keep], weight[keep]
        residual[orbits] = ~fold  # every ray lies on one orbit
        residual &= inside
        weight[(ray == 0) | (4 * ray == n_rays)] *= 0.5
        quadrant = np.zeros(h * w, dtype=np.intp)  # flat pixel -> quadrant column
        quadrant[mirrors[0]] = np.arange(mirrors.shape[1])
        quarter = _project(quadrant[pixel], mirrors.shape[1], columns, ray, ring, weight, trig, radial)
    ray, ring = np.nonzero(residual)
    pixel, weight = _plan_taps(w, (ray, ring), *plan)
    lit = np.zeros(h * w, dtype=bool)
    lit[pixel] = True
    lit &= support.ravel()
    residual_pixels = np.flatnonzero(lit)
    unfolded = _project(pixel, h * w, residual_pixels, ray, ring, weight, trig, radial)
    return FBTOperator((h, w), config.n_features, features, classes, mirrors[:, columns], quarter,
                       residual_pixels, unfolded)


def _project(pixel, n_pixels, columns, ray, ring, weight, trig, radial):
    """Operator rows over the given pixel columns (of n_pixels): for each
    order g and root i, the sum over the samples (ray, ring) of weight *
    trig[g, ray] * radial[g, i, ring], added into the columns of the
    sample's four pixels (`pixel` and `weight` are (samples, 4)), then
    zero-padded to whole _SLICE columns.

    The ray sum comes first, binned per pixel and ring.  A sample lies
    within one pixel of each of its pixels along both axes, so within
    sqrt(2) in radius: at most three rings reach a pixel, and a bin is
    (pixel, ring - innermost ring reaching it).  The three bins of a
    pixel are then contracted with the radial basis.
    """
    n_groups, roots, n_rings = radial.shape
    out = np.zeros((n_groups, roots, columns.size + -columns.size % _SLICE))
    if columns.size == 0:
        return out.reshape(n_groups * roots, 0)
    wanted = np.zeros(n_pixels, dtype=bool)
    wanted[columns] = True
    lit = wanted[pixel].any(axis=1)  # samples that reach a wanted column
    pixel, ray, ring, weight = pixel[lit], ray[lit], ring[lit], weight[lit]
    low = np.full(n_pixels, n_rings - 1)
    np.minimum.at(low, pixel, ring[:, None])  # innermost ring reaching each pixel
    bins = ((ring[:, None] - low[pixel]) * n_pixels + pixel).ravel()
    radial = np.concatenate([radial, np.zeros((n_groups, roots, 2))], axis=2)
    values = np.empty_like(weight)
    step = max(1, _BUILD_BLOCK // (3 * n_pixels))
    chunk = np.empty((min(step, n_groups), 3, n_pixels))  # one buffer for every group block
    for g0 in range(0, n_groups, step):
        g1 = min(g0 + step, n_groups)
        binned = chunk[: g1 - g0]
        for g in range(g0, g1):
            np.multiply(weight, trig[g, ray, None], out=values)
            binned[g - g0] = np.bincount(bins, values.ravel(), minlength=3 * n_pixels).reshape(3, -1)
        for lo in range(0, columns.size, _BUILD_CHUNK):
            part = columns[lo:lo + _BUILD_CHUNK]
            acc = out[g0:g1, :, lo:lo + part.size]
            for s in range(3):
                term = np.take(radial[g0:g1], low[part] + s, axis=2)
                term *= binned[:, s, part][:, None, :]
                if s:
                    acc += term
                else:
                    acc[...] = term
    return out.reshape(n_groups * roots, -1)


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
def dft_feature_frequencies(max_cycles: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only integer index arrays u, v of the lattice cells with
    sqrt(u^2+v^2) <= max_cycles.

    Sorted by (radius, angle in [0, 2pi), u); DC first.  Conjugate pairs
    are both kept; dft_feature_columns stores each once.
    """
    rmax = int(math.floor(max_cycles))
    v, u = np.mgrid[-rmax:rmax + 1, -rmax:rmax + 1].reshape(2, -1)
    keep = u * u + v * v <= max_cycles * max_cycles
    u, v = u[keep], v[keep]
    lattice = np.stack([u, v])[:, np.lexsort((u, np.arctan2(v, u) % (2.0 * np.pi), u * u + v * v))]
    lattice.setflags(write=False)
    return lattice[0], lattice[1]


@lru_cache(maxsize=32)
def dft_feature_columns(max_cycles: float) -> np.ndarray:
    """Read-only stored column of each dft_feature_frequencies cell.

    A real image's spectrum has |F(u, v)| = |F(-u, -v)|, so a DFT
    FeatureTable stores DC and the first cell of each conjugate pair, in
    lattice order, as columns 0, 1, ...; the second cell of a pair reads
    its mate's column.
    """
    us, vs = dft_feature_frequencies(max_cycles)
    side = 2 * int(math.floor(max_cycles)) + 1
    key = (vs + side // 2) * side + us + side // 2  # plane cell; its mate's is side^2 - 1 - key
    cell = np.empty(side * side, dtype=np.intp)
    cell[key] = np.arange(key.size)
    mate = cell[side * side - 1 - key]
    first = np.arange(key.size) <= mate
    stored = np.cumsum(first) - 1
    columns = np.where(first, stored, stored[mate])
    columns.setflags(write=False)
    return columns


def dft_features(magnitudes: np.ndarray, config: DFTConfig = DFTConfig()) -> FeatureVector:
    """Select centered-DFT magnitudes on the lattice disk as features."""
    mag = np.asarray(magnitudes, dtype=float)
    if mag.ndim != 2:
        raise DomainError(f"magnitude plane must be 2-D, got shape {mag.shape}")
    h, w = mag.shape
    _dft_radius(config, h, w)
    us, vs = dft_feature_frequencies(config.max_cycles)
    values = mag[h // 2 + vs, w // 2 + us]
    return FeatureVector(values=values, layout_id=f"dft-{values.size}")


def _dft_radius(config: DFTConfig, h: int, w: int) -> int:
    """r = floor(max_cycles), refused unless the centered h x w plane holds
    the lattice; checked before the lattice (about 3.14 r^2 cells) is made."""
    r = int(math.floor(config.max_cycles))
    if r > (h - 1) // 2 or r > (w - 1) // 2:
        raise ConfigError(f"max_cycles {config.max_cycles} exceeds the {w}x{h} frequency plane")
    return r


def extract_dft(image, config: DFTConfig = DFTConfig()) -> FeatureVector:
    """DFT-magnitude features of an image."""
    return dft_features(dft_magnitude(image), config)


@dataclass(frozen=True, eq=False)
class DFTOperator(_BlockOperator):
    """extract_dft(image).values, each conjugate pair once (see
    dft_feature_columns), as a separable linear map and a modulus, for
    one image shape.

    The features are |F(u, v)| / sqrt(h w) on the lattice of radius r =
    floor(max_cycles), F the 2-D DFT.  A real image has |F(u, v)| =
    |F(-u, -v)|, so only the columns u = 0..r are computed.  fold(image)
    is the row pass: the image times `rows` = [cos | sin](2 pi u x / w)
    gives the (h, 2(r+1)) sums [C | S].  project(folded) is the column
    pass: `columns` = [cos; sin](2 pi v y / h), v = 0..r, times each
    folded image gives cC, cS, sC and sS, and F(u, +-v) = (cC -+ sS) -
    i (cS +- sC); each stored lattice cell is then read from that
    (2(r+1), r+1) plane, u < 0 at (-u, -v).
    """

    shape: tuple[int, int]
    rows: np.ndarray  # (w, 2(r+1))
    columns: np.ndarray  # (2(r+1), h)
    cells: np.ndarray  # flat plane index of each stored feature; plane rows v = 0..r, then -0..-r

    @property
    def fold_shape(self) -> tuple[int, int]:
        """Shape of fold's output."""
        return (self.shape[0], self.rows.shape[1])

    @property
    def n_features(self) -> int:
        return self.cells.size

    def fold(self, img, out) -> None:
        """Write the row-pass sums of one float image into out."""
        np.matmul(img, self.rows, out=out)

    def project(self, folded) -> np.ndarray:
        """Feature rows of an (images, h, 2(r+1)) stack of fold outputs."""
        r1 = self.rows.shape[1] // 2
        sums = self.columns @ folded  # one GEMM per image
        c, s = sums[:, :r1], sums[:, r1:]  # the cos and the sin rows
        cC, cS, sC, sS = c[..., :r1], c[..., r1:], s[..., :r1], s[..., r1:]
        re = np.concatenate([cC - sS, cC + sS], axis=1)
        im = np.concatenate([cS + sC, cS - sC], axis=1)
        return np.hypot(re, im).reshape(len(sums), -1)[:, self.cells] / math.sqrt(self.shape[0] * self.shape[1])


def dft_operator(shape, config: DFTConfig = DFTConfig()) -> DFTOperator:
    """Build the DFTOperator of h x w images; see that class."""
    h, w = (int(v) for v in shape)
    r = _dft_radius(config, h, w)

    def trig(n):  # [cos; sin] of 2 pi k t / n, k = 0..r, t = 0..n-1, the phase reduced exactly
        phase = (2.0 * math.pi / n) * (np.outer(np.arange(r + 1), np.arange(n)) % n)
        return np.concatenate([np.cos(phase), np.sin(phase)])

    stored = np.unique(dft_feature_columns(config.max_cycles), return_index=True)[1]  # first cell of each column
    us, vs = (a[stored] for a in dft_feature_frequencies(config.max_cycles))
    u, v = np.abs(us), np.where(us < 0, -vs, vs)
    cells = np.where(v >= 0, v, r + 1 - v) * (r + 1) + u
    return DFTOperator((h, w), np.ascontiguousarray(trig(w).T), trig(h), cells)


def synth_radial(cycles: float, size: int) -> np.ndarray:
    """Concentric ring pattern, `cycles` full periods across the image
    diagonal, intensities mapped to [0, 1]; 0.5 at the exact center.
    Refuses cycles whose phase at the corners, the largest, is not finite."""
    if size < 2:
        raise DomainError(f"size must be >= 2, got {size}")
    c = (size - 1) / 2.0
    rimg = math.hypot(c, c)
    if not math.isfinite(math.pi * cycles * rimg):
        raise DomainError(f"radial cycles {cycles} give a non-finite pattern")
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
    us, vs = dft_feature_frequencies(config.max_cycles)
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

