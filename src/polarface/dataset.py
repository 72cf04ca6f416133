"""Dataset loading: portable graymaps, directory layouts, eye-based
geometric normalization.

Supported image format is PGM, binary (P5) or ASCII (P2), maxval up to
65535.  Two dataset layouts: "orl" (one subdirectory per subject holding
its .pgm images) and "flat-manifest" (a UTF-8 text file listing
`path,subject[,x_left,y_left,x_right,y_right]` per line, '#' comments
allowed, image paths resolved relative to the manifest).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError, DomainError, ParseError
from .fileio import atomic_write_bytes
from .polar import bilinear_sample

# Filler (whitespace and '#' comments to the end of a line), then a token:
# the bytes before the next filler, empty only at the end of the data.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def _int_field(path, match, what: str, low: int, high: int) -> int:
    """The token of a _TOKEN match as an integer in [low, high]."""
    tok, off = match[1], match.start(1)
    if not tok:
        raise ParseError(f"{path}: missing {what} at byte {off}")
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"{path}: bad {what} {tok!r} at byte {off}") from None
    if not (low <= value <= high):
        raise ParseError(f"{path}: {what} {value} at byte {off} outside [{low}, {high}]")
    return value


def load_pgm(path) -> np.ndarray:
    """Read a P5 or P2 graymap into a float64 (height, width) array.

    Intensities are kept verbatim (no rescaling).  Malformed input
    raises ParseError naming the byte offset of the problem.
    """
    data = Path(path).read_bytes()
    fields = _TOKEN.finditer(data)
    head = next(fields)
    magic = head[1]
    if magic not in (b"P5", b"P2"):
        problem = f"unsupported magic {magic!r}" if magic else "missing magic number"
        raise ParseError(f"{path}: {problem} at byte {head.start(1)}")
    width = _int_field(path, next(fields), "width", 1, 1 << 30)
    height = _int_field(path, next(fields), "height", 1, 1 << 30)
    maxval_field = next(fields)
    maxval = _int_field(path, maxval_field, "maxval", 1, 65535)
    pos = maxval_field.end()

    if magic == b"P5":
        if not data[pos:pos + 1].isspace():
            raise ParseError(f"{path}: expected single whitespace after maxval at byte {pos}")
        pos += 1
        bytes_per = 2 if maxval > 255 else 1
        need = width * height * bytes_per
        avail = len(data) - pos
        if avail < need:
            raise ParseError(
                f"{path}: truncated pixel payload at byte {pos}: "
                f"expected {need} bytes, found {avail}"
            )
        dtype = ">u2" if bytes_per == 2 else "u1"
        pixels = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos)
        over = np.flatnonzero(pixels > maxval)
        if over.size:
            i = over[0]
            raise ParseError(f"{path}: pixel {i} value {pixels[i]} at byte {pos + i * bytes_per} exceeds maxval {maxval}")
        return pixels.reshape(height, width).astype(float)

    # N ASCII pixels take at least 2N - 1 bytes (one digit each, single
    # separators); bounding by the payload keeps a forged header from
    # sizing the allocation.
    need = 2 * width * height - 1
    avail = len(data) - pos
    if avail < need:
        raise ParseError(
            f"{path}: truncated pixel payload at byte {pos}: {width}x{height} "
            f"ASCII pixels need at least {need} bytes, found {avail}"
        )
    n = width * height
    pixels = (_int_field(path, match, f"pixel {i}", 0, maxval) for i, match in zip(range(n), fields))
    return np.fromiter(pixels, float, n).reshape(height, width)


def save_pgm(path, image, maxval: int = 255, binary: bool = True) -> None:
    """Write a graymap; intensities are rounded and clipped to [0, maxval].

    maxval > 255 switches the binary payload to big-endian 16-bit.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise DomainError(f"image must be 2-D, got shape {img.shape}")
    if not (1 <= maxval <= 65535):
        raise ConfigError(f"maxval must be in [1, 65535], got {maxval}")
    if not np.isfinite(img).all():
        raise DomainError("image contains non-finite intensities")
    h, w = img.shape
    pixels = np.clip(np.rint(img), 0, maxval)
    if binary:
        header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
        dtype = ">u2" if maxval > 255 else "u1"
        payload = pixels.astype(dtype).tobytes()
        atomic_write_bytes(path, header + payload)
    else:
        rows = "\n".join(" ".join(str(int(v)) for v in row) for row in pixels)
        atomic_write_bytes(path, f"P2\n{w} {h}\n{maxval}\n{rows}\n".encode("ascii"))


Eyes = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class DatasetEntry:
    """One image: id, subject, and either a file path or in-memory pixels."""

    image_id: str
    subject_id: str
    path: Path | None = None
    image: np.ndarray | None = None
    eyes: Eyes | None = None

    def load(self) -> np.ndarray:
        if self.image is not None:
            return self.image
        if self.path is None:
            raise DatasetError(f"entry {self.image_id!r} has neither pixels nor a path")
        return load_pgm(self.path)


@dataclass(frozen=True)
class Dataset:
    entries: tuple[DatasetEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise DatasetError("dataset is empty")
        seen = set()
        for e in self.entries:
            if e.image_id in seen:
                raise DatasetError(f"duplicate image id {e.image_id!r}")
            seen.add(e.image_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def id_subject_pairs(self) -> list[tuple[str, str]]:
        return [(e.image_id, e.subject_id) for e in self.entries]


def load_dataset_dir(root, layout: str = "orl") -> Dataset:
    """Enumerate a dataset in deterministic (lexicographic) order.

    layout "orl": `root` is a directory of per-subject subdirectories.
    layout "flat-manifest": `root` is the manifest file itself.
    """
    root = Path(root)
    if layout == "orl":
        if not root.is_dir():
            raise DatasetError(f"{root} is not a directory")
        entries = []
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            for img in sorted(p for p in sub.iterdir() if p.suffix.lower() == ".pgm"):
                entries.append(
                    DatasetEntry(
                        image_id=f"{sub.name}/{img.name}",
                        subject_id=sub.name,
                        path=img,
                    )
                )
        return Dataset(entries=tuple(entries))
    if layout == "flat-manifest":
        if not root.is_file():
            raise DatasetError(f"{root} is not a manifest file")
        entries = []
        base = root.parent
        try:
            text = root.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{root}: manifest is not UTF-8 text: {exc}") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (2, 6):
                raise ParseError(
                    f"{root}:{lineno}: expected 2 or 6 comma-separated fields, "
                    f"got {len(parts)}"
                )
            rel, subject = parts[0], parts[1]
            if not rel or not subject:
                raise ParseError(f"{root}:{lineno}: empty path or subject field")
            eyes = None
            if len(parts) == 6:
                try:
                    xl, yl, xr, yr = (float(v) for v in parts[2:])
                except ValueError:
                    raise ParseError(
                        f"{root}:{lineno}: eye coordinates must be numbers"
                    ) from None
                eyes = ((xl, yl), (xr, yr))
            entries.append(
                DatasetEntry(
                    image_id=rel,
                    subject_id=subject,
                    path=base / rel,
                    eyes=eyes,
                )
            )
        return Dataset(entries=tuple(entries))
    raise ConfigError(f"unknown dataset layout {layout!r}")


@dataclass(frozen=True)
class NormalizationConfig:
    """Eye-anchored similarity normalization.

    The annotated eyes are mapped onto fixed target positions in a crop
    of crop_width x crop_height; everything outside the ellipse is
    blanked to 0 to suppress hair and background.
    """

    left_eye_target: tuple[float, float] = (29.0, 47.0)
    right_eye_target: tuple[float, float] = (88.0, 47.0)
    crop_width: int = 118
    crop_height: int = 140
    ellipse_center: tuple[float, float] = (58.5, 70.0)
    ellipse_axes: tuple[float, float] = (56.0, 68.0)

    def __post_init__(self):
        if self.crop_width < 2 or self.crop_height < 2:
            raise ConfigError("crop must be at least 2 x 2")
        if self.ellipse_axes[0] <= 0 or self.ellipse_axes[1] <= 0:
            raise ConfigError("ellipse semi-axes must be positive")
        for x, y in (self.left_eye_target, self.right_eye_target):
            if not (0 <= x <= self.crop_width - 1 and 0 <= y <= self.crop_height - 1):
                raise ConfigError(f"eye target ({x}, {y}) lies outside the crop")
        if self.left_eye_target == self.right_eye_target:
            raise ConfigError("eye targets must be distinct")


@lru_cache(maxsize=8)
def face_mask(config: NormalizationConfig) -> np.ndarray:
    """The crop pixels inside the ellipse, read-only: normalize_face
    output is zero everywhere else."""
    ys, xs = np.mgrid[0:config.crop_height, 0:config.crop_width].astype(float)
    cx, cy = config.ellipse_center
    ax, ay = config.ellipse_axes
    mask = ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=8)
def _crop_plan(config: NormalizationConfig):
    """Flat crop indices of the pixels inside the ellipse, and their x and
    y offsets from the left eye target; read-only."""
    index = np.flatnonzero(face_mask(config))
    ys, xs = np.divmod(index, config.crop_width)
    plan = (index, xs - config.left_eye_target[0], ys - config.left_eye_target[1])
    for arr in plan:
        arr.setflags(write=False)
    return plan


def normalize_face(image, left_eye, right_eye, config: NormalizationConfig = NormalizationConfig()) -> np.ndarray:
    """Rotate/scale/translate a face so the eyes land on fixed targets.

    The unique similarity transform taking the annotated eye pair to the
    target pair is applied with bilinear resampling (source pixels
    outside the image read as 0), then the elliptical mask zeroes the
    crop outside the face region.  Only the pixels inside the mask are
    resampled.
    """
    img = np.asarray(image, dtype=float)
    for name, (x, y) in (("left_eye", tuple(left_eye)), ("right_eye", tuple(right_eye))):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"{name} coordinates must be finite")
    sl = complex(left_eye[0], left_eye[1])
    sr = complex(right_eye[0], right_eye[1])
    if sl == sr:
        raise DomainError("eye annotations coincide; similarity transform is degenerate")
    tl = complex(*config.left_eye_target)
    tr = complex(*config.right_eye_target)
    scale_rot = (sr - sl) / (tr - tl)
    index, dx, dy = _crop_plan(config)
    # source = sl + scale_rot * (target - tl), in real arithmetic
    a, b = scale_rot.real, scale_rot.imag
    out = np.zeros(config.crop_height * config.crop_width)
    out[index] = bilinear_sample(img, sl.real + (a * dx - b * dy), sl.imag + (a * dy + b * dx))
    return out.reshape(config.crop_height, config.crop_width)
