"""Seeded ORL-shaped synthetic face tree.

`make_tree(root, seed)` writes `root/s<k>/<i>.pgm` (binary P5, 112 rows x
92 columns, like the AT&T/ORL archive) for 40 subjects x 10 images, plus
`root/manifest.csv`, a 6-field flat manifest `path,subject,xl,yl,xr,yr`
holding each image's true eye centres.  The same seed gives the same
bytes.

Faces are rendered analytically: every output pixel is mapped back
through the image's similarity transform into a canonical face frame,
where a subject's face is a fixed arrangement of Gaussian blobs (eyes,
brows, nose, mouth), a face ellipse, a hairline and a smooth texture.
Each image then varies the pose (rotation, scale, shift), expression,
illumination and sensor noise.  The variation is sized so that every
mode's identification error and equal error rate land strictly between
0 and 50% -- a tree on which every classifier scores perfectly cannot
show a broken one.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

HEIGHT, WIDTH = 112, 92
N_SUBJECTS, N_IMAGES = 40, 10
CANON_EYES = ((31.0, 47.0), (61.0, 47.0))  # left, right eye in the canonical frame

# Per-image variation; raising these makes every mode's error grow.
ROTATION_DEG = 3.0
SCALE_SD = 0.03
SHIFT_PX = 1.5
NOISE_SD = 14.0
EYE_MARK_SD = 3.0  # annotation error of the manifest's eye centres


def _blob(xs, ys, x0, y0, sx, sy, amp):
    return amp * np.exp(-0.5 * (((xs - x0) / sx) ** 2 + ((ys - y0) / sy) ** 2))


def _subject(rng: np.random.Generator) -> dict:
    """Identity parameters, all in the canonical frame."""
    eye_dy = rng.normal(0.0, 1.2)
    return {
        "skin": rng.uniform(125.0, 185.0),
        "face_c": (46.0 + rng.normal(0.0, 1.0), 60.0 + rng.normal(0.0, 1.5)),
        "face_ax": (rng.uniform(29.0, 35.0), rng.uniform(39.0, 47.0)),
        "hairline": rng.uniform(22.0, 34.0),
        "hair": rng.uniform(20.0, 90.0),
        "eye_dx": rng.normal(0.0, 1.2),
        "eye_dy": eye_dy,
        "eye_size": rng.uniform(3.0, 4.6),
        "eye_dark": rng.uniform(50.0, 100.0),
        "brow_h": rng.uniform(6.0, 10.0),
        "brow_dark": rng.uniform(20.0, 70.0),
        "nose_len": rng.uniform(8.0, 14.0),
        "nose_w": rng.uniform(2.5, 5.0),
        "nose_amp": rng.uniform(-30.0, 30.0),
        "mouth_y": rng.uniform(74.0, 82.0),
        "mouth_w": rng.uniform(7.0, 12.0),
        "mouth_dark": rng.uniform(30.0, 80.0),
        # smooth identity texture: a few low-frequency plane waves
        "tex_k": rng.normal(0.0, 0.18, size=(5, 2)),
        "tex_phase": rng.uniform(0.0, 2.0 * math.pi, size=5),
        "tex_amp": rng.uniform(4.0, 12.0, size=5),
    }


def _render(p: dict, v: dict) -> tuple[np.ndarray, tuple[tuple[float, float], tuple[float, float]]]:
    """One image of subject `p` under per-image variation `v`, plus the
    eye centres in image coordinates."""
    theta = math.radians(v["rot"])
    s = v["scale"]
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    anchor = np.array([(WIDTH - 1) / 2.0, (HEIGHT - 1) / 2.0])
    shift = np.array(v["shift"])

    # image = anchor + shift + s * R(theta) (canon - anchor); invert per pixel
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH].astype(float)
    dx = xs - anchor[0] - shift[0]
    dy = ys - anchor[1] - shift[1]
    cx = anchor[0] + (cos_t * dx + sin_t * dy) / s
    cy = anchor[1] + (-sin_t * dx + cos_t * dy) / s

    fx, fy = p["face_c"]
    ax, ay = p["face_ax"]
    inside = ((cx - fx) / ax) ** 2 + ((cy - fy) / ay) ** 2
    face_mask = 1.0 / (1.0 + np.exp(8.0 * (inside - 1.0)))
    img = v["background"] + (p["skin"] - v["background"]) * face_mask
    hair = 1.0 / (1.0 + np.exp((cy - p["hairline"]) / 2.0))
    img = img + (p["hair"] - img) * hair * face_mask

    for k, ph, a in zip(p["tex_k"], p["tex_phase"], p["tex_amp"]):
        img = img + a * face_mask * np.cos(k[0] * cx + k[1] * cy + ph)

    eyes_canon = []
    for side, (ex, ey) in zip((-1.0, 1.0), CANON_EYES):
        ex = ex + side * p["eye_dx"]
        ey = ey + p["eye_dy"]
        eyes_canon.append((ex, ey))
        size = p["eye_size"]
        img = img - _blob(cx, cy, ex, ey, 1.6 * size, size * v["eye_open"], p["eye_dark"])
        img = img - _blob(cx, cy, ex, ey - p["brow_h"], 2.2 * size, 1.1, p["brow_dark"] * v["brow"])
    nose_top = eyes_canon[0][1] + 4.0
    img = img + _blob(cx, cy, fx, nose_top + p["nose_len"] / 2, p["nose_w"], p["nose_len"], p["nose_amp"])
    img = img - _blob(cx, cy, fx, nose_top + p["nose_len"] + 2.0, 4.0, 1.5, 25.0)
    img = img - _blob(
        cx, cy, fx, p["mouth_y"], p["mouth_w"] * v["smile"], 2.0 + v["mouth_open"], p["mouth_dark"]
    )

    # illumination: gain plus a linear side light
    img = v["gain"] * img + v["light"] * (xs - anchor[0]) / WIDTH
    img = img + v["noise"]
    eyes = []
    for ex, ey in eyes_canon:
        ux, uy = s * (ex - anchor[0]), s * (ey - anchor[1])
        eyes.append((
            anchor[0] + shift[0] + cos_t * ux - sin_t * uy,
            anchor[1] + shift[1] + sin_t * ux + cos_t * uy,
        ))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8), (eyes[0], eyes[1])


def _variation(rng: np.random.Generator) -> dict:
    return {
        "rot": rng.normal(0.0, ROTATION_DEG),
        "scale": 1.0 + rng.normal(0.0, SCALE_SD),
        "shift": (rng.normal(0.0, SHIFT_PX), rng.normal(0.0, SHIFT_PX)),
        "eye_open": rng.uniform(0.5, 1.1),
        "brow": rng.uniform(0.7, 1.3),
        "smile": rng.uniform(0.8, 1.35),
        "mouth_open": rng.uniform(0.0, 2.5),
        "gain": rng.uniform(0.8, 1.15),
        "light": rng.normal(0.0, 25.0),
        "background": rng.uniform(20.0, 110.0),
        "noise": rng.normal(0.0, NOISE_SD, size=(HEIGHT, WIDTH)),
    }


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def make_tree(root, seed: int, n_subjects: int = N_SUBJECTS, n_images: int = N_IMAGES) -> Path:
    """Write the tree under `root`; return the manifest path.

    Subject k's identity and image i's variation each draw from their
    own stream, seeded by (seed, k) and (seed, k, i), so a smaller tree
    is a prefix of a larger one with the same seed.
    """
    root = Path(root)
    lines = []
    for k in range(1, n_subjects + 1):
        subject = _subject(np.random.default_rng([seed, k]))
        sub = root / f"s{k}"
        sub.mkdir(parents=True, exist_ok=True)
        for i in range(1, n_images + 1):
            rng = np.random.default_rng([seed, k, i])
            pixels, eyes = _render(subject, _variation(rng))
            (xl, yl), (xr, yr) = np.asarray(eyes) + rng.normal(0.0, EYE_MARK_SD, size=(2, 2))
            (sub / f"{i}.pgm").write_bytes(pgm_bytes(pixels))
            lines.append(f"s{k}/{i}.pgm,s{k},{xl:.3f},{yl:.3f},{xr:.3f},{yr:.3f}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
    return manifest
