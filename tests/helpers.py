"""Shared image builders and input mutators for the tests (not fixtures,
plain functions)."""

import numpy as np
from hypothesis import strategies as st

from polarface import FBTConfig, FeatureTable, apply_operators, fbt_operator, synth_mix


def pseudo_face(size: int = 101) -> np.ndarray:
    """Smooth face-like arrangement of Gaussian blobs on [0, 1]."""
    c = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size].astype(float)

    def blob(x0, y0, sx, sy, amp):
        return amp * np.exp(-(((xs - x0) / sx) ** 2 + ((ys - y0) / sy) ** 2))

    img = 0.35 + np.zeros((size, size))
    img += blob(c - 16, c - 12, 8, 10, 0.45)
    img += blob(c + 16, c - 12, 8, 10, 0.45)
    img += blob(c, c + 6, 5, 9, -0.2)
    img += blob(c, c + 22, 14, 5, 0.35)
    return np.clip(img, 0.0, 1.0)


def jittered_mix_images(n_subjects: int = 10, per_subject: int = 10, size: int = 64, seed: int = 11):
    """(image_id, subject_id, image) triples: each subject owns a distinct
    (radial, angular) cycle pair; images jitter the radial cycles and add
    pixel noise, both tiny against the between-subject separation."""
    radial = (4.0, 8.0, 12.0, 16.0, 20.0)
    angular = (3, 6)
    pairs = [(r, a) for a in angular for r in radial][:n_subjects]
    rng = np.random.default_rng(seed)
    out = []
    for s, (r_cyc, a_cyc) in enumerate(pairs):
        for k in range(per_subject):
            img = synth_mix(r_cyc + rng.normal(0.0, 0.05), a_cyc, size)
            img = np.clip(img + rng.normal(0.0, 0.01, size=(size, size)), 0.0, 1.0)
            out.append((f"s{s:02d}/{k:02d}", f"s{s:02d}", img))
    return out


def feature_table(ids, vectors) -> FeatureTable:
    """Stack one-layout FeatureVectors, vectors[r] into row r."""
    table = FeatureTable.allocate(ids, vectors[0].layout_id, vectors[0].values.size)
    for row, vector in enumerate(vectors):
        table.values[row] = vector.values
    return table


def fbt_feature_table(ids, images, config: FBTConfig = FBTConfig()) -> FeatureTable:
    """FBT features of same-shape images, extracted as the CLI does:
    one FBTOperator applied by apply_operators."""
    table = FeatureTable.allocate(ids, f"fbt-{config.n_features}", config.n_features)
    apply_operators([fbt_operator(np.shape(images[0]), config)], images, [table.values])
    return table


@st.composite
def mutated(draw, seeds):
    """A seed with one to four bytes replaced, inserted or deleted, or cut short."""
    data = bytearray(draw(st.sampled_from(seeds)))
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b" \n#,.-0123456789P[]=%"))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        if kind == "insert":
            data.insert(pos, draw(byte))
        elif kind == "truncate":
            del data[pos:]
        elif pos < len(data):
            if kind == "replace":
                data[pos] = draw(byte)
            else:
                del data[pos]
    return bytes(data)
