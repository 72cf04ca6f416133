"""Graymap IO, dataset enumeration, and eye-anchored normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mutated
from oracles import bilinear_sample_2d, normalize_face_complex, normalize_source_complex
from polarface import (
    Dataset,
    DatasetEntry,
    NormalizationConfig,
    load_dataset_dir,
    load_pgm,
    normalize_face,
    save_pgm,
)
from polarface.errors import ConfigError, DatasetError, DomainError, ParseError, PolarFaceError


def test_binary_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(9, 13)).astype(float)
    path = tmp_path / "a.pgm"
    save_pgm(path, img)
    assert np.array_equal(load_pgm(path), img)


def test_sixteen_bit_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 65536, size=(4, 6)).astype(float)
    path = tmp_path / "deep.pgm"
    save_pgm(path, img, maxval=65535)
    assert np.array_equal(load_pgm(path), img)


def test_sixteen_bit_payload_is_big_endian(tmp_path):
    path = tmp_path / "be.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0x00, 0x02]))
    assert np.array_equal(load_pgm(path), [[256.0, 2.0]])


def test_ascii_pgm_round_trip(tmp_path):
    img = np.arange(12, dtype=float).reshape(3, 4)
    path = tmp_path / "plain.pgm"
    save_pgm(path, img, binary=False)
    assert path.read_bytes().startswith(b"P2\n")
    assert np.array_equal(load_pgm(path), img)


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    for blob in (
        b"P2 # magic\n# a full comment line\n  3\t2\n255\n0 1 2\n3 4 5\n",
        b"P2\n3 2\n255\n0 1 2 # a comment inside the raster\n3 4#5\n5\n",
    ):
        path.write_bytes(blob)
        assert np.array_equal(load_pgm(path), [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])


def test_save_rounds_and_clips(tmp_path):
    path = tmp_path / "r.pgm"
    save_pgm(path, np.array([[-5.0, 0.4, 0.6, 300.0]]))
    assert np.array_equal(load_pgm(path), [[0.0, 0.0, 1.0, 255.0]])


def test_parse_errors_name_byte_offsets(tmp_path):
    cases = [
        (b"", "missing magic number at byte 0"),
        (b"P6\n2 2\n255\n" + b"x" * 4, "unsupported magic"),
        (b"P5\n2", "missing height"),
        (b"P5\nab 2\n255\n", "bad width b'ab' at byte 3"),
        (b"P5\n2 2\n0\n", "maxval 0 at byte 7 outside [1, 65535]"),
        (b"P5\n2 2\n255\nXY", "expected 4 bytes, found 2"),
        (b"P5\n1 1\n255#c\n\x00", "expected single whitespace after maxval at byte 10"),
        (b"P2\n3 2\n255\n1 2 3 4", "need at least 11 bytes, found 8"),
        (b"P2\n1073741824 1073741824\n255\n1 2 3\n", "need at least 2305843009213693951 bytes"),
        (b"P2\n2 2\n10\n1 2 300 4", "pixel 2 300 at byte 14 outside [0, 10]"),
        (b"P2\n2 2\n9\n1 2 3   ", "missing pixel 3 at byte 17"),
        (b"P2\n2 1\n9\n1 x\n", "bad pixel 1 b'x' at byte 11"),
        (b"P5\n2 2\n100\n" + bytes([1, 2, 250, 4]), "pixel 2 value 250 at byte 13 exceeds maxval 100"),
        (b"P5\n2 1\n1000\n" + bytes([3, 232, 3, 233]), "pixel 1 value 1001 at byte 14 exceeds maxval 1000"),
    ]
    for blob, fragment in cases:
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(ParseError) as err:
            load_pgm(path)
        assert fragment in str(err.value)


def test_save_pgm_validation(tmp_path):
    with pytest.raises(DomainError):
        save_pgm(tmp_path / "x.pgm", np.zeros(5))
    with pytest.raises(ConfigError):
        save_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=0)
    for binary in (True, False):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                save_pgm(tmp_path / "x.pgm", np.array([[0.0, bad], [1.0, 2.0]]), binary=binary)
    assert not (tmp_path / "x.pgm").exists()


def test_orl_tree_enumeration(tmp_path):
    root = tmp_path / "faces"
    for sub, count in (("s1", 2), ("s10", 1), ("s2", 2)):
        (root / sub).mkdir(parents=True)
        for k in range(1, count + 1):
            save_pgm(root / sub / f"{k}.pgm", np.full((4, 4), 10.0 * k))
    (root / "s1" / "notes.txt").write_text("ignored")
    ds = load_dataset_dir(root, "orl")
    assert [e.image_id for e in ds] == [
        "s1/1.pgm", "s1/2.pgm", "s10/1.pgm", "s2/1.pgm", "s2/2.pgm",
    ]
    assert np.array_equal(ds.entries[1].load(), np.full((4, 4), 20.0))
    assert ds.id_subject_pairs()[0] == ("s1/1.pgm", "s1")


def test_orl_layout_needs_directory(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset_dir(tmp_path / "absent", "orl")


def test_flat_manifest(tmp_path):
    save_pgm(tmp_path / "a.pgm", np.ones((3, 3)))
    save_pgm(tmp_path / "b.pgm", np.zeros((3, 3)))
    manifest = tmp_path / "list.txt"
    manifest.write_text(
        "# header comment\n"
        "\n"
        "a.pgm, alice\n"
        "b.pgm, bob, 10.5, 20, 30, 20.25\n"
    )
    ds = load_dataset_dir(manifest, "flat-manifest")
    assert len(ds) == 2
    assert ds.entries[0].eyes is None
    assert ds.entries[1].eyes == ((10.5, 20.0), (30.0, 20.25))
    assert ds.entries[1].path == tmp_path / "b.pgm"
    assert np.array_equal(ds.entries[0].load(), np.ones((3, 3)))


def test_flat_manifest_errors_carry_line_numbers(tmp_path):
    manifest = tmp_path / "list.txt"
    for body, fragment in (
        ("a.pgm, s1\nb.pgm, s2, 1, 2\n", ":2: expected 2 or 6"),
        ("a.pgm,\n", ":1: empty path or subject"),
        ("a.pgm, s1, x, 2, 3, 4\n", ":1: eye coordinates must be numbers"),
    ):
        manifest.write_text(body)
        with pytest.raises(ParseError) as err:
            load_dataset_dir(manifest, "flat-manifest")
        assert fragment in str(err.value)


# Valid inputs for the fuzzers below to mutate: both graymap formats, one
# with a comment and one 16-bit, and a manifest with every line kind.
_PGM_SEEDS = (
    b"P2\n# c\n3 2\n255\n0 1 2\n3 4 5\n",
    b"P5\n3 2\n255\n" + bytes(range(6)),
    b"P5\n2 1\n65535\n" + bytes([1, 0, 0, 2]),
)
_MANIFEST_SEEDS = (b"# faces\ns1/1.pgm, s1\n\ns1/2.pgm, s1, 10.5, 20, 30, 20.25\ns2/1.pgm,s2\n",)


@given(mutated(_PGM_SEEDS))
@settings(max_examples=300, deadline=None)
def test_mutated_graymaps_load_or_raise_polarface_errors(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(blob)
    try:
        load_pgm(path)
    except PolarFaceError:
        pass


@given(mutated(_MANIFEST_SEEDS))
@settings(max_examples=300, deadline=None)
def test_mutated_manifests_load_or_raise_polarface_errors(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz_manifest.csv"
    path.write_bytes(blob)
    try:
        load_dataset_dir(path, "flat-manifest")
    except PolarFaceError:
        pass


def test_flat_manifest_needs_file(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset_dir(tmp_path, "flat-manifest")


def test_unknown_layout():
    with pytest.raises(ConfigError):
        load_dataset_dir("anywhere", "feret-classic")


def test_dataset_invariants():
    entry = DatasetEntry(image_id="x", subject_id="s", image=np.zeros((2, 2)))
    with pytest.raises(DatasetError):
        Dataset(entries=())
    with pytest.raises(DatasetError):
        Dataset(entries=(entry, entry))
    with pytest.raises(DatasetError):
        DatasetEntry(image_id="y", subject_id="s").load()


def smooth_face(size=220):
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    c = (size - 1) / 2
    return np.exp(-(((xs - c) / 60.0) ** 2 + ((ys - c) / 70.0) ** 2))


def test_normalize_eyes_already_on_targets_is_masked_crop():
    cfg = NormalizationConfig()
    img = smooth_face()
    out = normalize_face(img, cfg.left_eye_target, cfg.right_eye_target, cfg)
    assert out.shape == (cfg.crop_height, cfg.crop_width)
    ys, xs = np.mgrid[0:cfg.crop_height, 0:cfg.crop_width].astype(float)
    cx, cy = cfg.ellipse_center
    ax, ay = cfg.ellipse_axes
    inside = ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0
    want = np.where(inside, img[: cfg.crop_height, : cfg.crop_width], 0.0)
    assert np.allclose(out, want, atol=1e-12)
    # the crop corners sit outside the ellipse
    assert out[0, 0] == 0.0 and out[-1, -1] == 0.0


def test_normalize_commutes_with_quarter_turn():
    img = smooth_face()
    n = img.shape[0]
    left, right = (70.0, 80.0), (129.0, 80.0)
    base = normalize_face(img, left, right)
    turned = np.rot90(img)  # (x, y) -> (y, n-1-x)
    rot = normalize_face(
        turned,
        (left[1], n - 1 - left[0]),
        (right[1], n - 1 - right[0]),
    )
    assert np.allclose(rot, base, atol=1e-9)


def test_normalize_is_idempotent_once_aligned():
    cfg = NormalizationConfig()
    first = normalize_face(smooth_face(), (70.0, 80.0), (129.0, 80.0), cfg)
    again = normalize_face(first, cfg.left_eye_target, cfg.right_eye_target, cfg)
    assert np.allclose(again, first, atol=1e-12)


@given(
    st.tuples(st.floats(20.0, 100.0), st.floats(20.0, 200.0)),
    st.tuples(st.floats(110.0, 200.0), st.floats(20.0, 200.0)),
    st.sampled_from((
        NormalizationConfig(),
        NormalizationConfig(crop_width=80, crop_height=100, left_eye_target=(20.0, 30.0),
                            right_eye_target=(60.0, 34.0), ellipse_center=(39.5, 50.0),
                            ellipse_axes=(30.0, 52.0)),
    )),
)
# crop pixel (71, 127) maps onto the left border: x = 0.0 in real arithmetic,
# -7.1e-15 in complex arithmetic
@example((20.0, 48.0), (110.0, 110.0), NormalizationConfig())
@settings(max_examples=30, deadline=None)
def test_normalize_matches_full_grid_complex_form(left, right, cfg):
    # only the pixels inside the mask are resampled, in real arithmetic;
    # intensities span 0..255, pixels stay within 1e-9 of the old form
    img = 255.0 * smooth_face()
    got = normalize_face(img, left, right, cfg)
    want = normalize_face_complex(img, left, right, cfg)
    assert got.shape == want.shape
    # the sampler steps from the edge pixel to 0 at the image border, so a
    # source point within rounding of it may read either
    source, (h, w) = normalize_source_complex(left, right, cfg), img.shape
    x, y = source.real, source.imag

    def within(pad):
        return (x >= -pad) & (x <= w - 1 + pad) & (y >= -pad) & (y <= h - 1 + pad)

    edge = bilinear_sample_2d(img, np.clip(x, 0.0, w - 1.0), np.clip(y, 0.0, h - 1.0))
    either = within(1e-9) & ~within(-1e-9) & ((np.abs(got - edge) <= 1e-9) | (got == 0.0))
    assert np.all((np.abs(got - want) <= 1e-9) | either)


def test_normalize_rejects_degenerate_eyes():
    img = smooth_face(64)
    with pytest.raises(DomainError):
        normalize_face(img, (10.0, 10.0), (10.0, 10.0))
    with pytest.raises(DomainError):
        normalize_face(img, (np.nan, 10.0), (30.0, 10.0))


def test_normalization_config_validation():
    with pytest.raises(ConfigError):
        NormalizationConfig(crop_width=1)
    with pytest.raises(ConfigError):
        NormalizationConfig(ellipse_axes=(0.0, 10.0))
    with pytest.raises(ConfigError):
        NormalizationConfig(left_eye_target=(-3.0, 5.0))
    with pytest.raises(ConfigError):
        NormalizationConfig(left_eye_target=(10.0, 10.0), right_eye_target=(10.0, 10.0))
