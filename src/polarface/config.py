"""Run configuration: defaults, INI config files, CLI overrides.

One table, `_SCHEMA`, lists every setting: its INI section and key, the
RunConfig field (inside a sub-config or not) it sets, the codec that
parses and renders its text, and whether it is part of the canonical
text.  Loading a file, applying overrides and rendering that text are
loops over the table.  RunConfig refuses every setting, and every
combination of settings, that cannot run, so each command that loads a
config applies the same refusals.

Config files are line-oriented `key = value` under `[section]` headers
('#' or ';' starts a comment line; '%' is an ordinary character).
Sections or keys missing from the table, `[DEFAULT]` included, are
rejected so typos fail loudly, and numbers must be finite.  The
canonical text lists the hashed settings, section by section with keys
in alphabetical order; its hash is embedded in output file names so
reruns with the same effective settings collide byte-for-byte.  The
output directory and worker count are execution details, not results,
and are left out of it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .dataset import NormalizationConfig
from .errors import ConfigError
from .evaluate import SplitSpec
from .features import DFTConfig, FBTConfig

MODES = ("fbt", "dft", "fused")
LAYOUTS = ("orl", "flat-manifest")
ORIENTATIONS = ("distance", "similarity")
EXPERIMENTS = (
    "error-rate",
    "learning-curve",
    "subject-curve",
    "cmc",
    "roc",
    "feature-map",
    "synth-oracle",
)
VERIFICATION_SCORES = ("posterior", "embedding")
# RunConfig field -> the values it may take
_CHOICES = {
    "mode": MODES,
    "layout": LAYOUTS,
    "score_orientation": ORIENTATIONS,
    "experiment": EXPERIMENTS,
    "verification_score": VERIFICATION_SCORES,
}
# curve experiment -> (config list of its points, SplitSpec field each
# point sets, point prefix in the experiment ids)
CURVES = {
    "learning-curve": ("k_values", "k_train", "k"),
    "subject-curve": ("subject_counts", "n_subjects", "n"),
}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run.  Settings that cannot run together are
    refused here, so any RunConfig that exists can run."""

    mode: str = "fbt"
    dataset: str = ""
    layout: str = "orl"
    normalize: bool = False
    out: str = "runs"
    workers: int = 1
    score_orientation: str = "distance"
    experiment: str = "error-rate"
    k_values: tuple[int, ...] = (1, 3, 5)
    subject_counts: tuple[int, ...] = ()
    verification_score: str = "posterior"
    fbt: FBTConfig = field(default_factory=FBTConfig)
    dft: DFTConfig = field(default_factory=DFTConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    normalization: NormalizationConfig = field(default_factory=NormalizationConfig)

    def __post_init__(self):
        for name, allowed in _CHOICES.items():
            if (value := getattr(self, name)) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not self.k_values:
            raise ConfigError("k_values must not be empty")
        # each curve point is a split of its own; refuse bad ones before any image is read
        for points, name, _ in CURVES.values():
            for value in getattr(self, points):
                try:
                    replace(self.split, **{name: value})
                except ConfigError as exc:
                    raise ConfigError(f"experiment.{points}: {exc}") from None
        if self.experiment == "subject-curve" and not self.subject_counts:
            raise ConfigError("subject-curve needs experiment.subject_counts")
        if self.mode == "fused" and self.experiment == "feature-map":
            raise ConfigError("feature-map needs a single spectrum mode (fbt or dft)")
        if self.mode == "fused" and self.experiment == "roc" and self.verification_score == "embedding":
            raise ConfigError("embedding verification needs a single spectrum mode")

    def split_specs(self) -> list[SplitSpec]:
        """The split specs the experiment draws: one per curve point, else [split]."""
        if self.experiment in CURVES:
            points, name, _ = CURVES[self.experiment]
            return [replace(self.split, **{name: v}) for v in getattr(self, points)]
        return [self.split]


class _Codec(NamedTuple):
    kind: str  # what the text must be, for error messages
    parse: Callable[[str], object]  # raises ValueError on bad text
    render: Callable[[object], str]


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _pair(text: str) -> tuple[float, float]:
    a, b = text.split(",")  # ValueError unless exactly two parts
    return (_finite(a), _finite(b))


def _num(x: float) -> str:
    return f"{x:.17g}"


_STR = _Codec("a string", str, str)
_BOOL = _Codec("a boolean", _bool, lambda v: "true" if v else "false")
_INT = _Codec("an integer", int, str)
_FLOAT = _Codec("a finite number", _finite, _num)
_PAIR = _Codec("two comma-separated finite numbers", _pair, lambda v: f"{_num(v[0])},{_num(v[1])}")
_INT_LIST = _Codec(
    "comma-separated integers",
    lambda text: tuple(int(part) for part in text.split(",")) if text else (),
    lambda v: ",".join(str(k) for k in v),
)
_OPT_INT = _Codec("an integer or empty", lambda text: int(text) if text else None, lambda v: "" if v is None else str(v))


class _Setting(NamedTuple):
    section: str
    key: str
    sub: str | None  # the RunConfig field holding the sub-config; None for RunConfig itself
    name: str  # the field it sets, also its override key
    codec: _Codec
    hashed: bool  # part of the canonical text


# In canonical-text order: sections as listed, keys alphabetical within each.
_SCHEMA = tuple(_Setting(*row) for row in (
    ("run", "dataset", None, "dataset", _STR, True),
    ("run", "layout", None, "layout", _STR, True),
    ("run", "mode", None, "mode", _STR, True),
    ("run", "normalize", None, "normalize", _BOOL, True),
    ("run", "out", None, "out", _STR, False),
    ("run", "score_orientation", None, "score_orientation", _STR, True),
    ("run", "workers", None, "workers", _INT, False),
    ("experiment", "k_values", None, "k_values", _INT_LIST, True),
    ("experiment", "subject_counts", None, "subject_counts", _INT_LIST, True),
    ("experiment", "type", None, "experiment", _STR, True),
    ("experiment", "verification_score", None, "verification_score", _STR, True),
    ("fbt", "angular_resolution", "fbt", "angular_resolution", _FLOAT, True),
    ("fbt", "max_order", "fbt", "max_order", _INT, True),
    ("fbt", "max_root", "fbt", "max_root", _INT, True),
    ("dft", "max_cycles", "dft", "max_cycles", _FLOAT, True),
    ("split", "k_train", "split", "k_train", _INT, True),
    ("split", "n_subjects", "split", "n_subjects", _OPT_INT, True),
    ("split", "repetitions", "split", "repetitions", _INT, True),
    ("split", "seed", "split", "seed", _INT, True),
    ("normalize", "crop_height", "normalization", "crop_height", _INT, True),
    ("normalize", "crop_width", "normalization", "crop_width", _INT, True),
    ("normalize", "ellipse_axes", "normalization", "ellipse_axes", _PAIR, True),
    ("normalize", "ellipse_center", "normalization", "ellipse_center", _PAIR, True),
    ("normalize", "left_eye_target", "normalization", "left_eye_target", _PAIR, True),
    ("normalize", "right_eye_target", "normalization", "right_eye_target", _PAIR, True),
))
_BY_KEY = {(s.section, s.key): s for s in _SCHEMA}


def _read_file(path) -> dict:
    """Field name -> parsed value, for every setting the file gives."""
    # '%' is a literal; and no line can name the section "\n", so a
    # [DEFAULT] header is an ordinary section, refused below.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from None
    values = {}
    for section in parser.sections():
        if not any(s.section == section for s in _SCHEMA):
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, text in parser[section].items():
            setting = _BY_KEY.get((section, key))
            if setting is None:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                values[setting.name] = setting.codec.parse(text)
            except ValueError:
                raise ConfigError(f"{section}.{key} must be {setting.codec.kind}, got {text!r}") from None
    return values


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid with a config file, overlaid with overrides.

    overrides is keyed by RunConfig field name (`repetitions`, not
    `split.repetitions`); a None value leaves the setting alone and a key
    that names no setting is ignored.  The merged settings build one
    RunConfig, so a file value that an override replaces is never judged.
    """
    values = {} if path is None else _read_file(path)
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    cfg, top, subs = RunConfig(), {}, {}
    for s in _SCHEMA:
        if s.name in values:
            (subs.setdefault(s.sub, {}) if s.sub else top)[s.name] = values[s.name]
    return replace(cfg, **top, **{sub: replace(getattr(cfg, sub), **kw) for sub, kw in subs.items()})


def resolved_text(cfg: RunConfig) -> str:
    """Canonical INI rendering of every result-relevant setting."""
    sections: dict[str, list[str]] = {}
    for s in _SCHEMA:
        if s.hashed:
            value = getattr(getattr(cfg, s.sub) if s.sub else cfg, s.name)
            sections.setdefault(s.section, [f"[{s.section}]"]).append(f"{s.key} = {s.codec.render(value)}")
    return "\n".join("\n".join(lines) + "\n" for lines in sections.values())


def config_hash(cfg: RunConfig) -> str:
    """Eight hex digits over the canonical text."""
    return hashlib.sha1(resolved_text(cfg).encode("utf-8")).hexdigest()[:8]
