"""Polar-frequency face recognition.

Images are resampled onto a polar grid and described by the moduli of
polar-frequency spectra, either a Fourier-Bessel transform or a polar
sampling of the 2-D DFT magnitude plane.  Recognition happens in a
dissimilarity space over the gallery, with a pseudoinverse Fisher
linear discriminant per subject and optional max-rule fusion of the
two spectra.
"""

from .bessel import bessel_j, bessel_roots, build_root_table
from .classifier import (
    TrainedModel,
    classify,
    dissimilarity_matrix,
    fuse_max,
    train_pfld,
)
from .config import RunConfig, config_hash, load_run_config, resolved_text
from .dataset import (
    Dataset,
    DatasetEntry,
    NormalizationConfig,
    face_mask,
    load_dataset_dir,
    load_pgm,
    normalize_face,
    save_pgm,
)
from .errors import ConfigError, DatasetError, DomainError, ParseError, PolarFaceError
from .evaluate import (
    CMCCurve,
    EERResult,
    ROCCurve,
    SplitSpec,
    cmc,
    embedding_matrix,
    equal_error_rate,
    per_feature_error_rates,
    random_split,
    run_error_experiment,
    score_matrix,
    verification_pairs,
    verification_roc,
)
from .features import (
    DFTConfig,
    DFTOperator,
    FBSpectrum,
    FBTConfig,
    FBTOperator,
    FeatureTable,
    FeatureVector,
    apply_operators,
    dft_feature_columns,
    dft_feature_frequencies,
    dft_features,
    dft_error_map,
    dft_magnitude,
    dft_operator,
    extract_dft,
    fbt,
    fbt_error_map,
    fbt_features,
    fbt_operator,
    synth_angular,
    synth_mix,
    synth_radial,
)
from .polar import PolarGrid, bilinear_sample, to_polar

__version__ = "0.1.0"
