"""Ordered density codes for grayscale images.

An image's normalized intensity is treated as a discrete probability
array; evaluating the inverse of its cumulative distribution at a fixed
Halton sequence yields an ordered point code whose spatial distribution
mirrors the image foreground. Because point order is inherited from the
sequence, two codes can be compared point for point, and fitting a
polynomial map between them gives a dissimilarity that is invariant to a
wide family of geometric transformations.
"""

from .bench import TimingModel, TimingSample, fit_model, run_grid
from .corpus import (
    CorpusSpec,
    WindWarp,
    check_warp_family,
    generate_corpus,
    generate_figure,
    identity_warp,
    load_corpus,
    sweep,
    warp_image,
    wind_warp_coefficients,
)
from .encoder import (
    DensityCode,
    EncodeParams,
    code_length,
    encode,
    invert,
    read_code_csv,
    write_code_csv,
)
from .image_io import (
    DensityField,
    GrayImage,
    NormalizedImage,
    Polarity,
    load_image,
    load_pgm,
    load_png,
    make_density_field,
    normalize,
    write_pgm,
)
from .matcher import (
    DissimilarityReport,
    all_powers,
    basis_matrix,
    delta_median,
    least_squares_fit,
)
from .quasirandom import QuasiSequence, first_primes, halton, radical_inverse

__version__ = "0.1.0"

__all__ = [
    "CorpusSpec",
    "DensityCode",
    "DensityField",
    "DissimilarityReport",
    "EncodeParams",
    "GrayImage",
    "NormalizedImage",
    "Polarity",
    "QuasiSequence",
    "TimingModel",
    "TimingSample",
    "WindWarp",
    "all_powers",
    "basis_matrix",
    "check_warp_family",
    "code_length",
    "delta_median",
    "encode",
    "first_primes",
    "fit_model",
    "generate_corpus",
    "generate_figure",
    "halton",
    "identity_warp",
    "invert",
    "least_squares_fit",
    "load_corpus",
    "load_image",
    "load_pgm",
    "load_png",
    "make_density_field",
    "normalize",
    "radical_inverse",
    "read_code_csv",
    "run_grid",
    "sweep",
    "warp_image",
    "wind_warp_coefficients",
    "write_code_csv",
    "write_pgm",
]
