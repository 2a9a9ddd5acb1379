"""Ordered density codes for grayscale images.

An image's normalized intensity is treated as a discrete probability
array; evaluating the inverse of its cumulative distribution at a fixed
Halton sequence yields an ordered point code whose spatial distribution
mirrors the image foreground. Because point order is inherited from the
sequence, two codes can be compared point for point, and fitting a
polynomial map between them gives a dissimilarity that is invariant to a
wide family of geometric transformations.

Submodules load on first use: ``import densitycode`` loads none of them,
and ``densitycode.encode`` imports :mod:`densitycode.encoder` alone.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bench": ("TimingModel", "TimingSample", "fit_model", "run_grid"),
    "corpus": (
        "CorpusSpec",
        "WindWarp",
        "check_warp_family",
        "generate_corpus",
        "generate_figure",
        "load_corpus",
        "sweep",
        "warp_image",
        "wind_warp_coefficients",
    ),
    "encoder": (
        "DensityCode",
        "EncodeParams",
        "Polarity",
        "code_length",
        "encode",
        "invert",
        "read_code_csv",
        "write_code_csv",
    ),
    "image_io": (
        "DensityField",
        "GrayImage",
        "NormalizedImage",
        "density_field",
        "load_image",
        "load_pgm",
        "load_png",
        "make_density_field",
        "normalize",
        "write_pgm",
    ),
    "matcher": (
        "DissimilarityReport",
        "all_powers",
        "basis_matrix",
        "delta_median",
        "least_squares_fit",
    ),
    "quasirandom": ("QuasiSequence", "halton"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # resolved on every access, never cached here: a name patched in its
    # submodule (and restored later) is what the package hands out
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _MODULE_OF[name]  # an imported submodule is a package global
    found = globals().get(module) or importlib.import_module(f".{module}", __name__)
    return getattr(found, name)


def __dir__():
    return sorted({*globals(), *__all__})
