"""Pairwise video similarity from pooled time series of optical-flow and
gradient histograms, computed by a local parallel, checkpointable pipeline.

The public names resolve on first use (PEP 562), so ``import potsim``
loads no numpy: a command that only parses its arguments stays cheap.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "ArchiveRecord": "archive",
    "ConfigError": "layout",
    "FarnebackParams": "params",
    "MeanCsd": "similarity",
    "PipelineConfig": "layout",
    "StageError": "layout",
    "build_intervals": "pooling",
    "chi_square": "similarity",
    "compute_series": "descriptors",
    "csd_sixtuple": "similarity",
    "decode_pgm": "frames",
    "decode_ppm_to_gray": "frames",
    "encode_pgm": "frames",
    "farneback_flow": "flow",
    "hof_frame": "descriptors",
    "hog_frame": "descriptors",
    "kernel_distance": "similarity",
    "load_frame_sequence": "frames",
    "mean_csd": "similarity",
    "poly_expand": "flow",
    "pot_vector": "pooling",
    "read_archive": "archive",
    "resize_bilinear": "frames",
    "run_extract": "engine",
    "run_mean": "engine",
    "run_pipeline": "engine",
    "run_similarity": "engine",
    "similarity_score": "stage",
    "slot_bounds": "pooling",
    "write_archive": "archive",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # a name outside the table raises, so ``from potsim import engine``
    # falls through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
