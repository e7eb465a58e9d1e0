"""Pairwise video similarity from pooled time series of optical-flow and
gradient histograms, computed by a local parallel, checkpointable pipeline."""

from .archive import ArchiveRecord, read_archive, write_archive
from .descriptors import compute_series, hof_frame, hog_frame
from .engine import (
    ConfigError,
    PipelineConfig,
    StageError,
    run_extract,
    run_mean,
    run_pipeline,
    run_similarity,
)
from .flow import FarnebackParams, farneback_flow, poly_expand
from .frames import (
    decode_pgm,
    decode_ppm_to_gray,
    encode_pgm,
    load_frame_sequence,
    resize_bilinear,
)
from .pooling import build_intervals, pot_vector, slot_bounds
from .similarity import (
    MeanCsd,
    chi_square,
    csd_sixtuple,
    kernel_distance,
    mean_csd,
    similarity_score,
)

__version__ = "0.1.0"

__all__ = [
    "ArchiveRecord",
    "ConfigError",
    "FarnebackParams",
    "MeanCsd",
    "PipelineConfig",
    "StageError",
    "build_intervals",
    "chi_square",
    "compute_series",
    "csd_sixtuple",
    "decode_pgm",
    "decode_ppm_to_gray",
    "encode_pgm",
    "farneback_flow",
    "hof_frame",
    "hog_frame",
    "kernel_distance",
    "load_frame_sequence",
    "mean_csd",
    "poly_expand",
    "pot_vector",
    "read_archive",
    "resize_bilinear",
    "run_extract",
    "run_mean",
    "run_pipeline",
    "run_similarity",
    "similarity_score",
    "slot_bounds",
    "write_archive",
]
