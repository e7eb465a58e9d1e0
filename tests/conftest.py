"""Shared synthetic-corpus and feature helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from potsim.frames import encode_pgm
from potsim.pooling import slot_bounds


def gaussian_blob(cx: float, cy: float, size: int, sigma: float = 6.0, peak: float = 255.0) -> np.ndarray:
    y, x = np.mgrid[0:size, 0:size].astype(float)
    return peak * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))


def smooth_texture(size: int, seed: int, smoothing: float = 3.0) -> np.ndarray:
    """Periodic smooth random texture centered around mid-gray."""
    rng = np.random.default_rng(seed)
    base = gaussian_filter(rng.normal(size=(size, size)), smoothing, mode="wrap")
    return 128.0 + 110.0 * base / np.abs(base).max()


def blob_video(n_frames: int, size: int, start: tuple[float, float], velocity: tuple[float, float], sigma: float = 6.0) -> np.ndarray:
    """Frames of a Gaussian blob moving at constant velocity."""
    frames = np.empty((n_frames, size, size))
    cx, cy = start
    vx, vy = velocity
    for t in range(n_frames):
        frames[t] = gaussian_blob(cx + vx * t, cy + vy * t, size, sigma=sigma)
    return frames


def noise_video(n_frames: int, size: int, seed: int) -> np.ndarray:
    """Independent smoothed-noise frames (no coherent motion)."""
    rng = np.random.default_rng(seed)
    frames = np.empty((n_frames, size, size))
    for t in range(n_frames):
        frames[t] = np.clip(
            128 + 100 * gaussian_filter(rng.normal(size=(size, size)), 1.5), 0, 255
        )
    return frames


def write_video_dir(directory: Path, frames: np.ndarray) -> Path:
    """Write frames as zero-padded .pgm files into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        (directory / f"frame{i:04d}.pgm").write_bytes(encode_pgm(frame))
    return directory


def write_corpus(root: Path, videos: dict[str, np.ndarray]) -> Path:
    """Write videos and a manifest; returns the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for key, frames in videos.items():
        write_video_dir(root / key, frames)
        lines.append(f"{key},{key}")
    manifest = root / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def slots_of(feature: np.ndarray) -> list[np.ndarray]:
    """The six slots of a feature vector in SLOTS order, as views."""
    bounds = slot_bounds(len(feature))
    return [feature[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
