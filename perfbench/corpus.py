"""Seeded corpus builders for the benchmark workloads.

Each builder writes a corpus under ``root`` and returns a ``Corpus`` that
says how to run the pipeline on it and which outputs to expect. The same
seed always gives byte-identical inputs. Frame generators are the test
suite's own (``tests/conftest.py``), loaded by path so that no installed
``tests`` package can shadow them.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_generators():
    path = REPO_ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("potsim_test_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_generators()


@dataclass
class Corpus:
    """A generated workload input and what a correct run must produce."""

    manifest: Path
    keys: list[str]
    # sum over videos of (frames - 1): the frame pairs extract computes flow on
    frame_pairs: int
    # extra CLI flags every stage invocation of this workload passes
    cli_args: list[str] = field(default_factory=list)
    # key pairs (a < b) whose videos are byte-identical: must score exactly 1.0
    duplicate_pairs: list[tuple[str, str]] = field(default_factory=list)

    @property
    def pair_count(self) -> int:
        n = len(self.keys)
        return n * (n - 1) // 2


def _write_manifest(root: Path, keys: list[str]) -> Path:
    manifest = root / "manifest.txt"
    manifest.write_text("".join(f"{key},{key}\n" for key in keys))
    return manifest


EXTRACT_FRAMES = 16


def build_extract_128(root: Path, seed: int) -> Corpus:
    """The acceptance suite's criterion-10 corpus with seeded geometry and
    16 frames per video instead of 30, so that several rounds fit one run:
    20 videos x 16 frames of 128x128 PGM, 15 moving blobs and 5 noise."""
    rng = np.random.default_rng([seed, 128])
    videos = {}
    for i in range(20):
        key = f"clip{i:02d}"
        if i % 4 == 3:
            videos[key] = gen.noise_video(EXTRACT_FRAMES, 128, seed=int(rng.integers(2**31)))
        else:
            start = tuple(rng.uniform(16.0, 80.0, size=2))
            velocity = tuple(rng.uniform(0.5, 2.0, size=2))
            videos[key] = gen.blob_video(EXTRACT_FRAMES, 128, start, velocity, sigma=8.0)
    manifest = gen.write_corpus(root, videos)
    return Corpus(manifest=manifest, keys=sorted(videos), frame_pairs=20 * (EXTRACT_FRAMES - 1))


WIDE_VIDEOS = 146
WIDE_DUPLICATES = 4
WIDE_LENGTHS = range(6, 11)
WIDE_W, WIDE_H = 320, 240


def _wide_video(rng: np.random.Generator, n_frames: int) -> list[bytes]:
    """A panning colour texture with a moving blob, 320x240 PPM frames.

    Both layers move by whole pixels per frame (with wrap-around), so each
    frame is two rolls and an add of precomputed 8-bit-range layers.
    """
    texture = gen.smooth_texture(WIDE_W, int(rng.integers(2**31)), smoothing=12.0)
    tint = rng.uniform(0.4, 1.0, size=3)
    background = np.rint(0.5 * texture[:WIDE_H, :, None] * np.ones(3)).astype(np.uint16)
    blob = gen.gaussian_blob(
        rng.uniform(60.0, 260.0), rng.uniform(60.0, 180.0), WIDE_W, sigma=28.0
    )[:WIDE_H]
    blob = np.rint(blob[:, :, None] * tint).astype(np.uint16)
    pan = rng.integers(-6, 7, size=2)
    motion = rng.integers(-12, 13, size=2)
    header = f"P6\n{WIDE_W} {WIDE_H}\n255\n".encode()
    frames = []
    for t in range(n_frames):
        rgb = np.roll(background, (pan[1] * t, pan[0] * t), axis=(0, 1))
        rgb += np.roll(blob, (motion[1] * t, motion[0] * t), axis=(0, 1))
        frames.append(header + np.minimum(rgb, 255).astype(np.uint8).tobytes())
    return frames


def build_wide_32(root: Path, seed: int) -> Corpus:
    """150 short colour videos (146 distinct + 4 byte-identical copies),
    6-10 frames of 320x240 PPM, scored at --resize 32x32.

    Video lengths are a seeded shuffle of a fixed multiset and the copies
    are of 8-frame videos, so every seed has the same total frame count
    and the same amount of work.
    """
    rng = np.random.default_rng([seed, 32])
    lengths = [WIDE_LENGTHS[i % len(WIDE_LENGTHS)] for i in range(WIDE_VIDEOS)]
    rng.shuffle(lengths)
    keys = []
    frame_pairs = 0
    for i, n_frames in enumerate(lengths):
        key = f"w{i:03d}"
        directory = root / key
        directory.mkdir(parents=True)
        for t, data in enumerate(_wide_video(rng, n_frames)):
            (directory / f"frame{t:04d}.ppm").write_bytes(data)
        keys.append(key)
        frame_pairs += n_frames - 1
    duplicates = []
    eight_frames = [i for i, n in enumerate(lengths) if n == 8]
    for i in sorted(rng.choice(eight_frames, size=WIDE_DUPLICATES, replace=False)):
        source, copy = f"w{i:03d}", f"w{i:03d}copy"
        shutil.copytree(root / source, root / copy)
        keys.append(copy)
        frame_pairs += lengths[i] - 1
        duplicates.append((source, copy))
    keys.sort()
    return Corpus(
        manifest=_write_manifest(root, keys),
        keys=keys,
        frame_pairs=frame_pairs,
        cli_args=["--resize", "32x32"],
        duplicate_pairs=duplicates,
    )


def build(workload: str, root: Path, seed: int) -> Corpus:
    """Write the corpus of ``workload`` and flush it to disk, so that no
    write-back of the inputs runs while stages are timed."""
    corpus = BUILDERS[workload](root, seed)
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    return corpus


BUILDERS = {
    "extract-128": build_extract_128,
    "wide-32": build_wide_32,
}
