"""Full corpus run: extract, mean, similarity, heatmap.

Writes a tiny synthetic corpus (a clip, its byte-identical duplicate, and
an unrelated noise clip) to a temp directory, runs the checkpointed
pipeline, and prints the resulting scores. The duplicate pair scores
exactly 1.0. Each run uses a fresh temp directory, so it computes every
stage; `potsim run` against a kept output directory skips completed tasks.
"""

import tempfile
from pathlib import Path

import numpy as np

from potsim import PipelineConfig, run_pipeline
from potsim.cli import render_heatmap
from potsim.frames import encode_pgm


def blob_clip(n_frames, size, start, velocity):
    y, x = np.mgrid[0:size, 0:size].astype(float)
    frames = np.empty((n_frames, size, size))
    cx, cy = start
    for t in range(n_frames):
        frames[t] = 255.0 * np.exp(
            -((x - cx - velocity[0] * t) ** 2 + (y - cy - velocity[1] * t) ** 2) / 72.0
        )
    return frames


def noise_clip(n_frames, size, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 255, size=(n_frames, size, size))


def write_corpus(root: Path) -> Path:
    clips = {
        "clip_a": blob_clip(8, 64, (16, 32), (2.0, 0.0)),
        "clip_a_copy": blob_clip(8, 64, (16, 32), (2.0, 0.0)),
        "unrelated": noise_clip(8, 64, seed=7),
    }
    lines = []
    for key, frames in clips.items():
        clip_dir = root / key
        clip_dir.mkdir(parents=True)
        for i, frame in enumerate(frames):
            (clip_dir / f"frame{i:04d}.pgm").write_bytes(encode_pgm(frame))
        lines.append(f"{key},{key}")
    manifest = root / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = write_corpus(root / "corpus")
        config = PipelineConfig(
            manifest=str(manifest),
            out_dir=str(root / "results"),
            working_w=64,
            working_h=64,
            workers=2,
        )
        sim_path = run_pipeline(config)

        print(f"\n{sim_path.name}:")
        print(sim_path.read_text(encoding="utf-8"))

        pgm, keys = render_heatmap(sim_path, root / "results" / "heatmap")
        print(f"heatmap written to {pgm.name} (key order in {keys.name})")


if __name__ == "__main__":
    main()
