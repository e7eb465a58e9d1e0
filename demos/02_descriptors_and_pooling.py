"""From frames to the pooled per-video feature.

Builds a short synthetic clip of a moving blob, computes the HoF and HoG
histogram series, and pools them over the temporal pyramid into the
feature used for similarity scoring: one vector holding six slots.
"""

import numpy as np

from potsim import compute_series, pot_vector, slot_bounds
from potsim.flow import FarnebackParams
from potsim.pooling import SLOTS


def moving_blob_clip(n_frames=10, size=64, velocity=(1.5, 0.0)):
    y, x = np.mgrid[0:size, 0:size].astype(float)
    frames = np.empty((n_frames, size, size))
    for t in range(n_frames):
        cx, cy = 16 + velocity[0] * t, 32 + velocity[1] * t
        frames[t] = 255.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 50.0)
    return frames


def main():
    frames = moving_blob_clip()
    hof, hog = compute_series(frames, FarnebackParams())
    print(f"frames: {len(frames)}, series length: {len(hof)}")
    print(f"HoF mass per frame pair: {hof.sum(axis=1).round(1)}")
    print(f"HoG mass per frame pair: {hog.sum(axis=1).round(1)}")

    feature = pot_vector(hof, hog, levels=(1, 2, 4))
    bounds = slot_bounds(len(feature))
    print(f"\npooled vector: {len(feature)} values; slot dimensions (K = 7 intervals):")
    for (series, pooling), lo, hi in zip(SLOTS, bounds, bounds[1:]):
        print(f"  {series}/{pooling}: {hi - lo}")


if __name__ == "__main__":
    main()
