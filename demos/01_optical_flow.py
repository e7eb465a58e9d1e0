"""Recover a known translation with the polynomial-expansion flow.

Renders a Gaussian blob, shifts it 3 pixels to the right, and checks that
the estimated flow over textured pixels matches the ground truth.
"""

import numpy as np

from potsim import FarnebackParams, farneback_flow


def gaussian_blob(cx, cy, size=128, sigma=6.0):
    y, x = np.mgrid[0:size, 0:size].astype(float)
    return 255.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))


def main():
    prev = gaussian_blob(60, 64)
    nxt = gaussian_blob(63, 64)

    u, v = farneback_flow(prev, nxt, FarnebackParams())

    gy, gx = np.gradient(prev)
    textured = np.hypot(gx, gy) > 5.0
    print(f"textured pixels: {textured.sum()}")
    print(f"mean u (expected 3.0): {u[textured].mean():+.4f}")
    print(f"mean v (expected 0.0): {v[textured].mean():+.4f}")

    still_u, still_v = farneback_flow(prev, prev)
    print(f"zero-motion max |flow|: {np.abs([still_u, still_v]).max():.2e}")


if __name__ == "__main__":
    main()
