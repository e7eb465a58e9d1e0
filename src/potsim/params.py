"""
The settings a run is configured by and their defaults, without numpy.

The CLI builds its parser from this module alone, so ``potsim --help``,
a subcommand's ``--help`` and a usage error load no numpy. Each default is
defined here once; the modules that use it import it from here
(``layout.PipelineConfig``'s defaults, ``pooling.DEFAULT_LEVELS``,
``descriptors.DEFAULT_HOG_THRESHOLD``, ``flow.FarnebackParams``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_WORKING_RESOLUTION = (128, 128)
DEFAULT_LEVELS = (1, 2, 4)
DEFAULT_HOG_THRESHOLD = 40.0


def default_workers() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a job pinned with ``taskset`` gets one worker per
    CPU it was given), else every CPU of the host."""
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        return len(sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class FarnebackParams:
    """Tuning knobs for the pyramidal polynomial-expansion flow.
    ``validate`` checks each knob's range; ``flow.validate_params`` also
    checks that the expansion's window has a fit, which takes numpy."""

    pyr_scale: float = 0.5
    levels: int = 3
    winsize: int = 15
    iterations: int = 3
    poly_n: int = 5
    poly_sigma: float = 1.1

    def validate(self) -> None:
        if not 0.0 < self.pyr_scale < 1.0:
            raise ValueError(f"pyr_scale must be in (0, 1), got {self.pyr_scale}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.winsize < 3 or self.winsize % 2 == 0:
            raise ValueError(f"winsize must be odd and >= 3, got {self.winsize}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.poly_n < 3 or self.poly_n % 2 == 0:
            raise ValueError(f"poly_n must be odd and >= 3, got {self.poly_n}")
        if not self.poly_sigma > 0.0:  # also rejects NaN
            raise ValueError(f"poly_sigma must be > 0, got {self.poly_sigma}")
