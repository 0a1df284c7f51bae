"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (so the whole suite runs in a few minutes) and prints the resulting
rows/series, so running

    pytest benchmarks/ --benchmark-only -s

both times the harnesses and reproduces the paper's outputs.  The scale can
be raised with the environment variables below for a closer match to the
paper's sizes.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import ExperimentConfig
from repro.tiles import ProcessGrid


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Scale knobs for the benchmark harnesses.

    ``REPRO_BENCH_TILES`` controls the numerical matrix size (in tiles of
    ``REPRO_BENCH_NB``); ``REPRO_BENCH_PAPER_TILES`` controls the size of
    the simulated paper-scale replay (84 tiles of 240 = the paper's
    N = 20,160).
    """
    return ExperimentConfig(
        n_tiles=_env_int("REPRO_BENCH_TILES", 12),
        tile_size=_env_int("REPRO_BENCH_NB", 8),
        paper_n_tiles=_env_int("REPRO_BENCH_PAPER_TILES", 42),
        paper_tile_size=240,
        grid=ProcessGrid(4, 4),
        samples=_env_int("REPRO_BENCH_SAMPLES", 2),
        seed=20140401,
    )
