"""Small statistics the benchmark reports, kept apart so tests can pin
them down."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`TAIL_SAMPLES` samples lie beyond it, so p95 needs 200
    samples and p50 needs 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    beyond = math.floor(n * (100 - q) / 100 + 1e-9)
    if beyond < TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; {n} samples"
            f" leave {beyond}"
        )
    ordered = sorted(values)
    rank = math.ceil(n * q / 100 - 1e-9)
    return ordered[max(0, rank - 1)]


def error_rate(attempted: int, failed: int) -> float:
    """Failed or refused operations over attempted ones."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted

