"""Reproducible named random streams.

Every stochastic component draws from its own stream, derived from the
scenario seed and a stable name, so that changing one component's draw
pattern (e.g. adding a new operation type) does not perturb the others —
the standard variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

import hashlib
import math
import random


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent, reproducibly-seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one's."""
        return RandomStreams(_derive_seed(self.seed, f"spawn:{name}"))


def exponential(rng: random.Random, mean: float) -> float:
    """Exponential variate with the given mean (mean <= 0 returns 0)."""
    if mean <= 0:
        return 0.0
    return rng.expovariate(1.0 / mean)


def lognormal_from_median(rng: random.Random, median: float, sigma: float) -> float:
    """Lognormal variate parameterized by its median and shape ``sigma``.

    Operation service times in management planes are heavy-tailed; the
    companion ISCA'10 study reports latency distributions well described by
    a lognormal body. Parameterizing by the median keeps profiles readable.
    """
    if median <= 0:
        return 0.0
    return median * math.exp(rng.gauss(0.0, sigma))


def bounded(value: float, low: float, high: float) -> float:
    """Clamp a variate into [low, high]."""
    return max(low, min(high, value))


def service_time(rng: random.Random, median: float, sigma: float) -> float:
    """Service draw of the CPU, DB and host-agent models, in one call:
    ``bounded(lognormal_from_median(...), median * 0.25, median * 10)``."""
    value = 0.0 if median <= 0 else median * math.exp(rng.gauss(0.0, sigma))
    return max(median * 0.25, min(median * 10.0, value))


def pareto(rng: random.Random, shape: float, scale: float) -> float:
    """Pareto variate (heavy tail for VM lifetimes)."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    return scale * (rng.random() ** (-1.0 / shape))
