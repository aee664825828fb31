"""Seeded generators for the Gaussian synthetic benchmarks.

Two families are provided: a binary-group model with fixed group weights and
positive rates and uniformly drawn stratum means, and a multi-class model
with group weights proportional to sqrt(group index + 1), positive rates
drawn uniformly, and signed unit-vector means.  All randomness flows through
``numpy.random.default_rng`` (PCG64), whose stream is stable across platforms
for a fixed seed, so populations and samples are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, _row_chunks
from .gaussian import GaussianPopulation

FAMILIES = ("binary", "multiclass")
# 1.0 - 0.7 is 0.30000000000000004, not 0.3: the weight every binary population has had
BINARY_P_A = (1.0 - 0.7, 0.7)
BINARY_P_YA = (0.4, 0.7)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic population draw; the family fixes the rest."""

    family: str
    n_groups: int
    dim: int
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n_groups < 2:
            raise ValueError("need at least two groups")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family == "multiclass" and self.dim < self.n_groups:
            raise ValueError("signed unit vectors need dim >= n_groups")

    @classmethod
    def binary(cls, dim=10, sigma=1.0, seed=0) -> "SynthSpec":
        """Two-group benchmark: p_1=0.7, p_{Y,1}=0.7, p_{Y,0}=0.4."""
        return cls("binary", 2, dim, sigma, seed)

    @classmethod
    def multiclass(cls, n_groups, sigma, seed=0) -> "SynthSpec":
        """Multi-group benchmark in n_groups dimensions: p_a proportional to sqrt(a) for a = 1..K."""
        return cls("multiclass", n_groups, n_groups, sigma, seed)


def draw_population(spec: SynthSpec) -> GaussianPopulation:
    """Materialize the population for a spec; deterministic given the seed.

    The binary family draws its stratum means from the seed, the multiclass
    family its positive rates.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.family == "binary":
        p_a, p_ya = BINARY_P_A, BINARY_P_YA
        mu = rng.uniform(0.0, 1.0, size=(spec.n_groups, 2, spec.dim))
    else:
        weights = np.sqrt(np.arange(1, spec.n_groups + 1, dtype=np.float64))
        p_a = weights / weights.sum()
        # keep rates usable by the posterior formulas
        p_ya = np.clip(rng.uniform(0.0, 1.0, size=spec.n_groups), 1e-6, 1.0 - 1e-6)
        mu = np.zeros((spec.n_groups, 2, spec.dim))
        for a in range(spec.n_groups):
            mu[a, :, a] = (-1.0, 1.0)
    return GaussianPopulation(p_a=p_a, p_ya=p_ya, mu=mu, sigma=spec.sigma)


def sample(pop: GaussianPopulation, n: int, seed: int) -> Dataset:
    """Draw n rows: A ~ p_a, Y | A ~ p_ya, X | A,Y ~ N(mu[a,y], sigma^2 I)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.choice(pop.n_groups, size=n, p=pop.p_a)
    y = (rng.random(n) < pop.p_ya[a]).astype(np.int64)
    x = rng.standard_normal((n, pop.dim))
    x *= pop.sigma
    # addition commutes, so adding the means a row chunk at a time gives the
    # bits of mu[a, y] + sigma * noise without an n x dim gather
    for rows in _row_chunks(n):
        x[rows] += pop.mu[a[rows], y[rows]]
    for arr in (x, a, y):
        arr.setflags(write=False)  # so that Dataset adopts them
    return Dataset(features=x, group=a, label=y, n_groups=pop.n_groups)
