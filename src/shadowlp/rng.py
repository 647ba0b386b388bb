"""Seeded randomness: streams, samplers, and smoothed-instance generation.

Every random quantity in the package flows through an RngStream, a
counter-based Philox generator keyed by (seed, stream).  Identical keys
reproduce identical draws bit-for-bit on every platform, and distinct
stream ids give statistically independent streams, so Monte Carlo trials
can own stream `base + trial_index` and run in any order or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NormViolation
from .instance import LPInstance

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream) pair naming one reproducible random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream (fresh generator) or a Generator (used in place).

    Pass a Generator when several dependent draws must advance one stream;
    pass an RngStream for a one-shot reproducible draw.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return rng.generator()


def gaussian_vector(rng, mean, sigma: float) -> np.ndarray:
    """mean + sigma * iid standard normals.  sigma = 0 returns mean exactly."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    gen = as_generator(rng)
    mean = np.asarray(mean, dtype=float)
    return mean + sigma * gen.standard_normal(mean.shape)


def uniform_sphere(rng, d: int, size: int | None = None) -> np.ndarray:
    """Uniform point(s) on S^{d-1}: a normalized standard Gaussian vector."""
    if d < 1:
        raise ValueError("d must be >= 1")
    gen = as_generator(rng)
    shape = (d,) if size is None else (size, d)
    return unit_rows(gen, gen.standard_normal(shape))


def unit_rows(gen: np.random.Generator, g: np.ndarray) -> np.ndarray:
    """Scale standard-normal draws g to unit length along the last axis, in
    place, and return g.

    This is uniform_sphere's normalization: a row whose norm is zero (an
    exact zero draw, or entries so small their squares underflow) is first
    redrawn from `gen`, so such a row advances the stream.
    """
    d = g.shape[-1]
    norms = _row_norms(g)
    # A zero draw has probability 0; resample defensively if it ever happens.
    while not norms.all():
        bad = (norms == 0.0).reshape(-1)
        g.reshape(-1, d)[bad] = gen.standard_normal((bad.sum(), d))
        norms = _row_norms(g)
    g /= norms
    return g


def _row_norms(g: np.ndarray) -> np.ndarray:
    """np.linalg.norm(g, axis=-1, keepdims=True), the same arithmetic
    without the wrapper's argument handling."""
    return np.sqrt(np.add.reduce(g * g, axis=-1, keepdims=True))


def exp_ball_sample(rng, d: int, size: int | None = None) -> np.ndarray:
    """Sample from the density proportional to e^{-||x||} on R^d.

    Direction uniform on the sphere, radius Gamma(d, 1); the k'th moment of
    the norm is (k+d-1)!/(d-1)!.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    gen = as_generator(rng)
    theta = uniform_sphere(gen, d, size=size)
    radius = gen.gamma(shape=float(d), scale=1.0, size=None if size is None else size)
    if size is None:
        return radius * theta
    return radius[:, None] * theta


def random_rotation(rng, d: int) -> np.ndarray:
    """Haar-random rotation in SO(d).

    QR of a Gaussian matrix with the R-diagonal sign fixed gives Haar on O(d);
    when the determinant is -1, negating one column lands in SO(d).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    gen = as_generator(rng)
    g = gen.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


@dataclass(frozen=True)
class SmoothedInstance:
    """An LP instance together with its unperturbed data and recorded noise."""

    abar: np.ndarray
    bbar: np.ndarray
    sigma: float
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a_draws: np.ndarray = field(repr=False)
    b_draws: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def lp(self) -> LPInstance:
        return LPInstance(A=self.A, b=self.b, c=self.c)


def smoothed_instance(rng, abar, bbar, c, sigma: float) -> SmoothedInstance:
    """Perturb (abar, bbar) with iid N(0, sigma^2) entries.

    Rows of the combined matrix (abar, bbar) must have Euclidean norm at
    most 1.
    """
    abar = np.asarray(abar, dtype=float)
    bbar = np.asarray(bbar, dtype=float)
    c = np.asarray(c, dtype=float)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    combined = np.linalg.norm(np.column_stack([abar, bbar]), axis=1)
    worst = combined.max()
    if worst > 1.0 + 1e-12:
        raise NormViolation(f"combined row norm {worst:.6f} exceeds 1")
    gen = as_generator(rng)
    A = abar + sigma * gen.standard_normal(abar.shape)
    b = bbar + sigma * gen.standard_normal(bbar.shape)
    # record the effective perturbation so A - abar == a_draws holds exactly
    return SmoothedInstance(
        abar=abar,
        bbar=bbar,
        sigma=float(sigma),
        A=A,
        b=b,
        c=c,
        a_draws=A - abar,
        b_draws=b - bbar,
    )
