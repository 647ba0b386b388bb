"""Seeded randomness: streams, samplers, and smoothed-instance generation.

Every random quantity in the package flows through an RngStream, a
counter-based Philox generator keyed by (seed, stream).  Identical keys
reproduce identical draws bit-for-bit on every platform, and distinct
stream ids give statistically independent streams, so Monte Carlo trials
can own stream `base + trial_index` and run in any order or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # a mask over g's leading axes writes into g itself, strided or not
        bad = norms[..., 0] == 0.0
        g[bad] = gen.standard_normal((bad.sum(), d))
        norms = _row_norms(g)
    g /= norms
    return g


def _row_norms(g: np.ndarray) -> np.ndarray:
    """np.linalg.norm(g, axis=-1, keepdims=True), bit for bit."""
    return np.sqrt(_squared_norms(g))[..., None]


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x * x, axis=-1) (np.linalg.norm's sum), bit for bit.

    numpy reduces an axis of fewer than 8 elements one element after
    another, so for d < 8 the columns' squares summed in order give the same
    bits, with one whole-array product and add per column instead of one
    inner-loop call per row: a row norm of 4,096 x 3 takes 25 us against
    106 us, of 200,000 x 3 1.5 against 4.8 ms (one x86-64 core).  From 8
    elements on numpy sums in 8-way pairwise blocks, whose rounding the
    column order does not reproduce, so d >= 8 keeps np.add.reduce.
    """
    d = x.shape[-1]
    if d >= 8:
        return np.add.reduce(x * x, axis=-1)
    col = x[..., 0]
    out = col * col
    for j in range(1, d):
        col = x[..., j]
        out += col * col
    return out


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
class SmoothedInstance(LPInstance):
    """An LP whose A and b are abar + sigma G and bbar + sigma g; sigma is a
    record kept about it (solve sizes its artificial noise by it)."""

    sigma: float

    def lp(self) -> LPInstance:
        return LPInstance(A=self.A, b=self.b, c=self.c)


def smoothed_instance(rng, abar, bbar, c, sigma: float) -> SmoothedInstance:
    """Perturb (abar, bbar) with iid N(0, sigma^2) entries.

    Rows of the combined matrix (abar, bbar) must have Euclidean norm at
    most 1.
    """
    abar = np.asarray(abar, dtype=float)
    bbar = np.asarray(bbar, dtype=float)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    worst = np.linalg.norm(np.column_stack([abar, bbar]), axis=1).max()
    if worst > 1.0 + 1e-12:
        raise NormViolation(f"combined row norm {worst:.6f} exceeds 1")
    gen = as_generator(rng)
    A = abar + sigma * gen.standard_normal(abar.shape)
    b = bbar + sigma * gen.standard_normal(bbar.shape)
    return SmoothedInstance(A=A, b=b, c=c, sigma=float(sigma))
