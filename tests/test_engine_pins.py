"""Pin the engine's behaviour on fixed seeded solves.

The expected values were recorded before the pivot kernels were vectorized
and the phase-2 walk was folded into `run_shadow_path`.  A later change that
alters a pivot path or the bases visited fails here, not only in the
benchmark's fingerprint.  Integers (pivots by phase, the `make_basis` index
sequence, the outcome's basis or certificate support) are pinned exactly;
the outcome's floats go through BLAS and LAPACK, whose kernels vary with the
CPU in the last bits, so they are pinned to a relative 1e-12.
"""

import hashlib

import numpy as np
import pytest

from helpers import mixed_instance
from shadowlp import experiments, simplex, solver
from shadowlp.rng import RngStream


def _ball(sigma, stream):
    gen = RngStream(2026, stream).generator()
    return experiments.scaling_instance(gen, 10, 500, sigma, "ball"), gen


def _mixed(sigma, stream):
    gen = RngStream(2027, stream).generator()
    return mixed_instance(gen, 10, 500, sigma), gen


# (instance family, sigma, stream, outcome kind, pivots by phase,
#  optimal basis or certificate support, x or the certificate on its support,
#  sha256 of the make_basis index sequence)
PINNED = [
    (_ball, 0.01, 0, "optimal", (45, 0, 25),
     [81, 146, 154, 161, 166, 184, 240, 335, 351, 423],
     [0.5185228746571439, 0.3029677928015359, 0.22909215186247003, 0.4726493259790654,
      0.4728387131119805, 0.5347867777322453, -0.24218186707382422, -0.5627635739908089,
      -0.0544533886901234, 0.8580820389707434],
     "fcaba46b6be86880e1a4cfbabf4a18540a38c724d7ab24e819c96e57f18c0495"),
    (_ball, 0.05, 1, "optimal", (34, 1, 40),
     [61, 104, 244, 329, 378, 394, 434, 462, 470, 483],
     [0.28025647320069036, -0.025055020570886696, 0.11714609725735622, 0.5486878964231026,
      -0.019187099625671132, -0.13772797621587454, 0.6806455780027749, -0.16905834625738245,
      0.3366208355518003, 1.0389771036590605],
     "214cc8e2d976e85db3c83704dde45456309a610f1d6628edb6cb63cf58e6fcaa"),
    (_ball, 0.2, 2, "optimal", (58, 19, 28),
     [58, 108, 177, 212, 220, 289, 309, 342, 382, 459],
     [0.4682434551603764, 0.22856058765296247, 0.40963953247231116, -0.18832994692842092,
      -0.09654937611212094, 0.2584814381064166, 0.28542529284122525, -0.17759583572269425,
      0.41536007936920083, -0.01278899206343724],
     "23986e50e30cb7ee02aac2d05cc65293e8495d22f4dd031d78135e7f5d77a226"),
    (_mixed, 0.05, 0, "infeasible", (27, 35, 0),
     [22, 45, 59, 202, 211, 245, 262, 284, 298, 426, 447],
     [0.01281026849472288, 0.10932897156216008, 0.014100577456110435, 0.073390164829459,
      0.021581948745629034, 0.14119764789917214, 0.053629599104551555, 0.028280929073580496,
      0.0945970932809317, 0.25763039946921373, 0.07018112273871618],
     "b18a4c1a49ff3abfa80aa627dac980a44cda7e908f4817bcebfd1eeb0ea5fcdc"),
]


@pytest.mark.parametrize("family, sigma, stream, kind, pivots, support, values, bases_sha", PINNED)
def test_seeded_solve_is_pinned(monkeypatch, family, sigma, stream, kind, pivots,
                                support, values, bases_sha):
    bases = []
    original = simplex.make_basis

    def recording(A, b, indices):
        basis = original(A, b, indices)
        bases.append(basis.indices)
        return basis

    monkeypatch.setattr(simplex, "make_basis", recording)
    monkeypatch.setattr(solver, "make_basis", recording)

    si, gen = family(sigma, stream)
    outcome, stats, _ = solver.solve(gen, si, climb=False)
    assert outcome.kind == kind
    assert (stats.pivots_phase1, stats.pivots_phase2, stats.pivots_phase3) == pivots
    if kind == "optimal":
        assert list(outcome.basis_indices) == support
        got = outcome.x
    else:
        assert outcome.certificate.shape == (500,)
        assert np.flatnonzero(outcome.certificate).tolist() == support
        got = outcome.certificate[support]
    np.testing.assert_allclose(got, values, rtol=1e-12, atol=0)
    assert hashlib.sha256(repr(bases).encode()).hexdigest() == bases_sha


# run_scaling_trial's analysis columns at d=10, n=500 on the instances above
# (seed 2026, stream = sigma index), recorded before classify_path was
# vectorized: (sigma, stream, rho, good_multiplier_frac, relative_gap_frac,
#  triple_count, far_count, min_proj_norm, max_proj_norm).  rho = 0.5 is the
# study's default; at 0.02 some bases are far from their neighbours.
PINNED_ANALYSIS = [
    (0.01, 0, 0.5, 1.0, 1.0, 24, 0, 1.4267379394962632, 1.4658152819777306),
    (0.05, 1, 0.5, 1.0, 1.0, 39, 0, 1.2001235850976855, 1.4087843593406282),
    (0.2, 2, 0.5, 0.9655172413793104, 1.0, 24, 0, 0.7518196994527351, 1.0579435768323209),
    (0.01, 0, 0.02, 1.0, 1.0, 24, 6, 1.4267379394962632, 1.4658152819777306),
    (0.05, 1, 0.02, 1.0, 1.0, 39, 14, 1.2001235850976855, 1.4087843593406282),
    (0.2, 2, 0.02, 0.9655172413793104, 1.0, 24, 10, 0.7518196994527351, 1.0579435768323209),
]


@pytest.mark.parametrize("sigma, stream, rho, good, gap, triples, far, min_norm, max_norm",
                         PINNED_ANALYSIS)
def test_seeded_scaling_analysis_is_pinned(sigma, stream, rho, good, gap, triples, far,
                                           min_norm, max_norm):
    row = experiments.run_scaling_trial(
        (0, 0, sigma, 2026, stream, 10, 500, "ball", rho, False))
    assert row["outcome"] == "optimal"
    assert (row["triple_count"], row["far_count"]) == (triples, far)
    np.testing.assert_allclose(
        [row["good_multiplier_frac"], row["relative_gap_frac"],
         row["min_proj_norm"], row["max_proj_norm"]],
        [good, gap, min_norm, max_norm], rtol=1e-12, atol=0)
