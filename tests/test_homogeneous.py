"""Exact oracle with Sigma != 0: a homogeneous curve has constant reduced
invariants (Sigma, K) in its arc parameter, so analyze must read back the
drawn k and Sigma, and zeta = 1."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from jacobi.frames import equivalent_reduced
from jacobi.matcurve import SampleGrid, transformed_curve
from jacobi.pipeline import analyze
from jacobi.symspace import random_csp, random_hamiltonian

from .conftest import homogeneous_curve, homogeneous_draw

GRID = SampleGrid(0.1, 1.0, 201)


def read_back(ana, sigma, k):
    """max|k - k_exact|, max|Sigma - D sigma D| over the +-1 diagonals D
    (the frame's column signs), and max|zeta - 1| of an analysis."""
    red = ana.reduced
    k_err = np.max(np.abs(red.curvatures() - k))
    sigma_err = min(np.max(np.abs(red.Sigma - np.outer(d, d) * sigma))
                    for d in itertools.product([1, -1], repeat=len(k)))
    return k_err, sigma_err, np.max(np.abs(ana.arc.zeta - 1))


def errors(curve, sigma, k, grid=GRID):
    """read_back of the curve's analysis on the grid."""
    return read_back(analyze(curve, grid), sigma, k)


def symplectic_start(seed, n):
    """A random symplectic F0: the exponential of a small Hamiltonian."""
    return scipy.linalg.expm(
        random_hamiltonian(np.random.default_rng(seed + 50), n, 0.2))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(10))
def test_analyze_reads_back_the_invariants(seed, n):
    sigma, k = homogeneous_draw(seed, n)
    curve = homogeneous_curve(sigma, -k / 2, np.eye(2 * n))
    k_err, sigma_err, zeta_err = errors(curve, sigma, k)
    assert k_err <= 1e-8 and sigma_err <= 1e-8 and zeta_err <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(5))
def test_analyze_reads_back_the_invariants_at_m801(seed, n):
    sigma, k = homogeneous_draw(seed, n)
    curve = homogeneous_curve(sigma, -k / 2, np.eye(2 * n))
    k_err, sigma_err, zeta_err = errors(curve, sigma, k,
                                        SampleGrid(0.1, 1.0, 801))
    assert k_err <= 1e-7 and sigma_err <= 1e-8 and zeta_err <= 1e-12


# (seed, n) of the one draw whose analysis fails with a random F0
MOVED_START_FAILS = {(4, 6)}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(10))
def test_a_random_start_reads_back_the_invariants(seed, n, request):
    if (seed, n) in MOVED_START_FAILS:
        request.applymarker(pytest.mark.xfail(strict=True, reason=(
            "known defect, ROADMAP item 2: the analysis stays in the chart "
            "span[I; S]; with this F0, k is off by about 4")))
    sigma, k = homogeneous_draw(seed, n)
    ana = analyze(homogeneous_curve(sigma, -k / 2, symplectic_start(seed, n)),
                  GRID)
    twin = analyze(homogeneous_curve(sigma, -k / 2, np.eye(2 * n)), GRID)
    assert equivalent_reduced(ana.reduced, twin.reduced)[0]
    k_err, sigma_err, _ = read_back(ana, sigma, k)
    assert k_err <= 1e-6 and sigma_err <= 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "known defect, ROADMAP item 2: the analysis stays in the chart "
    "span[I; S], and this conformal symplectic image comes close to its "
    "boundary; k is off by about 4.4e2"))
def test_a_moved_draw_reads_back_the_invariants():
    sigma, k = homogeneous_draw(2, 4)
    curve = transformed_curve(homogeneous_curve(sigma, -k / 2, np.eye(8)),
                              random_csp(7, 0.5, 4, 0.2))
    k_err, sigma_err, zeta_err = errors(curve, sigma, k)
    assert k_err <= 1e-8 and sigma_err <= 1e-8 and zeta_err <= 1e-12
