import numpy as np
import pytest

from jacobi.matcurve import SampleGrid, polynomial_curve

# Frozen seeds for reconstruction roundtrips.  Random quartics can carry
# curvatures of order 10^2-10^3 where an absolute comparison tolerance is
# meaningless at any reasonable grid size; these seeds give admissible
# curves with O(1) invariants.
ROUNDTRIP_SEEDS = [0, 2, 3, 4, 9, 10, 11, 14, 19, 20]


def random_quartic(seed, n=2, domain=(-0.5, 1.5), scale=1.0):
    """Random monotone quartic matrix curve; dominant linear term keeps S'
    positive definite on [0, 1] for almost all seeds (inadmissible draws are
    skipped where a corpus is assembled).  Every coefficient is multiplied
    by `scale`."""
    return polynomial_curve(quartic_coeffs(seed, n, scale), domain,
                            name=f"quartic-{n}-{seed}")


def quartic_coeffs(seed, n=2, scale=1.0):
    """random_quartic's entries, as polynomial_curve's coefficient lists."""
    rng = np.random.default_rng(seed)

    def sym(scale):
        a = rng.normal(size=(n, n)) * scale
        return 0.5 * (a + a.T)

    p = sym(0.3) + np.eye(n) * (1.5 + rng.uniform(0, 1))
    s0, q, r, t4 = sym(0.5), sym(0.6), sym(0.8), sym(0.8)
    return [
        [
            [scale * float(c) for c in (s0[i, j], p[i, j], q[i, j] / 2,
                                        r[i, j] / 6, t4[i, j] / 24)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def admissible_quartics(seeds, n=2, grid=None, want=None):
    """Filter a seed range down to curves the pipeline accepts."""
    from jacobi.errors import JacobiError
    from jacobi.pipeline import analyze

    grid = grid or SampleGrid(0.0, 1.0, 101)
    out = []
    for seed in seeds:
        c = random_quartic(seed, n=n)
        try:
            analyze(c, grid)
        except JacobiError:
            continue
        out.append(c)
        if want and len(out) >= want:
            break
    return out


@pytest.fixture(scope="session")
def unit_grid():
    return SampleGrid(0.0, 1.0, 201)


@pytest.fixture(scope="session")
def coarse_grid():
    return SampleGrid(0.0, 1.0, 101)
