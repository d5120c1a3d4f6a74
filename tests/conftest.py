import numpy as np
import pytest
import scipy.linalg

from jacobi.frames import cartan_matrix
from jacobi.matcurve import SampleGrid, SymmetricMatrixCurve, polynomial_curve

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


def homogeneous_curve(sigma, kdiag, F0, domain=(-2.0, 2.0)):
    """The chart curve of the frame F(tau) = F0 expm(tau C), C =
    cartan_matrix(sigma, kdiag): constant reduced invariants (sigma, K =
    kdiag) in its arc parameter tau, so zeta = 1 and k = -2 kdiag exactly.
    Its jets are exact, F^(j) = F C^j; with A and B the upper and lower
    blocks of F's first n columns, S = B A^(-1) and S', S'', S''' follow by
    the quotient rule, each symmetrized."""
    c = cartan_matrix(sigma, kdiag)
    n = c.shape[-1] // 2
    powers = [np.linalg.matrix_power(c, j) for j in range(4)]

    def evaluator(ts):
        f = np.stack([F0 @ scipy.linalg.expm(t * c) for t in ts])
        a, b = zip(*((fj[:, :n, :n], fj[:, n:, :n])
                     for fj in (f @ p for p in powers)))
        a_inv = np.linalg.inv(a[0])
        s = b[0] @ a_inv
        s1 = (b[1] - s @ a[1]) @ a_inv
        s2 = (b[2] - 2 * s1 @ a[1] - s @ a[2]) @ a_inv
        s3 = (b[3] - 3 * s2 @ a[1] - 3 * s1 @ a[2] - s @ a[3]) @ a_inv
        return tuple(0.5 * (x + x.swapaxes(-1, -2)) for x in (s, s1, s2, s3))

    return SymmetricMatrixCurve(n, evaluator, domain, name=f"homogeneous-{n}")


def homogeneous_draw(seed, n):
    """(sigma, k) of one homogeneous curve: sigma = a - a^T with a uniform
    on [-0.5, 0.5], and sorted curvatures k about evenly spread, scaled so
    that the product of |k_i - mean k| is 1.  At odd n the middle curvature
    is moved by 0.5, so that none sits at the mean (the product would be
    near 0)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, (n, n))
    k = np.arange(n) - (n - 1) / 2 + rng.uniform(-0.2, 0.2, n)
    if n % 2:
        k[n // 2] += 0.5
    k = np.sort(k)
    k = k / np.prod(np.abs(k - k.mean())) ** (1.0 / n)
    return a - a.T, k


@pytest.fixture(scope="session")
def unit_grid():
    return SampleGrid(0.0, 1.0, 201)


@pytest.fixture(scope="session")
def coarse_grid():
    return SampleGrid(0.0, 1.0, 101)
