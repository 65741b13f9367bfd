"""Independent closed-form oracles used by the tests.

Everything here is implemented separately from the package (different
parametrizations, scalar code paths) so agreement between the two routes
is a real check and not a tautology.
"""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations

import numpy as np
import scipy.integrate

from qlif.collapse import UniformSphere, _gauss_kronrod
from qlif.dynamics import GeodesicState, Trajectory
from qlif.errors import QlifError
from qlif.spacetime import sqrt_neg_det_diagonal
from qlif.tetrad import diagonal_frame_deviation


def schwarzschild_christoffel(rs: float, r: float, theta: float) -> np.ndarray:
    """Classic Schwarzschild connection table in the (t, r, theta, phi) chart.

    Index order Gamma[mu, nu, rho] = Gamma^mu_{nu rho}.
    """
    gam = np.zeros((4, 4, 4))
    sin = np.sin(theta)
    cos = np.cos(theta)
    gam[0, 0, 1] = gam[0, 1, 0] = rs / (2.0 * r * (r - rs))
    gam[1, 0, 0] = rs * (r - rs) / (2.0 * r**3)
    gam[1, 1, 1] = -rs / (2.0 * r * (r - rs))
    gam[1, 2, 2] = -(r - rs)
    gam[1, 3, 3] = -(r - rs) * sin**2
    gam[2, 1, 2] = gam[2, 2, 1] = 1.0 / r
    gam[2, 3, 3] = -sin * cos
    gam[3, 1, 3] = gam[3, 3, 1] = 1.0 / r
    gam[3, 2, 3] = gam[3, 3, 2] = cos / sin
    return gam


def grid_mesh(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three whole coordinate arrays of ``grid``, each shape grid.shape, from ``np.meshgrid``."""
    return np.meshgrid(grid.axis(0), grid.axis(1), grid.axis(2), indexing="ij")


def grid_points(grid) -> np.ndarray:
    """Every grid point as (N, 4) rows (c*t0, x, y, z), C-ordered, from the whole meshgrid arrays."""
    xx, yy, zz = grid_mesh(grid)
    pts = np.empty((xx.size, 4))
    pts[:, 0] = grid.t0
    pts[:, 1] = xx.ravel()
    pts[:, 2] = yy.ravel()
    pts[:, 3] = zz.ravel()
    return pts


def metric_matrices(field, points) -> np.ndarray:
    """(N, 4, 4) metric components at (N, 4) points: the diagonal embedded in zeros, slot by slot."""
    d = field.diagonal_batch(np.asarray(points, dtype=float))
    g = np.zeros((len(d), 4, 4))
    for mu in range(4):
        g[:, mu, mu] = d[:, mu]
    return g


def fd_christoffel(field, x, step=None, rel_step=5e-3) -> np.ndarray:
    """Christoffel symbols at FourVector x from 4th-order central differences of the metric matrices.

    The step is ``step`` on every axis, else ``rel_step * max(1, |x_axis|)``
    per axis; the error falls as h^4 (Richardson: halving h cuts it 16x).
    SingularRegion if a stencil point is invalid.
    """
    xv = x.array
    h = np.full(4, float(step)) if step is not None else rel_step * np.maximum(1.0, np.abs(xv))
    offsets = np.einsum("j,ab->ajb", [-2.0, -1.0, 1.0, 2.0], np.diag(h)).reshape(16, 4)
    pts = xv + offsets
    field.require_valid(pts)
    g = metric_matrices(field, pts).reshape(4, 4, 4, 4)  # axis, stencil, mu, nu
    # f'(x) = (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / (12 h); the differences
    # come first so equal samples give an exact zero
    dg = (8.0 * (g[:, 2] - g[:, 1]) - (g[:, 3] - g[:, 0])) / (12.0 * h)[:, None, None]
    ginv = np.linalg.inv(metric_matrices(field, xv[None, :])[0])
    # Gamma^m_{nr} = 1/2 g^{ms} (d_n g_{sr} + d_r g_{sn} - d_s g_{nr})
    a = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("ms,snr->mnr", ginv, a)


def newtonian_drop(z0: float, g_newton: float, t: float) -> float:
    """Height of a particle released from rest: z0 - g t^2 / 2."""
    return z0 - 0.5 * g_newton * t**2


def list_rk4(field, init: GeodesicState, dtau: float, n_steps: int) -> Trajectory:
    """Classic RK4 on 8-element lists, the loop ``integrate_geodesic`` must match bit for bit.

    Each stage builds y + h k as a list and each slope k as a tuple
    (u, a); the update is y + (h/6)(k1 + 2 k2 + 2 k3 + k4) component by
    component, in that order.  A stage that raises QlifError or a non-finite
    step ends the run with the rows kept so far; the argument checks of
    ``integrate_geodesic`` are not repeated here.  The proper times are
    summed one by one in Python: float(init.tau), then init.tau + k dtau.
    """
    accel = field.geodesic_acceleration()
    h2, h6 = 0.5 * dtau, dtau / 6.0
    y = [float(v) for v in (*init.x.array, *init.u.array)]
    rows = [y]
    error = None
    try:
        k1 = (*y[4:], *accel(*y))
        for k in range(n_steps):
            y2 = [a + h2 * b for a, b in zip(y, k1)]
            k2 = (*y2[4:], *accel(*y2))
            y3 = [a + h2 * b for a, b in zip(y, k2)]
            k3 = (*y3[4:], *accel(*y3))
            y4 = [a + dtau * b for a, b in zip(y, k3)]
            k4 = (*y4[4:], *accel(*y4))
            y = [a + h6 * (b + 2.0 * p + 2.0 * q + e) for a, b, p, q, e in zip(y, k1, k2, k3, k4)]
            if not all(map(math.isfinite, y)):
                error = QlifError(f"non-finite state at step {k + 1}")
                break
            k1 = (*y[4:], *accel(*y))
            rows.append(y)
    except QlifError as exc:
        error = exc
    tau = [float(init.tau)] + [init.tau + (k + 1) * dtau for k in range(len(rows) - 1)]
    rows = np.array(rows)
    return Trajectory(np.array(tau), rows[:, :4], rows[:, 4:], error)


def perihelion_advance_weak_field(mass: float, a: float, e: float, c: float = 1.0) -> float:
    """Leading-order advance per orbit, 6 pi G M / (c^2 a (1 - e^2))."""
    return 6.0 * np.pi * mass / (c**2 * a * (1.0 - e**2))


def perihelion_advance_epicyclic(mass: float, r0: float) -> float:
    """Exact small-eccentricity advance per radial period at radius r0.

    From the Schwarzschild epicyclic frequencies: omega_r^2 =
    Omega_phi^2 (1 - 6M/r), so the advance is
    2 pi [ (1 - 6M/r)^(-1/2) - 1 ].
    """
    return 2.0 * np.pi * (1.0 / np.sqrt(1.0 - 6.0 * mass / r0) - 1.0)


def free_gaussian_width(sigma0: float, t: float, mass: float, hbar: float = 1.0) -> float:
    """Spread of a free Gaussian packet of initial rms width sigma0."""
    return sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def gaussian_translate_overlap(d: float, sigma: float) -> float:
    """Overlap of two exp(-|x-c|^2/(2 sigma^2)) packets a distance d apart."""
    return float(np.exp(-(d**2) / (4.0 * sigma**2)))


def uniform_sphere_delta_energy(G: float, mass: float, radius: float, d: float) -> float:
    """Difference self-energy of two displaced equal uniform spheres.

    Piecewise closed form for the convention
    E = G iint drho drho' / |r - r'|; derived from the interior/exterior
    sphere potential and validated against the Monte-Carlo double integral.
    """

    def pair(sep: float) -> float:
        if sep >= 2.0 * radius:
            return mass * mass / sep
        x = sep / radius
        return (mass * mass / radius) * (
            6.0 / 5.0 - 0.5 * x**2 + 3.0 / 16.0 * x**3 - x**5 / 160.0
        )

    return G * 2.0 * (pair(0.0) - pair(d))


def decimal_distance(p, q) -> float:
    """Euclidean distance of two 3-points in 60-digit decimal arithmetic, which neither over- nor underflows."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(sum((Decimal(a) - Decimal(b)) ** 2 for a, b in zip(p, q)).sqrt())


def gaussian_delta_energy(G: float, mass: float, width: float, d: float) -> float:
    """Difference self-energy of two displaced equal Gaussian clouds."""
    from math import erf, pi, sqrt

    w0 = mass * mass / (width * sqrt(pi))
    wd = w0 if d == 0.0 else mass * mass * erf(d / (2.0 * width)) / d
    return G * 2.0 * (w0 - wd)


def gaussian_delta_energy_series(G: float, mass: float, width: float, d: float, terms: int = 12) -> float:
    """Difference self-energy of two equal Gaussian clouds a small distance d apart, from a series.

    With u = d / (2 width), W(0) - W(d) = m^2 / (width sqrt(pi)) * sum_{n >= 1}
    (-1)^(n+1) u^(2n) / (n! (2n + 1)), the Taylor series of erf(u) / u, so
    no erf is evaluated and nothing cancels; for u < 1 twelve terms are
    exact to rounding.
    """
    u2 = (d / (2.0 * width)) ** 2
    total, power = 0.0, -1.0
    for n in range(1, terms + 1):
        power *= -u2 / n  # (-1)^(n+1) u^(2n) / n!
        total += power / (2 * n + 1)
    return G * 2.0 * mass * mass / (width * math.sqrt(math.pi)) * total


def eigh_tetrad(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b, f) of (N, 4, 4) metrics by eigendecomposition, eigenvector signs fixed.

    Eigenvalues ascend, so the timelike direction is slot 0; each
    eigenvector's largest-magnitude entry is made positive.
    """
    w, v = np.linalg.eigh(g)
    lead = np.argmax(np.abs(v), axis=-2)
    signs = np.sign(np.take_along_axis(v, lead[..., None, :], axis=-2))
    v = v * signs
    scale = np.sqrt(np.abs(w))[..., None, :]
    return np.swapaxes(v * scale, -1, -2), v / scale


ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def frame_defect(f: np.ndarray, g: np.ndarray) -> float:
    """max |f^T g f - eta| of one (4, 4) frame f on one (4, 4) metric g, by matrix products."""
    return float(np.max(np.abs(f.T @ g @ f - ETA)))


def matrix_timelike_u0(g: np.ndarray, u_spatial: np.ndarray, c: float) -> float:
    """u^0 > 0 with g_munu u^mu u^nu = -c^2 for one (4, 4) metric: the full quadratic, cross term included."""
    a = g[0, 0]
    b = 2.0 * g[0, 1:] @ u_spatial
    k = u_spatial @ g[1:, 1:] @ u_spatial + c**2
    return float((-b - np.sqrt(b**2 - 4.0 * a * k)) / (2.0 * a))


def local_frame_u(g: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """4-velocity with local-frame components gamma (c, v) on one diagonal (4, 4) metric, axis by axis.

    u^0 = gamma c / sqrt(-g_00) and u^i = gamma v_i / sqrt(g_ii): the local
    axes run along the chart axes.
    """
    gamma = 1.0 / np.sqrt(1.0 - (v @ v) / c**2)
    return np.array([gamma * c / np.sqrt(-g[0, 0])] + [gamma * v[i] / np.sqrt(g[i + 1, i + 1]) for i in range(3)])


def schwarzschild_chart_regular(rs: float, r: float, theta: float) -> bool:
    """True off the singular set of the Schwarzschild chart: outside the horizon and off the polar axis."""
    return r > rs and np.sin(theta) != 0.0


def matmul_deviation(g: np.ndarray) -> np.ndarray:
    """Per-metric max |f^T g f - eta| over (N, 4, 4) metrics as batched matrix products, shape (N,).

    f comes from ``eigh_tetrad``, which ``test_tetrad`` ties to ``tetrad_arrays`` bit for bit once
    its columns are put back in chart order; the order does not change the max.
    """
    _, f = eigh_tetrad(g)
    return np.max(np.abs(np.swapaxes(f, -1, -2) @ g @ f - ETA), axis=(-2, -1))


def matmul_certificate(g: np.ndarray) -> float:
    """max |f^T g f - eta| over (N, 4, 4) metrics: the full-matrix route of the QLIF certificate."""
    return float(np.max(matmul_deviation(g)))


def det_sqrt_neg_g(g: np.ndarray) -> np.ndarray:
    """sqrt(-det g) of (N, 4, 4) metrics, exact up to one final rounding.

    The determinant is the Leibniz sum over the 24 permutations in rational
    arithmetic, its square root taken to 60 digits.  ``np.linalg.det`` is
    no oracle at the ulp level: it sums the logarithms of the LU pivots and
    misses a product of four doubles by up to several ulp.
    """
    perms = [(p, (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))) for p in permutations(range(4))]
    out = np.empty(len(g))
    for n, m in enumerate(np.asarray(g, dtype=float)):
        q = [[Fraction(float(v)) for v in row] for row in m]
        det = sum(sign * q[0][p[0]] * q[1][p[1]] * q[2][p[2]] * q[3][p[3]] for p, sign in perms)
        with localcontext() as ctx:
            ctx.prec = 60
            out[n] = float((Decimal(-det.numerator) / Decimal(det.denominator)).sqrt())
    return out


def loop_qlif_metric_rows(state, radius: float, sample_points: int = 16) -> list[tuple]:
    """(mass_label, metric label, radius, max deviation) rows of ``check_qlif_metric``, anchor by anchor.

    The full-matrix route: each anchor's frame by ``eigh_tetrad``, its
    nine targets (the anchor, then anchor +- radius * each column of f)
    checked for validity, and the pulled-back metric f^T g f formed by
    matrix products.  Anchors are the ``sample_points`` largest |psi| at
    valid points of the source grid, ties in index order.
    """
    grid = state.grid.negated()
    pts = grid_points(grid)
    rows = []
    for branch in state.branches:
        metric = branch.metric
        weight = np.abs(np.asarray(branch.psi)[::-1, ::-1, ::-1]).reshape(-1)
        weight[~metric.valid_mask(pts)] = 0.0
        k = min(sample_points, np.count_nonzero(weight))
        worst = 0.0
        for anchor in pts[np.argsort(-weight, kind="stable")[:k]]:
            _, f = eigh_tetrad(metric_matrices(metric, anchor[None, :]))
            f = f[0]
            targets = np.vstack([anchor[None, :], anchor[None, :] + radius * f.T, anchor[None, :] - radius * f.T])
            ok = metric.valid_mask(targets)
            if np.any(ok):
                pulled = f.T @ metric_matrices(metric, targets[ok]) @ f
                worst = max(worst, float(np.max(np.abs(pulled - ETA))))
        rows.append((branch.mass_label, metric.label, float(radius), worst))
    return rows


def argsort_anchor_indices(state, branch, sample_points: int = 16) -> np.ndarray:
    """Source-grid flat indices of a P-frame branch's ``check_qlif_metric`` anchors by a full stable sort.

    |psi| of the contiguous P-frame samples, reversed into source order, is
    set to 0 where the measure is 0; the anchors are the first
    min(sample_points, nonzero count) indices of its stable descending sort.
    """
    measure, _ = whole_grid_metric_on_grid(branch.metric, state.grid.negated())
    weight = np.abs(branch.psi).reshape(-1)[::-1]
    weight[measure.reshape(-1) == 0] = 0.0
    return np.argsort(-weight, kind="stable")[: min(sample_points, np.count_nonzero(weight))]


def divide_from_qlif(state) -> list[np.ndarray]:
    """Each P-frame branch's ``from_qlif`` samples by numpy's complex divide, 0 where the measure is 0."""
    out = []
    for branch in state.branches:
        measure, _ = whole_grid_metric_on_grid(branch.metric, state.grid.negated())
        factor = np.sqrt(measure)
        psi = np.zeros(factor.shape, dtype=complex)
        np.divide(np.asarray(branch.psi)[::-1, ::-1, ::-1], factor, out=psi, where=factor > 0)
        out.append(psi)
    return out


def meshgrid_gaussian_psi(grid, center, sigma, momentum=None, hbar: float = 1.0) -> np.ndarray:
    """``gaussian_psi`` as first written, on the three whole meshgrid arrays."""
    center = np.broadcast_to(np.asarray(center, dtype=float), (3,))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (3,))
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    xx, yy, zz = grid_mesh(grid)
    q = (
        ((xx - center[0]) / sigma[0]) ** 2
        + ((yy - center[1]) / sigma[1]) ** 2
        + ((zz - center[2]) / sigma[2]) ** 2
    )
    psi = np.exp(-0.5 * q).astype(complex)
    if momentum is not None:
        p = np.broadcast_to(np.asarray(momentum, dtype=float), (3,))
        psi = psi * np.exp(1j * (p[0] * xx + p[1] * yy + p[2] * zz) / hbar)
    return psi


def whole_grid_metric_on_grid(metric, grid) -> tuple[np.ndarray, np.ndarray]:
    """(measure, deviation) of ``metric_on_grid`` from one evaluation over the whole ``grid_points`` array.

    The route it had before it went slab by slab, with the same per-point kernels.
    """
    pts = grid_points(grid)
    valid = metric.valid_mask(pts)
    measure = np.zeros(len(pts))
    deviation = np.full(len(pts), np.inf)
    if np.any(valid):
        d = metric.diagonal_batch(pts[valid])
        measure[valid] = sqrt_neg_det_diagonal(d)
        deviation[valid] = diagonal_frame_deviation(d)
    return measure.reshape(grid.shape), deviation.reshape(grid.shape)


def pairwise_starts(n: int, block: int) -> np.ndarray:
    """Flat start of every stretch of at most ``block`` points, in order, into which np.sum's
    pairwise split cuts an array of n complex points: m points split after (m - m % 8) // 2."""
    starts, todo = [], [(0, n)]
    while todo:
        lo, m = todo.pop()
        if m <= block:
            starts.append(lo)
        else:
            h = (m - m % 8) // 2
            todo += [(lo + h, m - h), (lo, h)]
    return np.array(starts)


def stretch_maxima(deviation: np.ndarray, block: int) -> np.ndarray:
    """The largest per-point ``deviation`` in each ``pairwise_starts`` stretch of the flat grid."""
    flat = deviation.reshape(-1)
    return np.maximum.reduceat(flat, pairwise_starts(flat.size, block))


def _whole_array_overlap(x: np.ndarray, y: np.ndarray, w) -> complex:
    terms = np.conj(x) * y
    return np.sum(terms if w is None else terms * w)


def explicit_inner_product(a, b, branch_sum=_whole_array_overlap) -> complex:
    """<a|b> with branches matched on (mass_label, metric) keys through a dict.

    Each matched pair is summed by ``branch_sum(psi_a, psi_b, w)``, by
    default np.sum(np.conj(psi_a) * psi_b * w) over the whole grid, with w
    the ``whole_grid_metric_on_grid`` measure in the R frame and None (no
    weight) in the P frame; the amplitudes enter as
    np.conj(amp_a) * amp_b * sum * dV, added in a's branch order.
    """
    by_key = {(br.mass_label, br.metric): br for br in b.branches}
    out = 0.0 + 0.0j
    for br in a.branches:
        other = by_key.get((br.mass_label, br.metric))
        if other is None:
            continue
        w = whole_grid_metric_on_grid(br.metric, a.grid)[0] if a.frame.value == "R" else None
        out += np.conj(br.amplitude) * other.amplitude * (branch_sum(br.psi, other.psi, w) * a.grid.dvol)
    return complex(out)


# The radial closed forms as 0-d array code: the reference that the scalar
# closures of each kind's ``radial()`` must equal bit for bit.  Their exp and
# erf are the math module's, applied element by element, as in the closures:
# numpy's exp can differ from libm's by an ulp.


def _elementwise(fn, x) -> np.ndarray:
    """The math-module function ``fn`` of every element of ``x``, in x's shape."""
    x = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def array_coulomb_potential(dist, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if isinstance(dist, UniformSphere):
        M, R = dist.mass, dist.radius
        inside = s < R
        out = np.empty_like(s)
        out[inside] = M * (3.0 * R**2 - s[inside] ** 2) / (2.0 * R**3)
        out[~inside] = M / s[~inside]
        return out
    M, w = dist.mass, dist.width
    out = np.empty_like(s)
    small = s < 1e-12 * w
    out[small] = M * np.sqrt(2.0 / np.pi) / w
    out[~small] = M * _elementwise(math.erf, s[~small] / (np.sqrt(2.0) * w)) / s[~small]
    return out


def array_potential_integral(dist, s: np.ndarray) -> np.ndarray:
    """I(s) = int_0^s u V(u) du, closed form per kind."""
    s = np.asarray(s, dtype=float)
    if isinstance(dist, UniformSphere):
        M, R = dist.mass, dist.radius
        s_in = np.minimum(s, R)
        inner = M * (1.5 * R**2 * s_in**2 - 0.25 * s_in**4) / (2.0 * R**3)
        return inner + M * np.maximum(s - R, 0.0)
    M, w = dist.mass, dist.width
    sw = np.sqrt(2.0) * w
    erf_term = s * _elementwise(math.erf, s / sw)
    return M * (erf_term + sw / np.sqrt(np.pi) * (_elementwise(math.exp, -(s**2) / sw**2) - 1.0))


def array_radial_density(dist, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if isinstance(dist, UniformSphere):
        rho0 = dist.mass / (4.0 / 3.0 * np.pi * dist.radius**3)
        return np.where(r <= dist.radius, rho0, 0.0)
    w = dist.width
    return dist.mass * (2.0 * np.pi * w**2) ** -1.5 * _elementwise(math.exp, -(r**2) / (2.0 * w**2))


def _array_integrand(a, b, d: float):
    """The integrand of the pair term W_ab(d) over the array closed forms above, and its upper limit."""
    hi = b.radius if isinstance(b, UniformSphere) else 12.0 * b.width
    if d == 0.0:

        def integrand(r):
            return 4.0 * np.pi * r**2 * array_radial_density(b, r) * array_coulomb_potential(a, r)

    else:

        def integrand(r):
            shells = array_potential_integral(a, d + r) - array_potential_integral(a, abs(d - r))
            return (2.0 * np.pi / d) * r * array_radial_density(b, r) * shells

    return integrand, hi


def pair_kinks(a, b, d: float) -> list[float]:
    """The radii inside (0, hi) where the pair term's integrand has a kink:
    a uniform sphere a's I(s) changes form at s = R, so at r = |R - d| and R + d."""
    _, hi = _array_integrand(a, b, d)
    if not isinstance(a, UniformSphere):
        return []
    return sorted({r for r in (abs(a.radius - d), a.radius + d) if 0.0 < r < hi})


def array_pair_quadrature(a, b, d: float, rtol: float = 1e-10) -> float:
    """The quadrature pair term W_ab(d) over the array closed forms above,
    with the Gauss-Kronrod call of ``collapse._pair_quadrature``, from the same breakpoints."""
    integrand, hi = _array_integrand(a, b, d)
    val, _ = _gauss_kronrod(integrand, (0.0, *pair_kinks(a, b, d), hi), rtol, 200)
    return float(val)


def scipy_pair_quadrature(a, b, d: float, rtol: float = 1e-10) -> float:
    """The pair term W_ab(d) over the array closed forms above, by QUADPACK (``scipy.integrate.quad``:
    qagpe given the kinks as ``points``, qagse without kinks)."""
    integrand, hi = _array_integrand(a, b, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(
            integrand, 0.0, hi, points=pair_kinks(a, b, d) or None, limit=200, epsrel=max(rtol, 1e-13), epsabs=0.0
        )
    return float(val)
