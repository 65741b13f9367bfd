"""Fixed work, apart from qlif, that gauges how fast the host runs right now.

The host's other tenants slow everything in a process by up to 2x for
tens of seconds at a time, and not all code alike: small-array Python
loops and batched grid kernels lose different shares.  ``run.py`` times
the gauge that does the same kind of work as the workload before and
after every round, and rescales the round to a host where that gauge takes
``QUIET_S``.  The rescaled round stays put while the load comes and goes,
and a change to qlif moves it as much as it moves the wall time, since the
gauges never call qlif.  README.md has the figures.

- ``steps``: RK4 steps of a geodesic in a softened weak field, with
  Christoffel symbols from central differences of the metric: a Python
  loop over 4x4 numpy calls, like ``geodesic_bundle`` and the scalar
  routes of ``collapse_sweep``.
- ``grid17`` and ``grid40``: the same weak-field metric on a 17^3 or a
  40^3 grid, its batched ``eigh`` and ``det``, a frame ``einsum`` and
  sqrt(-g)-weighted sums, like ``overlap_batch`` (17^3, in cache) and
  ``transform_64`` (64^3, whose per-point 4x4 arrays, like those of 40^3,
  do not fit in cache).

A gauge reading is one run, a few percent of a round (about 10% on
``collapse_sweep``), so that it meets the load the rounds meet.
"""

import functools
import time

import numpy as np

# a fast reading of each gauge on a 2 vCPU Xeon host (README.md); it sets the scale of run_s
QUIET_S = {"steps": 2.2e-2, "grid17": 1.3e-2, "grid40": 8.0e-2}

_MASS, _SOFT, _CENTER = 1.0e-2, 0.2, np.array([1.5, 0.0, 0.0])
_H, _DTAU, _STEPS = 1.0e-4, 0.5, 100


def _metric(x: np.ndarray) -> np.ndarray:
    """diag(-(1 + 2 phi), 1 - 2 phi, ...) for phi = -M / sqrt(r^2 + soft^2); x (..., 3) -> (..., 4, 4)."""
    phi = -_MASS / np.sqrt(np.sum((x - _CENTER) ** 2, -1) + _SOFT**2)
    g = np.zeros(x.shape[:-1] + (4, 4))
    g[..., 0, 0] = -(1.0 + 2.0 * phi)
    for i in range(1, 4):
        g[..., i, i] = 1.0 - 2.0 * phi
    return g


def _christoffel(p: np.ndarray) -> np.ndarray:
    stencil = np.repeat(p[None], 8, 0)
    for i in range(4):
        stencil[2 * i, i] += _H
        stencil[2 * i + 1, i] -= _H
    g = _metric(stencil[:, 1:])
    dg = (g[0::2] - g[1::2]) / (2.0 * _H)  # dg[c, a, b] = d_c g_ab
    lower = 0.5 * (np.einsum("bca->abc", dg) + np.einsum("cba->abc", dg) - dg)  # [d, b, c]
    return np.einsum("ad,dbc->abc", np.linalg.inv(_metric(p[1:])), lower)


def _rhs(y: np.ndarray) -> np.ndarray:
    u = y[4:]
    return np.concatenate([u, -np.einsum("abc,b,c->a", _christoffel(y[:4]), u, u)])


def _steps() -> None:
    y = np.array([0.0, 0.3, 0.2, 0.1, 1.0, 0.0, 0.0, 0.0])
    for _ in range(_STEPS):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * _DTAU * k1)
        k3 = _rhs(y + 0.5 * _DTAU * k2)
        k4 = _rhs(y + _DTAU * k3)
        y = y + _DTAU / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.cache
def _grid_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.stack(np.meshgrid(*[np.linspace(-3.0, 3.0, n)] * 3, indexing="ij"), -1).reshape(-1, 3)
    return x, np.exp(-np.sum(x**2, -1)) * (1.0 + 0.5j)


def _grid(n: int, repeat: int):
    def run() -> None:
        x, psi = _grid_points(n)  # built on first use, so only the workload's own gauge takes memory
        for _ in range(repeat):
            g = _metric(x)
            _, frames = np.linalg.eigh(g)
            weight = np.sqrt(-np.linalg.det(g))
            np.einsum("nab,nbc->nac", frames, g)
            for k in range(8):
                np.sum(np.conj(psi) * np.roll(psi, k) * weight)

    return run


_GAUGES = {"steps": _steps, "grid17": _grid(17, 2), "grid40": _grid(40, 1)}


def gauge_s(name: str) -> float:
    """Seconds the named gauge takes now."""
    t0 = time.perf_counter()
    _GAUGES[name]()
    return time.perf_counter() - t0
