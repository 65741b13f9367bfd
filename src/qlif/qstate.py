"""Discretized superposed-spacetime states and their metric-weighted overlap.

A state is a finite sum of branches.  Each branch pairs a mass-configuration
label and a classical metric with the relative wavefunction of the probe
particle, sampled on a shared spatial grid at one fixed coordinate time
(the equal-time restriction: the time label is a parameter, not a grid
axis).  The frame tag alone sets the weight of the samples: the branch's
own volume weight sqrt(-g_i) d^3x in the R frame, d^3x in the P frame
(the probe's QLIF, flat by construction), so

    <a|b> = sum over matching (mass_label, metric) branches of
            conj(amp_a) amp_b * sum_points conj(psi_a) psi_b w_i dV,
    w_i = sqrt(-g_i) in the R frame, 1 in the P frame,

and branches with different labels are orthogonal by construction, which is
how "macroscopically distinguishable implies orthogonal" is represented.

Grid sums run over C-ordered (x, y, z) arrays in np.sum's pairwise order,
stretch by stretch through one reused buffer (``_overlap_sum``), branches
in input order; this fixed scheme makes every overlap deterministic.
``make_state`` takes each branch's norm in one such pass over weight |psi|^2
(``_sum_sq``), and its finiteness check rides on that sum: a NaN or
infinite sample makes the sum NaN or inf, so only a sum that is not finite
sends the samples through ``np.isfinite``.

States are immutable: all operations return new objects and wavefunction
arrays are frozen (writeable = False) on construction.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import BadContainer, GridMismatch, OffGridTranslation, WrongFrame, ZeroNorm
from .spacetime import FourVector, MetricField, UnitSystem, metric_from_dict, sqrt_neg_det_diagonal
from .tetrad import diagonal_frame_deviation


class Frame(str, Enum):
    """Whose origin the relative coordinates refer to."""

    R = "R"
    P = "P"


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid: per-axis bounds (inclusive) and point counts.

    Spacing is (hi - lo) / (n - 1) per axis; samples are stored row-major
    with axis order (x, y, z).  ``t0`` is the fixed coordinate time of the
    slice (as x0 = c*t0).
    """

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    n: tuple[int, int, int]
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        try:
            n = tuple(int(v) for v in self.n)
        except OverflowError:  # int(inf)
            n = None
        if n != tuple(self.n):
            raise ValueError(f"point counts must be whole numbers, got {self.n!r}")
        object.__setattr__(self, "n", n)
        if len(self.lo) != 3 or len(self.hi) != 3 or len(self.n) != 3:
            raise ValueError("GridSpec needs 3 spatial axes")
        for name, values in (("lo", self.lo), ("hi", self.hi), ("t0", (self.t0,))):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for lo, hi, n in zip(self.lo, self.hi, self.n):
            if n < 2:
                raise ValueError("point counts must be >= 2")
            if not (hi > lo):
                raise ValueError("bounds must satisfy hi > lo")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple((h - l) / (n - 1) for l, h, n in zip(self.lo, self.hi, self.n))

    @property
    def dvol(self) -> float:
        dx, dy, dz = self.spacing
        return dx * dy * dz

    def axis(self, i: int) -> np.ndarray:
        return np.linspace(self.lo[i], self.hi[i], self.n[i])

    def open_mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The axes shaped (n0, 1, 1), (1, n1, 1) and (1, 1, n2): broadcast together, every grid point."""
        return np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij", sparse=True)

    def points4_at(self, flat: np.ndarray) -> np.ndarray:
        """Grid points at C-order flat indices ``flat`` as (len(flat), 4) rows (c*t0, x, y, z), from the axes."""
        idx = np.unravel_index(flat, self.n)
        pts = np.empty((len(flat), 4))
        pts[:, 0] = self.t0
        for i in range(3):
            pts[:, i + 1] = self.axis(i)[idx[i]]
        return pts

    def negated(self) -> "GridSpec":
        """The grid of point-wise negated coordinates (lo, hi swap and flip)."""
        return GridSpec(
            lo=tuple(-h for h in self.hi),
            hi=tuple(-l for l in self.lo),
            n=self.n,
            t0=self.t0,
        )


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Branch:
    """One term of the superposition.

    ``psi`` is the relative wavefunction of the probe over the state's
    grid (complex, shape grid.shape).  ``metric`` is the branch's
    spacetime g_i in both frames: the QLIF transformation re-expresses
    only ``psi``, so the branch keeps its key through the frame change.
    In the P frame the metric is read over the source grid (the negated
    state grid), where the tetrads and the measure of the transformation
    follow from it and nothing per point is stored; the samples
    themselves are weighed flat there (see the module notes).
    """

    amplitude: complex
    mass_label: str
    mass_position: FourVector
    metric: MetricField
    psi: np.ndarray

    @property
    def key(self) -> tuple[str, MetricField]:
        """(mass_label, metric) pair used for branch matching; the metric compares by value."""
        return (self.mass_label, self.metric)


@dataclass(frozen=True)
class SuperposedState:
    """Branches over a shared grid, tagged with the frame they refer to."""

    branches: tuple[Branch, ...]
    grid: GridSpec
    frame: Frame

    @property
    def units(self) -> UnitSystem:
        """The unit system of the branch metrics, one for all of them (``make_state``, ``load_state``)."""
        return self.branches[0].metric.units


class MetricOnGrid(NamedTuple):
    """Per-point figures of one metric over one grid, each shape grid.shape and read-only.

    ``measure`` is sqrt(-g), 0 inside the singular set; ``deviation`` is the
    QLIF certificate max |f^T g f - eta| of the point's frame
    (``diagonal_frame_deviation``), +inf inside the singular set and where
    no frame exists.
    """

    measure: np.ndarray
    deviation: np.ndarray


# Distinct (metric, grid) evaluations kept by ``metric_on_grid``.
MEASURE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=MEASURE_CACHE_SIZE)
def metric_on_grid(metric: MetricField, grid: GridSpec) -> MetricOnGrid:
    """The measure and the certificate of ``metric`` over ``grid``, from one diagonal evaluation.

    Memoized on the metric's value and the grid, so equal metrics built
    separately share one evaluation, and every sqrt(-g) of the package
    (make_state, overlaps, norms, centroids, the QLIF transform and its
    inverse) and every certificate of ``to_qlif`` comes from it.

    The grid is evaluated one slab (one index along axis 0) at a time, in
    place into the two outputs, so no whole-grid point array exists; every
    kernel works point by point, so the figures are those of one
    whole-grid evaluation, bit for bit.
    """
    measure = np.zeros(grid.shape)
    deviation = np.full(grid.shape, np.inf)
    slab = grid.shape[1] * grid.shape[2]
    for i in range(grid.shape[0]):
        pts = grid.points4_at(np.arange(i * slab, (i + 1) * slab))
        valid = metric.valid_mask(pts)
        if np.any(valid):
            d = metric.diagonal_batch(pts[valid])
            measure[i].reshape(-1)[valid] = sqrt_neg_det_diagonal(d)
            deviation[i].reshape(-1)[valid] = diagonal_frame_deviation(d)
    return MetricOnGrid(_freeze(measure), _freeze(deviation))


def branch_sqrt_neg_det(branch: Branch, grid: GridSpec) -> np.ndarray:
    """sqrt(-g) of the branch metric over the grid, shape grid.shape, read-only.

    Points inside the metric's singular set get weight 0, so samples there
    count for nothing in R-frame norms and overlaps; ``to_qlif`` rejects a
    branch with amplitude there.  Read from ``metric_on_grid``."""
    return metric_on_grid(branch.metric, grid).measure


def _measure(branch: Branch, grid: GridSpec, frame: Frame) -> np.ndarray | None:
    """Weight of the branch's samples: sqrt(-g) in the R frame, None (flat, no weight) in the P frame."""
    return branch_sqrt_neg_det(branch, grid) if frame == Frame.R else None


def _abs_sq(a: np.ndarray, weight=None) -> np.ndarray:
    """weight |a|^2 as a new array, every product in place on the one temporary of np.abs."""
    t = np.abs(a)
    np.square(t, out=t)
    if weight is not None:
        np.multiply(weight, t, out=t)
    return t


# Points per leaf of ``_pairwise``: the products of one leaf fit a reused
# buffer of 128 KB, inside the L2 cache, where a whole-grid product makes a
# 4 MB temporary per operation at 64^3.  Timed on ``to_qlif`` at 64^3 (two
# branches, 2-core Xeon): 2^12 13.9 ms, 2^13 12.1, 2^14 14.1, 2^15 14.6,
# 2^16 16.5.
_BLOCK = 1 << 13


def _pairwise(lo: int, n: int, leaf, width: int = 2):
    """Sum of ``leaf(start, stop)`` over [lo, lo + n), split as np.sum splits an array of
    ``width`` floats a point: 2 for a complex array, 1 for a float one.

    np.sum adds a contiguous array pairwise, counting its floats: a stretch
    of m floats splits after m // 2 of them, stepped back to a multiple of
    8, down to stretches of 128 floats; for a complex array that is after
    (n - n % 8) // 2 points.  Splitting the same way down to ``_BLOCK``
    points and handing each stretch to ``leaf``, which returns np.sum of
    its terms (or an array of such sums, added element by element), gives
    the whole-array np.sum bit for bit at every size; block sums added in
    a row would not.  The sum takes no BLAS call, whose bits can change
    with its thread count.
    """
    if n <= _BLOCK:
        return leaf(lo, lo + n)
    half = n * width // 2
    half = (half - half % 8) // width
    return _pairwise(lo, half, leaf, width) + _pairwise(lo + half, n - half, leaf, width)


def _sum_sq(a: np.ndarray, weight=None):
    """np.sum(_abs_sq(a, weight)) bit for bit, each ``_pairwise`` stretch through one reused float buffer."""
    a = a.reshape(-1)
    w = None if weight is None else weight.reshape(-1)
    buf = np.empty(min(a.size, _BLOCK))

    def leaf(lo, hi):
        t = buf[: hi - lo]
        np.abs(a[lo:hi], out=t)
        np.square(t, out=t)
        if w is not None:
            np.multiply(w[lo:hi], t, out=t)
        return np.add.reduce(t)

    return _pairwise(0, a.size, leaf, width=1)


def _root_sum_sq(a: np.ndarray, weight=None, dvol: float = 1.0):
    """sqrt(sum(weight |a|^2) dvol), no weight for None, from one ``_sum_sq`` pass.

    A non-finite sample makes that sum NaN or inf, and the result is then
    NaN or inf.  Where the sum is not finite, or at most a.size * tiny, so
    that terms rounded to subnormals could move it by an ulp, it runs over
    a / max|a| instead and the root is scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = float(_sum_sq(a, weight) * dvol)
        if a.size * np.finfo(float).tiny < sq < math.inf:
            return np.sqrt(sq)
        scale = np.max(np.abs(a))
        if not 0.0 < scale < math.inf:  # all zero, or a sample not finite or already past the float range
            return scale
        return scale * np.sqrt(float(_sum_sq(a / scale, weight) * dvol))


def _overlap_sum(a: np.ndarray, b: np.ndarray, w: np.ndarray | None = None) -> complex:
    """sum(conj(a) * b * w) over all points of equal-shape grids, no weight for None.

    The products of each ``_pairwise`` stretch go through one reused
    buffer, in the operand order of ``np.conj(a) * b * w``, so the value is
    that expression's np.sum bit for bit with no whole-grid temporary.
    """
    a, b = a.reshape(-1), b.reshape(-1)
    w = None if w is None else w.reshape(-1)
    buf = np.empty(min(a.size, _BLOCK), dtype=complex)

    def leaf(lo, hi):
        t = buf[: hi - lo]
        np.conjugate(a[lo:hi], out=t)
        np.multiply(t, b[lo:hi], out=t)
        if w is not None:
            np.multiply(t, w[lo:hi], out=t)
        return np.add.reduce(t)  # np.sum's reduction, without its wrapper

    return _pairwise(0, a.size, leaf)


def _check_branch_values(branches, error) -> None:
    """Raise ``error`` for no branches, two with one (mass_label, metric) key, a non-finite
    amplitude, or amplitudes that are all zero."""
    if not branches:
        raise error("state needs at least one branch")
    first = {}
    for i, b in enumerate(branches):
        j = first.setdefault(b.key, i)
        if j != i:
            raise error(
                f"duplicate branch keys: branches[{j}] and branches[{i}] both have mass label "
                f"{b.mass_label!r} and metric {b.metric.label}"
            )
        if not np.isfinite(complex(b.amplitude)):
            raise error(f"branch {b.key}: amplitude {b.amplitude!r} is not finite")
    if not any(complex(b.amplitude) for b in branches):
        raise error("all branch amplitudes are zero")


def _check_finite_samples(b: Branch, error) -> None:
    if not np.all(np.isfinite(b.psi)):
        raise error(f"branch {b.key}: psi has non-finite samples")


def _ldexp(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _scaled_weights(amplitudes, norms) -> np.ndarray:
    """amplitude * norm per branch, all times the power of two that brings the largest into [1/4, 1).

    For weights whose plain products underflow: each is the product of the
    mantissas of its two factors, scaled by its exponent less the largest,
    so the ratios that make the amplitudes keep full precision.
    """
    parts = []
    for a, n in zip(amplitudes, norms):
        ea = math.frexp(abs(a))[1]
        mn, en = math.frexp(n)
        parts.append((_ldexp(a, -ea) * mn, ea + en))
    top = max(e for m, e in parts if m)
    return np.asarray([_ldexp(m, e - top) for m, e in parts])


def make_state(
    branches,
    grid: GridSpec,
    frame: Frame = Frame.R,
    units: UnitSystem | None = None,
) -> SuperposedState:
    """Build a normalized superposed state.

    Each branch wavefunction is normalized under its frame's measure and
    the amplitude vector is scaled to unit total weight, so the result
    satisfies <state|state> = 1.

    Raises ZeroNorm for a wavefunction of zero norm, GridMismatch for
    a wavefunction of the wrong shape, and ValueError for non-finite
    samples or amplitudes, a metric in other units than ``units`` (which
    defaults to the first branch's), duplicate (mass_label, metric) pairs,
    amplitudes that are all zero, or norms past the float range.
    """
    branches = list(branches)
    _check_branch_values(branches, ValueError)
    if units is None:
        units = branches[0].metric.units

    normalized = []
    norms = []
    for b in branches:
        if b.metric.units != units:
            raise ValueError(f"branch {b.key}: metric units differ from the state's {units}")
        psi = np.asarray(b.psi, dtype=complex)
        if psi.shape != grid.shape:
            raise GridMismatch(f"psi shape {psi.shape} != grid shape {grid.shape}")
        nrm = _root_sum_sq(psi, _measure(b, grid, frame), grid.dvol)
        if not np.isfinite(nrm):  # a non-finite sample, or finite samples whose norm is past the float range
            _check_finite_samples(b, ValueError)
        if nrm == 0.0:
            raise ZeroNorm(f"branch {b.key}: zero measure-weighted norm")
        normalized.append(replace(b, psi=_freeze(psi / nrm)))
        norms.append(nrm)

    amplitudes = [complex(b.amplitude) for b in branches]
    weights = np.asarray([a * nrm for a, nrm in zip(amplitudes, norms)])
    total = _root_sum_sq(weights)
    if total < np.finfo(float).tiny:  # amplitude times norm underflows on every branch
        weights = _scaled_weights(amplitudes, norms)
        total = _root_sum_sq(weights)
    if not np.isfinite(total):  # a branch norm or the amplitude total past the float range
        raise ValueError("the branch norms or the amplitude total exceed the float range")
    final = tuple(
        replace(b, amplitude=complex(w / total)) for b, w in zip(normalized, weights)
    )
    return SuperposedState(branches=final, grid=grid, frame=frame)


def inner_product(a: SuperposedState, b: SuperposedState) -> complex:
    """<a|b> with the frame's per-branch measure and branch-label orthogonality.

    Branches are matched on their (mass_label, metric) key; unmatched
    branches contribute exactly zero.  Raises GridMismatch if the grids
    differ and WrongFrame if the frame tags differ.
    """
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    if a.frame != b.frame:
        raise WrongFrame(f"cannot overlap a {a.frame.value}-frame with a {b.frame.value}-frame state")
    out = 0.0 + 0.0j
    b_by_key = {br.key: br for br in b.branches}
    for br_a in a.branches:
        br_b = b_by_key.get(br_a.key)
        if br_b is None:
            continue
        s = _overlap_sum(br_a.psi, br_b.psi, _measure(br_a, a.grid, a.frame)) * a.grid.dvol
        out += np.conj(br_a.amplitude) * br_b.amplitude * s
    return complex(out)


def state_norm(s: SuperposedState) -> float:
    return float(np.real(inner_product(s, s)))


def translate_state(s: SuperposedState, d) -> SuperposedState:
    """Rigid spatial translation psi(x) -> psi(x - d), exact on the grid.

    ``d`` must be an integer number of grid steps per axis (no
    interpolation); samples wrap periodically, and ValueError unless it is a
    finite 3-vector.  The sqrt(-g) weight is not uniform on curved branches,
    so the norm is exactly preserved only on flat ones.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (3,):
        raise ValueError("translation must be a 3-vector")
    if not np.all(np.isfinite(d)):
        raise ValueError(f"translation must be finite, got {d.tolist()}")
    shifts = []
    for i, (di, h) in enumerate(zip(d, s.grid.spacing)):
        steps = di / h
        rounded = np.rint(steps)
        if abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
            raise OffGridTranslation(
                f"axis {i}: {di!r} is {steps} grid steps; integer steps required"
            )
        shifts.append(int(rounded))
    moved = tuple(
        replace(b, psi=_freeze(np.roll(b.psi, shifts, axis=(0, 1, 2))))
        for b in s.branches
    )
    return replace(s, branches=moved)


def gaussian_psi(grid: GridSpec, center, sigma, momentum=None, hbar: float = 1.0) -> np.ndarray:
    """Gaussian wavefunction exp(-|x - c|^2 / (2 sigma^2)) on the grid, unnormalized.

    With this width convention the overlap of two copies a distance d
    apart is exp(-|d|^2 / (4 sigma^2)).  ``sigma`` may be a scalar or
    per-axis.  An optional momentum adds a plane-wave factor
    exp(i p.x / hbar).
    """
    center = np.broadcast_to(np.asarray(center, dtype=float), (3,))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (3,))
    if not np.all(np.isfinite(center)):
        raise ValueError("center must be finite")
    if not np.all((sigma > 0) & np.isfinite(sigma)):
        raise ValueError("sigma must be finite and > 0")
    # each whole-grid step runs in place on the one float and the one complex
    # temporary, with the ufuncs and operand order of the plain expressions
    x, y, z = grid.open_mesh()
    q = ((x - center[0]) / sigma[0]) ** 2 + ((y - center[1]) / sigma[1]) ** 2 + ((z - center[2]) / sigma[2]) ** 2
    np.multiply(-0.5, q, out=q)
    psi = np.exp(q, out=q).astype(complex)
    if momentum is not None:
        p = np.broadcast_to(np.asarray(momentum, dtype=float), (3,))
        if not np.all(np.isfinite(p)):
            raise ValueError("momentum must be finite")
        phase = np.multiply(1j, p[0] * x + p[1] * y + p[2] * z)
        np.divide(phase, hbar, out=phase)
        psi *= np.exp(phase, out=phase)
    return psi


# ---------------------------------------------------------------------------
# State container (save/load)
# ---------------------------------------------------------------------------
#
# Layout: magic, format version, u64 header length, UTF-8 JSON header, then
# per branch (in header order) the raw complex128 little-endian samples,
# row-major with axis order (x, y, z).  Every branch record holds its
# metric's ``describe()`` record under ``metric`` in both frames; the
# header's ``frame`` alone says how the samples are weighed, as it does in
# memory.  So a reloaded P-frame state inverts like the one that was saved.
# The header's ``units`` are those of every branch metric, whose records
# hold none.  Formats 1 and 2 stored the P-frame metric differently and
# format 3 an overall constant that nothing read; none of them is read:
# such files are regenerated from their config by ``qlif transform``.

_MAGIC = b"QLIFSTA1"
FORMAT = 4


def _state_header(s: SuperposedState) -> dict:
    return {
        "format": FORMAT,
        "grid": {"lo": list(s.grid.lo), "hi": list(s.grid.hi), "n": list(s.grid.n), "t0": s.grid.t0},
        "units": {"c": s.units.c, "G": s.units.G, "hbar": s.units.hbar},
        "frame": s.frame.value,
        "branches": [
            {
                "amplitude": [b.amplitude.real, b.amplitude.imag],
                "mass_label": b.mass_label,
                "mass_position": b.mass_position.array.tolist(),
                "metric": b.metric.describe(),
            }
            for b in s.branches
        ],
    }


def save_state(s: SuperposedState, path) -> None:
    """Write the state container (see module notes for the layout) as a new file at ``path``.

    A file or symlink already at ``path`` is removed first, never written through.
    """
    header = json.dumps(_state_header(s), sort_keys=True).encode("utf-8")
    # A fresh file: rewriting a file truncated in place costs ext4 a block
    # allocation at close (auto_da_alloc), ~3x the write itself; a symlink
    # at ``path`` is replaced, its target left as it was.
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for b in s.branches:
            fh.write(np.ascontiguousarray(b.psi, dtype="<c16").data)


def _header_complex(value) -> complex:
    """A header's [re, im] pair of JSON numbers; ValueError for anything else ("" and [] would read as 0j)."""
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) in (int, float) for v in value)):
        raise ValueError(f"expected [re, im], got {value!r}")
    return complex(*value)


def _header_label(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"mass_label must be a string, got {value!r}")
    return value


def load_state(path) -> SuperposedState:
    """Read a state container written by ``save_state``.

    Raises BadContainer for a wrong magic or format version, a short or
    unreadable header, a missing or invalid header field, a truncated
    payload or trailing bytes.  Of what ``make_state`` refuses it also
    raises for an empty branch table, two records with one (mass_label,
    metric) key, a non-finite amplitude or sample, and amplitudes that are
    all zero.  A branch whose samples are all zero loads: its norm would
    cost a metric evaluation over the grid at every load.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise BadContainer(f"not a state container (magic {magic!r})")
        prefix = len(_MAGIC) + 8
        if size < prefix:
            raise BadContainer(f"short header: the file ends after {size} bytes")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        if hlen > size - prefix:
            raise BadContainer(f"short header: {hlen} bytes announced, {size - prefix} present")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            version = header["format"]
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: bad UTF-8 or JSON
            raise BadContainer(f"unreadable header: {exc!r}") from exc
        if version in (1, 2, 3):
            raise BadContainer(f"container format {version} is no longer read; regenerate the file")
        if version != FORMAT:
            raise BadContainer(f"unknown container format {version!r}")
        try:
            g = header["grid"]
            grid = GridSpec(lo=tuple(g["lo"]), hi=tuple(g["hi"]), n=tuple(g["n"]), t0=g["t0"])
            units = UnitSystem(**header["units"])
            frame = Frame(header["frame"])
            records = [
                dict(
                    amplitude=_header_complex(rec["amplitude"]),
                    mass_label=_header_label(rec["mass_label"]),
                    mass_position=FourVector.from_array(rec["mass_position"]),
                    metric=metric_from_dict(rec["metric"], units),
                )
                for rec in header["branches"]
            ]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise BadContainer(f"bad header field: {exc!r}") from exc
        count = math.prod(grid.shape)
        payload = size - prefix - hlen
        expected = 16 * count * len(records)
        if payload < expected:
            raise BadContainer(f"truncated payload: {payload} of {expected} bytes")
        if payload > expected:
            raise BadContainer(f"{payload - expected} trailing bytes after the last branch")
        branches = []
        for rec in records:
            psi = np.fromfile(fh, dtype="<c16", count=count).astype(complex, copy=False)
            branches.append(Branch(psi=_freeze(psi.reshape(grid.shape)), **rec))
    _check_branch_values(branches, BadContainer)
    for b in branches:
        _check_finite_samples(b, BadContainer)
    return SuperposedState(branches=tuple(branches), grid=grid, frame=frame)
