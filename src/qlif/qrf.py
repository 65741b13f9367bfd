"""Frame change to the Quantum Locally Inertial Frame of the probe particle.

``to_qlif`` applies, branch by branch and grid point by grid point, the
linear frame change of module ``tetrad``, controlled on the probe position
x and the branch label.  For a branch with metric g_i and mass coordinate
x_S, the component at probe position x is relabeled as follows:

* the old origin R acquires the relative coordinate -x, so the transformed
  wavefunction over the new grid is psi'(y) = psi(-y) (-g_i(-y))^(1/4);
  folding the fourth root of the measure into the samples is what lets the
  flat-measure overlap in the new frame reproduce the curved-measure
  overlap in the old one, making the map unitary on the implemented state
  class;
* the mass coordinate seen from the probe is the local-frame separation
  xi_i = b(x, g_i) (x_S - x).  It is not stored: ``mass_position`` is
  kept as it was, and xi is derived when needed, as
  ``b * (mass_position - x)`` with ``b`` from
  ``build_tetrad(metric, x)``;
* the branch keeps its label and its metric g_i; the state's frame tag
  becomes P, under which its samples are weighed flat, because by
  construction f^T g_i f = eta at every support point, which is the
  per-branch locally inertial property, verified and reported rather
  than assumed.  The certificate is max |f^T g_i f - eta| over the
  support, read from the diagonals (``tetrad.diagonal_frame_deviation``)
  as one maximum per stretch of the pass below (``qstate.metric_on_grid``),
  or, where psi has zeros, from the stretch's support points evaluated again.

The report's sums come from one pass per branch inside ``to_qlif``, over
the stretches in which ``qstate._pairwise`` splits the grid, with no
whole-grid temporary and no norm taken again.  Each stretch writes its
P-frame samples and forms two terms in the operations of
``inner_product``: psi against itself under sqrt(-g) (``norm_before``),
and the samples psi * (-g)^(1/4) with the same factor divided out again
and weighed against psi, which are the operations of ``from_qlif``
followed by ``inner_product`` (the round-trip figure
|<input | from_qlif(output)> - 1|, without building the inverse state).
``norm_after`` sums the new samples against themselves, flat, with
``inner_product``'s kernel over the P-frame array in its own order, which
reverses the pass's.  Each figure is its explicit route's bit for bit.

Both ``from_qlif`` and the pass divide the factor out as a product with its
float reciprocal on every stretch whose measure is all > 0; a stretch that
touches the singular set keeps numpy's complex divide, which leaves 0 where
the factor is 0.  The product equals the divide except in the sign of parts
that are exactly 0, and such a sign cannot reach a sum: every product in a
term that reads a zero part is itself a zero, and a zero of either sign
added to a nonzero value leaves it unchanged, so a term, and then a sum,
can change only in the sign of an exact 0.

The transformation never mixes branches (it is block-diagonal in the
(mass_label, metric) key).  It is fixed entirely by the branch metric on
the source grid, the negated P-frame grid, so a P-frame branch keeps only
its metric (``Branch.metric``, which keys it in both frames), and the
frames f(x, g_i) and the measure are re-derived from the metric's diagonal
wherever they are needed (deterministically, so they come out the same
every time), through the public names of module ``tetrad``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularRegion, WrongFrame
from .qstate import (
    Branch,
    Frame,
    GridSpec,
    SuperposedState,
    _BLOCK,
    _freeze,
    _overlap_sum,
    _pairwise,
    branch_sqrt_neg_det,
    metric_on_grid,
)
from .tetrad import diagonal_frame_deviation, frame_deviation, tetrad_arrays

# Highest-amplitude support points probed per branch by ``check_qlif_metric``.
CHECK_SAMPLE_POINTS = 16


@dataclass(frozen=True)
class BranchTransformRecord:
    """Per-branch certification of the QLIF postcondition."""

    mass_label: str
    metric_id: str
    max_metric_deviation_at_origin: float


@dataclass(frozen=True)
class QrfTransformReport:
    """Numbers certifying one ``to_qlif`` run.

    ``max_metric_deviation_at_origin`` is max |g'(0) - eta| over all
    branches and support points; ``roundtrip_error`` is
    |<input | from_qlif(to_qlif(input))> - 1|.
    """

    norm_before: float
    norm_after: float
    max_metric_deviation_at_origin: float
    roundtrip_error: float
    branches: tuple[BranchTransformRecord, ...] = ()

    def __post_init__(self):
        for name in (
            "norm_before",
            "norm_after",
            "max_metric_deviation_at_origin",
            "roundtrip_error",
        ):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"report field {name} must be finite and >= 0, got {v!r}")


def _divide_out(x: np.ndarray, f: np.ndarray, out: np.ndarray) -> None:
    """out = x / f for complex samples x and a float factor f >= 0, as ``from_qlif`` forms it; f is overwritten.

    Where every f is > 0 this is the product with the float reciprocal
    1 / f, at under half the cost of numpy's complex divide.  The divide
    forms (x_r + x_i * 0) * (1 / f) and (x_i - x_r * 0) * (1 / f), so the two
    differ only in the sign of parts that are exactly 0.  Elsewhere it is
    the divide, and ``out`` keeps its values where f is 0.
    """
    if np.minimum.reduce(f) > 0.0:
        np.multiply(x, np.divide(1.0, f, out=f), out=out)
    else:
        np.divide(x, f, out=out, where=f > 0.0)


def _transform_branch(branch: Branch, grid: GridSpec) -> tuple[Branch, float, tuple]:
    """The P-frame branch, its certificate, and its grid sums for <input|input>,
    <input | from_qlif(output)> and <output|output>, in that order.

    One ``_pairwise`` pass over the branch: each stretch writes its P-frame
    samples and forms the first two terms in the operations of
    ``inner_product`` (see the module docstring), through buffers reused
    stretch by stretch; ``_overlap_sum`` then sums the third.
    """
    psi = branch.psi.reshape(-1)
    measure, deviation = metric_on_grid(branch.metric, grid)
    measure, tops = measure.reshape(-1), iter(deviation.tolist())
    n = psi.size
    new = np.empty(n, dtype=complex)
    k = min(n, _BLOCK)
    cbuf = np.empty((3, k), dtype=complex)
    root, support_buf = np.empty(k), np.empty(k, dtype=bool)
    max_dev = 0.0

    def leaf(lo, hi):
        nonlocal max_dev
        m = hi - lo
        p, w, top = psi[lo:hi], measure[lo:hi], next(tops)
        conj, t, wc = cbuf[:, :m]
        support = support_buf[:m]
        f = root[:m]
        # The cached measure is exactly 0 on the singular set and > 0 elsewhere.
        # Certify f^T g f = eta where the branch has amplitude (see the module
        # docstring); +inf, a point without a frame, is raised on after the pass.
        # After the first stretch the support is needed only where a stretch
        # has a zero measure or its maximum ``top`` could raise the certificate.
        if not (max_dev > 0.0 and top <= max_dev and np.minimum.reduce(w) > 0.0):
            np.not_equal(p, 0, out=support)
            if not np.all(w, where=support):
                bad = grid.points4_at(np.array([lo + np.argmax(support & (w == 0))]))[0]
                raise SingularRegion(
                    f"branch {branch.key}: support point {bad.tolist()} is in the "
                    f"singular set of {branch.metric.label}"
                )
            if not top <= max_dev and not np.all(support):  # the maximum over the support alone
                pts = grid.points4_at(lo + np.flatnonzero(support))
                top = np.maximum.reduce(diagonal_frame_deviation(branch.metric.diagonal_batch(pts)), initial=-np.inf)
            max_dev = float(np.maximum(max_dev, top))

        # the measure is cast to complex once, as the ufuncs would cast it
        wc[:] = w
        np.sqrt(w, out=f)
        np.conjugate(p, out=conj)
        np.multiply(conj, p, out=t)
        np.multiply(t, wc, out=t)
        own = np.add.reduce(t)
        np.multiply(p, f, out=t)
        new[n - hi : n - lo] = t[::-1]
        # from_qlif's sample, back = scaled / factor, in from_qlif's operations,
        # and inner_product's term for it
        _divide_out(t, f, t)
        np.multiply(conj, t, out=t)
        np.multiply(t, wc, out=t)
        return np.array([own, np.add.reduce(t)])

    own, back = _pairwise(0, n, leaf)
    if not np.isfinite(max_dev):  # evaluated again only for tetrad_arrays to raise DegenerateMetric
        tetrad_arrays(branch.metric.diagonal_batch(grid.points4_at(np.flatnonzero(psi))))
    # <output|output> over the P-frame samples in their own order, the reverse of this pass's
    return replace(branch, psi=_freeze(new.reshape(grid.shape))), max_dev, (own, back, _overlap_sum(new, new))


def to_qlif(s: SuperposedState) -> tuple[SuperposedState, QrfTransformReport]:
    """Transform an R-frame state to the locally inertial frame of the probe.

    Returns the P-frame state together with the certification report.
    The report's ``norm_before``, ``roundtrip_error`` and ``norm_after``
    are summed from the grid sums of each branch's one transform pass (see
    the module docstring), so no inverse state is built and no norm is
    taken again.
    Raises WrongFrame unless ``s`` is R-frame, and SingularRegion if any
    nonzero-amplitude grid point of a branch lies in its metric's singular
    set.
    """
    if s.frame != Frame.R:
        raise WrongFrame(f"to_qlif needs an R-frame state, got {s.frame.value}-frame")

    new_branches = []
    deviations = []
    # <input|input>, <input | from_qlif(output)> and <output|output>, term by
    # term as inner_product adds them; the P-frame grid has the same dvol
    totals = [0.0 + 0.0j] * 3
    for branch in s.branches:
        nb, dev, sums = _transform_branch(branch, s.grid)
        new_branches.append(nb)
        deviations.append(dev)
        weight = np.conj(branch.amplitude) * branch.amplitude
        totals = [total + weight * (v * s.grid.dvol) for total, v in zip(totals, sums)]
    norm_before, overlap, norm_after = totals

    out = SuperposedState(branches=tuple(new_branches), grid=s.grid.negated(), frame=Frame.P)
    report = QrfTransformReport(
        norm_before=float(np.real(norm_before)),
        norm_after=float(np.real(norm_after)),
        max_metric_deviation_at_origin=max(deviations),
        roundtrip_error=abs(complex(overlap) - 1.0),
        branches=tuple(
            BranchTransformRecord(nb.mass_label, nb.metric.label, dev)
            for nb, dev in zip(new_branches, deviations)
        ),
    )
    return out, report


def from_qlif(s: SuperposedState) -> SuperposedState:
    """Invert ``to_qlif`` by dividing out the branch measure (-g_i)^(1/4) over the source grid.

    The division runs stretch by stretch, as ``_divide_out`` (see the module
    docstring).  Points where the measure is 0 (the metric's singular set,
    where ``to_qlif`` only admits zero amplitude) come back as 0.  Raises
    WrongFrame unless ``s`` is P-frame.
    """
    if s.frame != Frame.P:
        raise WrongFrame(f"from_qlif needs a P-frame state, got {s.frame.value}-frame")
    grid = s.grid.negated()
    branches = []
    for branch in s.branches:
        measure = branch_sqrt_neg_det(branch, grid).reshape(-1)
        # x -> -x: reversing every axis of a C-order array reverses its flat order
        scaled = branch.psi.reshape(-1)[::-1]
        psi = np.zeros(scaled.size, dtype=complex)
        root = np.empty(min(scaled.size, _BLOCK))
        for lo in range(0, scaled.size, _BLOCK):
            hi = min(lo + _BLOCK, scaled.size)
            f = np.sqrt(measure[lo:hi], out=root[: hi - lo])
            _divide_out(scaled[lo:hi], f, psi[lo:hi])
        branches.append(replace(branch, psi=_freeze(psi.reshape(grid.shape))))
    return SuperposedState(branches=tuple(branches), grid=grid, frame=Frame.R)


@dataclass(frozen=True)
class QlifMetricRow:
    """One row of the local-metric deviation table."""

    mass_label: str
    metric_id: str
    radius: float
    max_deviation: float


def _heaviest(weight: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest weights, ties in index order.

    Equal to ``np.argsort(-weight, kind="stable")[:k]``; only the points
    at or above the k-th largest weight are sorted.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    threshold = np.partition(weight, weight.size - k)[weight.size - k]
    candidates = np.flatnonzero(weight >= threshold)
    return candidates[np.argsort(-weight[candidates], kind="stable")[:k]]


def _anchor_indices(branch: Branch, grid: GridSpec) -> np.ndarray:
    """Source-grid flat indices of the branch's ``CHECK_SAMPLE_POINTS`` largest |psi| off the
    singular set, ties in index order, nonzero ones only: ``_heaviest`` of the masked weights.

    Only rows (runs along the last axis) whose largest |psi| reaches the
    k-th largest row maximum can hold one of the k, so only those rows go to
    ``_heaviest``, in source order.  The rows are read from the P-frame
    samples, whose row i is source row (rows - 1 - i) reversed, their maxima
    through one buffer of ``_BLOCK`` points.  Should the singular-set mask
    leave fewer than k of their weights at that maximum, every row goes.
    """
    k, width = CHECK_SAMPLE_POINTS, grid.shape[2]
    p_rows = branch.psi.reshape(-1, width)
    step = max(1, _BLOCK // width)
    buf, top = np.empty((min(step, len(p_rows)), width)), np.empty(len(p_rows))
    for r in range(0, len(p_rows), step):
        block = p_rows[r : r + step]
        np.maximum.reduce(np.abs(block, out=buf[: len(block)]), axis=1, out=top[r : r + step])
    top, rows = top[::-1], p_rows[::-1, ::-1]
    measure = branch_sqrt_neg_det(branch, grid).reshape(rows.shape)
    floor = np.partition(top, top.size - k)[top.size - k] if top.size > k else 0.0
    # a row of zeros holds no anchor
    chosen = np.flatnonzero(top >= floor) if floor > 0.0 else np.flatnonzero(top)
    weight = np.abs(rows[chosen])
    weight[measure[chosen] == 0] = 0.0
    if floor > 0.0 and np.count_nonzero(weight >= floor) < k:
        chosen = np.arange(len(rows))
        weight = np.abs(rows)
        weight[measure == 0] = 0.0
    weight = weight.reshape(-1)
    picks = _heaviest(weight, min(k, np.count_nonzero(weight)))
    return chosen[picks // width] * width + picks % width


def check_qlif_metric(s: SuperposedState, *radii: float) -> list[QlifMetricRow]:
    """Max |g' - eta| per branch within local distance r of the origin, for each r in ``radii``.

    For each branch the ``CHECK_SAMPLE_POINTS`` highest-amplitude support
    points are probed along the eight +-axis directions of the local frame
    at distance r (plus the origin itself).  The frame at each anchor is
    its diagonal f (``tetrad_arrays``), whose column for axis mu is
    f_mu e_mu, and g' at each target is read by ``frame_deviation`` from f
    and the target's diagonal.  The anchors and their frames are chosen
    once per branch and serve every radius.  Rows run radius by radius,
    branches in state order within each.  The deviation vanishes at the
    origin by construction and grows linearly in the radius, the
    leading-order-only locality of the frame.  ValueError unless every
    radius is finite and >= 0.
    """
    if s.frame != Frame.P:
        raise WrongFrame(f"check_qlif_metric needs a P-frame state, got {s.frame.value}-frame")
    for radius in radii:
        if not (np.isfinite(radius) and radius >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, got {radius!r}")
    if not radii:
        return []

    grid = s.grid.negated()
    frames = []
    for branch in s.branches:
        anchors = grid.points4_at(_anchor_indices(branch, grid))
        _, f = tetrad_arrays(branch.metric.diagonal_batch(anchors))
        frames.append((branch.mass_label, branch.metric, anchors, f))

    rows = []
    for radius in radii:
        for mass_label, metric, anchors, f in frames:
            # per anchor: the anchor, then anchor +- radius * f_mu e_mu (the frame's columns)
            steps = radius * f[:, :, None] * np.eye(4)
            a = anchors[:, None, :]
            targets = np.concatenate([a, a + steps, a - steps], axis=1).reshape(-1, 4)
            ok = metric.valid_mask(targets)
            dev = frame_deviation(np.repeat(f, 9, axis=0)[ok], metric.diagonal_batch(targets[ok]))
            rows.append(QlifMetricRow(mass_label, metric.label, float(radius), float(np.max(dev, initial=0.0))))
    return rows
