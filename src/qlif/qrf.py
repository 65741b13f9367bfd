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
  ``build_tetrad(source_metric, x)``;
* the branch metric register becomes the flat metric: by construction
  f^T g_i f = eta at every support point, which is the per-branch locally
  inertial property, verified and reported rather than assumed.  The
  certificate is max |f^T g_i f - eta| over the support, read from the
  diagonals (``tetrad.diagonal_frame_deviation``) in the same evaluation
  as the measure, once per (metric, grid) (``qstate.metric_on_grid``), so
  ``to_qlif`` evaluates no metric.

The round-trip figure |<input | from_qlif(output)> - 1| is computed
branch by branch inside ``to_qlif``, without building the inverse state:
each branch's samples psi * (-g)^(1/4) are divided by the same factor
again (0 where it is 0) and weighed against the input branch, which are
the operations of ``from_qlif`` followed by ``inner_product``, so the
figure is theirs bit for bit.

The transformation never mixes branches (it is block-diagonal in the
(mass_label, metric) key).  It is fixed entirely by the branch metric on
the source grid, so each output branch keeps only that metric
(``Branch.source_metric``, which also keys it and which the state
container keeps); the source grid is the negated P-frame grid,
and the frames f(x, g_i) and the measure are re-derived from the metric's
diagonal wherever they are needed (deterministically, so they come out the
same every time), through the public names of module ``tetrad``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MissingSourceMetric, SingularRegion, WrongFrame
from .qstate import (
    Branch,
    Frame,
    GridSpec,
    SuperposedState,
    _freeze,
    branch_sqrt_neg_det,
    metric_on_grid,
    state_norm,
)
from .spacetime import MetricField, Minkowski
from .tetrad import frame_deviation, tetrad_arrays

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


def _reverse(a: np.ndarray) -> np.ndarray:
    """Grid relabeling x -> -x (index reversal on every spatial axis)."""
    return a[::-1, ::-1, ::-1]


def _transform_branch(branch: Branch, grid: GridSpec) -> tuple[Branch, float, complex]:
    """The P-frame branch, its certificate and its term of <input | from_qlif(output)>."""
    support = np.asarray(branch.psi).reshape(-1) != 0
    measure, deviation = metric_on_grid(branch.metric, grid)
    # the cached measure is exactly 0 on the singular set and > 0 elsewhere
    singular = support & (measure.reshape(-1) == 0)
    if np.any(singular):
        bad = grid.points4_at(np.array([np.argmax(singular)]))[0]
        raise SingularRegion(
            f"branch {branch.key}: support point {bad.tolist()} is in the "
            f"singular set of {branch.metric.label}"
        )

    # Certify f^T g f = eta where the branch has amplitude (see the module
    # docstring); +inf marks a point without a frame, whose diagonal is
    # evaluated again only for tetrad_arrays to raise DegenerateMetric.
    max_dev = float(np.max(deviation.reshape(-1), where=support, initial=0.0))
    if not np.isfinite(max_dev):
        tetrad_arrays(branch.metric.diagonal_batch(grid.points4_at(np.flatnonzero(support))))

    factor = np.sqrt(measure)
    scaled = branch.psi * factor
    psi_new = _freeze(_reverse(scaled))
    new_branch = replace(branch, metric=Minkowski(branch.metric.units), psi=psi_new, source_metric=branch.metric)

    # from_qlif's sample, back = scaled / factor (0 where factor is 0, where
    # psi is 0 as well), and inner_product's term for it, in the same
    # operations; the buffer of ``scaled`` is reused once psi_new is copied
    back = np.divide(scaled, factor, out=scaled, where=factor > 0)
    np.multiply(np.conj(branch.psi), back, out=back)
    back *= measure
    term = np.conj(branch.amplitude) * branch.amplitude * (np.sum(back) * grid.dvol)
    return new_branch, max_dev, term


def to_qlif(s: SuperposedState) -> tuple[SuperposedState, QrfTransformReport]:
    """Transform an R-frame state to the locally inertial frame of the probe.

    Returns the P-frame state together with the certification report.
    The report's ``roundtrip_error`` is |<s | from_qlif(out)> - 1|, summed
    from one term per branch as that branch is transformed (see the module
    docstring), so no inverse state is built.
    Raises WrongFrame unless ``s`` is R-frame, and SingularRegion if any
    nonzero-amplitude grid point of a branch lies in its metric's singular
    set.
    """
    if s.frame != Frame.R:
        raise WrongFrame(f"to_qlif needs an R-frame state, got {s.frame.value}-frame")

    new_branches = []
    deviations = []
    overlap = 0.0 + 0.0j
    for branch in s.branches:
        nb, dev, term = _transform_branch(branch, s.grid)
        new_branches.append(nb)
        deviations.append(dev)
        overlap += term

    out = SuperposedState(
        branches=tuple(new_branches),
        grid=s.grid.negated(),
        frame=Frame.P,
        units=s.units,
        prefactor=s.prefactor,
    )
    report = QrfTransformReport(
        norm_before=state_norm(s),
        norm_after=state_norm(out),
        max_metric_deviation_at_origin=max(deviations),
        roundtrip_error=abs(complex(overlap) - 1.0),
        branches=tuple(
            BranchTransformRecord(nb.mass_label, nb.source_metric.label, dev)
            for nb, dev in zip(new_branches, deviations)
        ),
    )
    return out, report


def _source_metric(branch: Branch) -> MetricField:
    if branch.source_metric is None:
        raise MissingSourceMetric(f"branch {branch.key} carries no source metric")
    return branch.source_metric


def from_qlif(s: SuperposedState) -> SuperposedState:
    """Invert ``to_qlif`` by dividing out the source measure (-g_i)^(1/4).

    Points where the measure is 0 (the source metric's singular set, where
    ``to_qlif`` only admits zero amplitude) come back as 0.  Raises
    WrongFrame unless ``s`` is P-frame and MissingSourceMetric if a branch
    lacks its source metric (a P-frame branch built by hand, not by
    ``to_qlif`` or ``load_state``).
    """
    if s.frame != Frame.P:
        raise WrongFrame(f"from_qlif needs a P-frame state, got {s.frame.value}-frame")
    grid = s.grid.negated()
    branches = []
    for branch in s.branches:
        restored = replace(branch, metric=_source_metric(branch), psi=_reverse(branch.psi), source_metric=None)
        factor = np.sqrt(branch_sqrt_neg_det(restored, grid))
        psi = np.zeros(grid.shape, dtype=complex)
        np.divide(restored.psi, factor, out=psi, where=factor > 0)
        branches.append(replace(restored, psi=_freeze(psi)))
    return SuperposedState(
        branches=tuple(branches),
        grid=grid,
        frame=Frame.R,
        units=s.units,
        prefactor=s.prefactor,
    )


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
        metric = _source_metric(branch)
        measure = branch_sqrt_neg_det(replace(branch, metric=metric), grid).reshape(-1)
        weight = np.abs(_reverse(np.asarray(branch.psi)).reshape(-1))
        weight[measure == 0] = 0.0
        chosen = _heaviest(weight, min(CHECK_SAMPLE_POINTS, np.count_nonzero(weight)))
        anchors = grid.points4_at(chosen)
        _, f = tetrad_arrays(metric.diagonal_batch(anchors))
        frames.append((branch.mass_label, metric, anchors, f))

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
