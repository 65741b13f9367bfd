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
* the mass coordinate becomes xi_i = b(x, g_i) (x_S - x), the local-frame
  separation seen from the probe;
* the branch metric register becomes the flat metric: by construction
  f^T g_i f = eta at every support point, which is the per-branch locally
  inertial property, verified and reported rather than assumed.  The
  certificate is max |f^T g_i f - eta| over the support.  Every catalog
  metric is diagonal, so it is computed from the diagonal d alone:
  f^T g_i f is diagonal with entries f d f, f = |d|^(-1/2), each to be
  compared with sign(d), since the frame of ``tetrad_arrays`` (a sort of
  the diagonal, see module ``tetrad``) only permutes them onto eta's
  slots.  No (N, 4, 4) array is built, and the figure is the one the
  matrix product f^T g_i f - eta would give, bit for bit.  The per-point
  figure comes from the same diagonal evaluation as the measure, once per
  (metric, grid) (``qstate.metric_on_grid``), so ``to_qlif`` evaluates no
  metric: the certificate is the max of the cached figure over the support.

The transformation never mixes branches (it is block-diagonal in the
(mass_label, metric) key).  It is fixed entirely by the branch metric on
the source grid, so each output branch keeps only that metric
(``Branch.source_metric``, which also keys it and which the state
container keeps); the source grid is the negated P-frame grid,
and the frames f(x, g_i) and the measure are re-derived from the metric's
diagonal wherever they are needed (deterministically, so they come out the
same every time).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MissingTetradRecord, SingularRegion, WrongFrame
from .qstate import (
    Branch,
    Frame,
    GridSpec,
    SuperposedState,
    branch_sqrt_neg_det,
    inner_product,
    metric_on_grid,
    state_norm,
)
from .spacetime import MetricField, Minkowski
from .tetrad import _check_spectrum


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


def _transform_branch(branch: Branch, grid: GridSpec) -> tuple[Branch, float]:
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
    # evaluated again only to raise DegenerateMetric with its spectrum.
    max_dev = float(np.max(deviation.reshape(-1)[support], initial=0.0))
    if not np.isfinite(max_dev):
        _check_spectrum(branch.metric.diagonal_batch(grid.points4_at(np.flatnonzero(support))))

    factor = np.sqrt(measure)
    psi_new = _reverse(branch.psi * factor).copy()
    psi_new.setflags(write=False)
    new_branch = replace(branch, metric=Minkowski(branch.metric.units), psi=psi_new, source_metric=branch.metric)
    return new_branch, max_dev


def to_qlif(s: SuperposedState) -> tuple[SuperposedState, QrfTransformReport]:
    """Transform an R-frame state to the locally inertial frame of the probe.

    Returns the P-frame state together with the certification report.
    Raises WrongFrame unless ``s`` is R-frame, and SingularRegion if any
    nonzero-amplitude grid point of a branch lies in its metric's singular
    set.
    """
    if s.frame != Frame.R:
        raise WrongFrame(f"to_qlif needs an R-frame state, got {s.frame.value}-frame")

    new_branches = []
    deviations = []
    for branch in s.branches:
        nb, dev = _transform_branch(branch, s.grid)
        new_branches.append(nb)
        deviations.append(dev)

    out = SuperposedState(
        branches=tuple(new_branches),
        grid=s.grid.negated(),
        frame=Frame.P,
        units=s.units,
        prefactor=s.prefactor,
    )
    roundtrip = abs(inner_product(s, from_qlif(out)) - 1.0)
    report = QrfTransformReport(
        norm_before=state_norm(s),
        norm_after=state_norm(out),
        max_metric_deviation_at_origin=max(deviations),
        roundtrip_error=roundtrip,
        branches=tuple(
            BranchTransformRecord(nb.mass_label, nb.source_metric.label, dev)
            for nb, dev in zip(new_branches, deviations)
        ),
    )
    return out, report


def _source_metric(branch: Branch) -> MetricField:
    if branch.source_metric is None:
        raise MissingTetradRecord(f"branch {branch.key} carries no source metric")
    return branch.source_metric


def from_qlif(s: SuperposedState) -> SuperposedState:
    """Invert ``to_qlif`` by dividing out the source measure (-g_i)^(1/4).

    Points where the measure is 0 (the source metric's singular set, where
    ``to_qlif`` only admits zero amplitude) come back as 0.  Raises
    WrongFrame unless ``s`` is P-frame and MissingTetradRecord if a branch
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
        psi.setflags(write=False)
        branches.append(replace(restored, psi=psi))
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


def check_qlif_metric(
    s: SuperposedState, radius: float, sample_points: int = 16
) -> list[QlifMetricRow]:
    """Max |g' - eta| per branch within local distance ``radius`` of the origin.

    For each branch the ``sample_points`` highest-amplitude support points
    are probed along the eight +-axis directions of the local frame at
    distance ``radius`` (plus the origin itself); g' is the source metric
    pulled back through the point's frame, re-derived from the source
    metric's diagonal d_a at the anchor: the frame's column for axis mu is
    f_mu e_mu, f = |d_a|^(-1/2), so g' is diagonal with entries f d f, each
    compared with sign(d_a) (see the module docstring).  The deviation
    vanishes at the origin by construction and grows linearly in the
    radius, which is the leading-order-only locality of the frame.
    """
    if s.frame != Frame.P:
        raise WrongFrame(f"check_qlif_metric needs a P-frame state, got {s.frame.value}-frame")
    if radius < 0.0:
        raise ValueError("radius must be >= 0")

    grid = s.grid.negated()
    rows = []
    for branch in s.branches:
        metric = _source_metric(branch)
        measure = branch_sqrt_neg_det(replace(branch, metric=metric), grid).reshape(-1)
        weight = np.abs(_reverse(np.asarray(branch.psi)).reshape(-1))
        weight[measure == 0] = 0.0
        chosen = _heaviest(weight, min(sample_points, np.count_nonzero(weight)))
        anchors = grid.points4_at(chosen)
        da = metric.diagonal_batch(anchors)
        _check_spectrum(da)
        f = 1.0 / np.sqrt(np.abs(da))

        # per anchor: the anchor, then anchor +- radius * f_mu e_mu (the frame's columns)
        steps = radius * f[:, :, None] * np.eye(4)
        targets = np.empty((len(anchors), 9, 4))
        targets[:, 0] = anchors
        targets[:, 1:] = anchors[:, None, :] + np.concatenate([steps, -steps], axis=1)
        targets = targets.reshape(-1, 4)
        ok = metric.valid_mask(targets)
        # f^T g f is diagonal with entries f d f, each compared with the anchor's sign(d)
        fk = np.repeat(f, 9, axis=0)[ok]
        d = metric.diagonal_batch(targets[ok])
        max_dev = float(np.max(np.abs(fk * d * fk - np.repeat(np.sign(da), 9, axis=0)[ok]), initial=0.0))
        rows.append(QlifMetricRow(branch.mass_label, metric.label, float(radius), max_dev))
    return rows
