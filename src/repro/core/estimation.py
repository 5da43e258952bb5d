"""Feature-impact estimation from representative scenarios (paper §4.5, §5.3).

*All-job* impact: replay each group's representative with the feature on
and off, and average the per-representative MIPS reductions weighted by
group size — the likelihood of observing a scenario from that group.

*Per-job* impact: a representative may not contain the job of interest
even when its group does; walk to the next-nearest member that does, and
weight groups by their observation-weighted instance count of the job.

Both read only the representative set's pre-resolved
:class:`~repro.core.representatives.MemberTable`, so an estimate costs
its replays and nothing that grows with the scenario population.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.features import Feature
from ..cluster.scenario import Scenario
from ..runtime.executor import Executor
from ..runtime.resilience import TaskFailure
from .replayer import ReplayMeasurement, Replayer
from .representatives import RepresentativeSet

__all__ = [
    "ClusterImpact",
    "FeatureImpactEstimate",
    "estimate_all_job_impact",
    "estimate_per_job_impact",
]


@dataclass(frozen=True)
class ClusterImpact:
    """One group's contribution to an estimate."""

    cluster_id: int
    weight: float
    scenario_id: int
    reduction_pct: float
    measurement: ReplayMeasurement | None = None


@dataclass(frozen=True)
class FeatureImpactEstimate:
    """A FLARE estimate with its per-group breakdown.

    Attributes
    ----------
    feature:
        Feature evaluated.
    job_name:
        None for the all-job estimate; the job code for per-job ones.
    reduction_pct:
        The weighted-average MIPS reduction estimate.
    per_cluster:
        Group-level contributions (weights renormalised over the groups
        that could be measured).
    evaluation_cost:
        Number of scenario replays performed — the unit the paper's cost
        comparison (Figure 13) counts.
    """

    feature: Feature
    job_name: str | None
    reduction_pct: float
    per_cluster: tuple[ClusterImpact, ...]
    evaluation_cost: int

    def cluster_reductions(self) -> dict[int, float]:
        """Mapping cluster_id → estimated reduction (Figure 11 data)."""
        return {c.cluster_id: c.reduction_pct for c in self.per_cluster}


def estimate_all_job_impact(
    representatives: RepresentativeSet,
    replayer: Replayer,
    feature: Feature,
    *,
    executor: "Executor | str | None" = None,
) -> FeatureImpactEstimate:
    """FLARE's comprehensive (all HP jobs) impact estimate.

    Scenario selection stays serial (it is cheap); the per-representative
    replays — the measured cost of the method — fan out on *executor*.
    Replays degraded to :class:`~repro.runtime.resilience.TaskFailure`
    under a ``retry_then_skip`` policy are dropped and the estimate
    renormalises over the groups that were actually measured.
    """
    table = representatives.member_table()
    selected: list[tuple[tuple[int, float], Scenario]] = []
    for group in representatives.groups:
        scenario = table.hp_member(group.cluster_id)
        if scenario is None:
            # LP-only group: hosts nothing whose performance is managed.
            continue
        selected.append(((group.cluster_id, group.weight), scenario))

    measurements = replayer.replay_many(
        tuple(scenario for _, scenario in selected), feature, executor=executor
    )
    contributions = [
        ClusterImpact(
            cluster_id=cluster_id,
            weight=weight,
            scenario_id=scenario.scenario_id,
            reduction_pct=measurement.reduction_pct,
            measurement=measurement,
        )
        for ((cluster_id, weight), scenario), measurement in zip(
            selected, measurements
        )
        if not isinstance(measurement, TaskFailure)
    ]
    return _weighted_estimate(feature, None, contributions, len(contributions))


def estimate_per_job_impact(
    representatives: RepresentativeSet,
    replayer: Replayer,
    feature: Feature,
    job_name: str,
    *,
    executor: "Executor | str | None" = None,
) -> FeatureImpactEstimate:
    """FLARE's impact estimate for one HP job (§5.3 per-job method)."""
    table = representatives.member_table()
    selected: list[tuple[tuple[int, float], Scenario]] = []
    for group in representatives.groups:
        weight = table.job_weight(group.cluster_id, job_name)
        if weight <= 0.0:
            continue
        scenario = table.job_member(group.cluster_id, job_name)
        if scenario is None:
            continue
        selected.append(((group.cluster_id, weight), scenario))

    measurements = replayer.replay_many(
        tuple(scenario for _, scenario in selected), feature, executor=executor
    )
    contributions = [
        ClusterImpact(
            cluster_id=cluster_id,
            weight=weight,
            scenario_id=scenario.scenario_id,
            reduction_pct=measurement.job_reduction_pct(job_name),
            measurement=measurement,
        )
        for ((cluster_id, weight), scenario), measurement in zip(
            selected, measurements
        )
        if not isinstance(measurement, TaskFailure)
    ]
    if not contributions:
        raise ValueError(
            f"job {job_name!r} does not appear in any scenario group"
        )
    return _weighted_estimate(
        feature, job_name, contributions, len(contributions)
    )


def _weighted_estimate(
    feature: Feature,
    job_name: str | None,
    contributions: list[ClusterImpact],
    cost: int,
) -> FeatureImpactEstimate:
    total_weight = sum(c.weight for c in contributions)
    if total_weight <= 0.0:
        raise ValueError("no measurable scenario groups for this estimate")
    normalised = tuple(
        ClusterImpact(
            cluster_id=c.cluster_id,
            weight=c.weight / total_weight,
            scenario_id=c.scenario_id,
            reduction_pct=c.reduction_pct,
            measurement=c.measurement,
        )
        for c in contributions
    )
    estimate = sum(c.weight * c.reduction_pct for c in normalised)
    return FeatureImpactEstimate(
        feature=feature,
        job_name=job_name,
        reduction_pct=float(estimate),
        per_cluster=normalised,
        evaluation_cost=cost,
    )
