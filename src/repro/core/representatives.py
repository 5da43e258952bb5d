"""Step 3 output: representative scenario extraction (paper §4.4–4.5).

For each cluster, the representative is the member scenario nearest to the
cluster centroid.  Members are kept ranked by centroid distance so the
per-job estimator can walk to the "next nearest" scenario when the
representative does not contain the job of interest (§5.3).

Those walks are answered once, up front: a :class:`MemberTable` records
for every group the first member hosting any HP job and the first
member hosting each job, the group's observation-weighted instance
count of each job, and the few member scenarios those answers name.
The estimators read only the table, so evaluating a feature never
touches the scenario population — and a saved model carries the table
instead of the population.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cluster.scenario import Scenario, ScenarioDataset
from ..cluster.source import ScenarioSource, job_count_table
from .analyzer import AnalysisResult

__all__ = [
    "ClusterGroup",
    "FitBaseline",
    "MemberTable",
    "RepresentativeSet",
    "extract_representatives",
    "fit_baseline_from_assignments",
    "representatives_from_assignments",
    "resolve_member_table",
]

#: Distance quantile beyond which an observed scenario counts as novel
#: (the drift monitor's calibrated novelty threshold).
NOVELTY_QUANTILE = 0.99


@dataclass(frozen=True)
class FitBaseline:
    """Fit-time health statistics of one clustering.

    Recorded when a model is fitted and persisted with it, so the drift
    monitor (:mod:`repro.obs.monitor`) can score any later scenario
    stream against *what the model looked like when it was trusted*:
    cluster occupancy for population-stability scoring, assignment
    distances and SSE for tightness deltas, and a calibrated distance
    quantile as the novelty threshold.

    Attributes
    ----------
    n_scenarios:
        Population size at fit time.
    occupancy:
        Observation-time share of each cluster (sums to 1) — the same
        quantity as the analysis' ``cluster_weights`` at fit time.
    count_share:
        Unweighted membership share of each cluster (sums to 1).
    mean_distance:
        Per-cluster mean member distance to the assigned centroid, in
        whitened PC space.
    sse:
        Total squared assignment distance (the clustering inertia).
    distance_quantiles:
        ``{"p50": ..., "p90": ..., "p99": ...}`` of the assignment
        distance distribution.
    novelty_threshold:
        Assignment distance beyond which a scenario counts as novel
        (the :data:`NOVELTY_QUANTILE` quantile of fit-time distances).
    """

    n_scenarios: int
    occupancy: np.ndarray
    count_share: np.ndarray
    mean_distance: np.ndarray
    sse: float
    distance_quantiles: dict[str, float]
    novelty_threshold: float

    @property
    def n_clusters(self) -> int:
        return int(self.occupancy.shape[0])

    @property
    def sse_per_scenario(self) -> float:
        return self.sse / self.n_scenarios if self.n_scenarios else 0.0

    def to_dict(self) -> dict:
        return {
            "n_scenarios": self.n_scenarios,
            "occupancy": [float(v) for v in self.occupancy],
            "count_share": [float(v) for v in self.count_share],
            "mean_distance": [float(v) for v in self.mean_distance],
            "sse": self.sse,
            "distance_quantiles": dict(self.distance_quantiles),
            "novelty_threshold": self.novelty_threshold,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FitBaseline":
        return cls(
            n_scenarios=int(payload["n_scenarios"]),
            occupancy=np.asarray(payload["occupancy"], dtype=np.float64),
            count_share=np.asarray(payload["count_share"], dtype=np.float64),
            mean_distance=np.asarray(
                payload["mean_distance"], dtype=np.float64
            ),
            sse=float(payload["sse"]),
            distance_quantiles={
                k: float(v)
                for k, v in payload["distance_quantiles"].items()
            },
            novelty_threshold=float(payload["novelty_threshold"]),
        )


def fit_baseline_from_assignments(
    *,
    labels: np.ndarray,
    sq_distances: np.ndarray,
    weights: np.ndarray,
    n_clusters: int,
) -> FitBaseline:
    """Derive the fit-time baseline from per-point assignments.

    Works from exactly the information both fit paths share — the
    labelling and the squared assignment distances — so the in-memory
    and out-of-core fits record matching baselines wherever their
    assignments match.
    """
    labels = np.asarray(labels)
    sq = np.asarray(sq_distances, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = int(labels.shape[0])
    distances = np.sqrt(sq)
    counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
    mass = np.bincount(labels, weights=weights, minlength=n_clusters)
    distance_sums = np.bincount(
        labels, weights=distances, minlength=n_clusters
    )
    quantiles = np.quantile(distances, [0.5, 0.9, 0.99])
    return FitBaseline(
        n_scenarios=n,
        occupancy=mass / mass.sum(),
        count_share=counts / max(n, 1),
        mean_distance=distance_sums / np.maximum(counts, 1.0),
        sse=float(sq.sum()),
        distance_quantiles={
            "p50": float(quantiles[0]),
            "p90": float(quantiles[1]),
            "p99": float(quantiles[2]),
        },
        novelty_threshold=float(
            np.quantile(distances, NOVELTY_QUANTILE)
        ),
    )


@dataclass(frozen=True)
class ClusterGroup:
    """One scenario group and its representative.

    Attributes
    ----------
    cluster_id:
        Cluster index.
    weight:
        Observation-time share of the group (sums to 1 across groups).
    centroid:
        Cluster centre in whitened PC space.
    ranked_members:
        Scenario indices ordered by distance to the centroid (nearest
        first); ``ranked_members[0]`` is the representative.
    """

    cluster_id: int
    weight: float
    centroid: np.ndarray
    ranked_members: tuple[int, ...]

    @property
    def representative_index(self) -> int:
        return self.ranked_members[0]

    @property
    def size(self) -> int:
        return len(self.ranked_members)


@dataclass(frozen=True)
class MemberTable:
    """Pre-resolved member lookups of one representative set.

    The paper's fallback — "we check the next nearest scenario to the
    cluster center until we find the target job" — answered for every
    group and every job at once.  All maps are keyed by cluster id.

    Attributes
    ----------
    hp:
        First ranked member hosting any HP instance (``None`` for an
        LP-only group).
    jobs:
        Job name -> first ranked member hosting that job (or ``None``).
    job_weights:
        Job name -> observation-weighted instance count of the job in
        the group (§5.3's "likelihood to observe the job").
    scenarios:
        The member scenarios the lookups name, plus each group's
        representative, by population index.
    """

    hp: dict[int, int | None]
    jobs: dict[str, dict[int, int | None]]
    job_weights: dict[str, dict[int, float]]
    scenarios: dict[int, Scenario]

    def hp_member(self, cluster_id: int) -> Scenario | None:
        return self._scenario(self.hp[cluster_id])

    def job_member(self, cluster_id: int, job_name: str) -> Scenario | None:
        members = self.jobs.get(job_name)
        return None if members is None else self._scenario(
            members[cluster_id]
        )

    def job_weight(self, cluster_id: int, job_name: str) -> float:
        weights = self.job_weights.get(job_name)
        return 0.0 if weights is None else weights[cluster_id]

    def _scenario(self, index: int | None) -> Scenario | None:
        return None if index is None else self.scenarios[index]


def resolve_member_table(
    groups: "tuple[ClusterGroup, ...]", dataset: ScenarioSource
) -> MemberTable:
    """Answer every member lookup of *groups* from *dataset*'s columns.

    One columnar pass (:func:`~repro.cluster.source.job_count_table`;
    a store reads its instance tables, decoding nothing), then one
    ``dataset[i]`` per distinct member the answers name.  Each job
    weight keeps the sequential left-to-right float association of the
    historical per-member walk, so it is bit-identical to
    ``sum(weights[i] * dataset[i].count_of(job))`` over the ranking.
    """
    table = job_count_table(dataset)
    weights = dataset.weights()
    hp_present = table.hp_presence()
    hp: dict[int, int | None] = {}
    jobs: dict[str, dict[int, int | None]] = {n: {} for n in table.names}
    job_weights: dict[str, dict[int, float]] = {n: {} for n in table.names}
    wanted = set()
    for group in groups:
        members = np.fromiter(
            group.ranked_members, dtype=np.int64, count=group.size
        )
        hp[group.cluster_id] = _first(members, hp_present[members])
        member_weights = weights[members]
        for j, name in enumerate(table.names):
            counts = table.counts[members, j]
            jobs[name][group.cluster_id] = _first(members, counts > 0)
            job_weights[name][group.cluster_id] = float(
                sum((member_weights * counts).tolist())
            )
        wanted.add(group.representative_index)
    wanted.update(i for i in hp.values() if i is not None)
    for per_group in jobs.values():
        wanted.update(i for i in per_group.values() if i is not None)
    return MemberTable(
        hp=hp,
        jobs=jobs,
        job_weights=job_weights,
        scenarios={i: dataset[i] for i in sorted(wanted)},
    )


def _first(members: np.ndarray, present: np.ndarray) -> int | None:
    hits = np.flatnonzero(present)
    return None if hits.size == 0 else int(members[hits[0]])


@dataclass(frozen=True)
class RepresentativeSet:
    """All cluster groups of one analysis, plus convenience accessors.

    ``dataset`` is any :class:`~repro.cluster.ScenarioSource` — the
    in-memory dataset for classic fits, the sharded store itself for
    out-of-core fits, so holding a representative set never forces the
    full population into memory.  It is ``None`` for a model loaded from
    an artefact, whose ``members`` table was resolved before saving.
    """

    dataset: ScenarioSource | None
    groups: tuple[ClusterGroup, ...]
    #: Fit-time health statistics (occupancy, distances, novelty
    #: threshold) the drift monitor scores against; ``None`` only for
    #: representative sets built by legacy callers.
    baseline: "FitBaseline | None" = None
    #: Pre-resolved member lookups; resolved from ``dataset`` on first
    #: use when not given (see :meth:`member_table`).
    members: MemberTable | None = None

    def __len__(self) -> int:
        return len(self.groups)

    def member_table(self) -> MemberTable:
        """The resolved :class:`MemberTable` (resolved once, then kept)."""
        if self.members is None:
            if self.dataset is None:
                raise RuntimeError(
                    "representative set has neither a member table nor "
                    "a population to resolve one from"
                )
            object.__setattr__(
                self, "members", resolve_member_table(self.groups, self.dataset)
            )
        return self.members

    def representative_scenarios(self) -> tuple[Scenario, ...]:
        """The one-per-group representative scenarios."""
        scenarios = self.member_table().scenarios
        return tuple(scenarios[g.representative_index] for g in self.groups)

    def weights(self) -> np.ndarray:
        return np.array([g.weight for g in self.groups])

    def group_of_scenario(self, scenario_index: int) -> ClusterGroup:
        """The group containing dataset scenario *scenario_index*."""
        index = getattr(self, "_group_index_cache", None)
        if index is None:
            index = {
                member: group
                for group in self.groups
                for member in group.ranked_members
            }
            object.__setattr__(self, "_group_index_cache", index)
        try:
            return index[scenario_index]
        except KeyError:
            raise KeyError(
                f"scenario {scenario_index} not in any group"
            ) from None

    def first_member_with_job(
        self, group: ClusterGroup, job_name: str
    ) -> Scenario | None:
        """Nearest-to-centroid member of *group* hosting *job_name*."""
        return self.member_table().job_member(group.cluster_id, job_name)

    def first_member_with_hp(self, group: ClusterGroup) -> Scenario | None:
        """Nearest-to-centroid member of *group* hosting any HP job."""
        return self.member_table().hp_member(group.cluster_id)

    def job_instance_weight(self, group: ClusterGroup, job_name: str) -> float:
        """Observation-weighted instance count of *job_name* in *group*.

        Used to weight per-job impacts by "the likelihood to observe the
        job" in each group (§5.3).
        """
        return self.member_table().job_weight(group.cluster_id, job_name)

    def with_cluster_weights(
        self,
        cluster_weights: np.ndarray,
        dataset: ScenarioSource | None = None,
    ) -> "RepresentativeSet":
        """Same groups and member rankings under new group weights.

        Reweighting flows (§5.6) change only observation-time shares —
        cluster membership and centroid distances are untouched — so the
        ranked members are carried over instead of being re-derived from
        the score matrix (which an out-of-core fit never materialises).
        The member table carries over too unless *dataset* brings new
        observation times, which change the per-job weights.
        """
        groups = tuple(
            replace(group, weight=float(cluster_weights[group.cluster_id]))
            for group in self.groups
        )
        # The baseline intentionally keeps its fit-time values: drift is
        # always scored against the state the model was trusted in.
        return RepresentativeSet(
            dataset=dataset if dataset is not None else self.dataset,
            groups=groups,
            baseline=self.baseline,
            members=self.members if dataset is None else None,
        )


def _rank_quantise(distances: np.ndarray) -> np.ndarray:
    """Round centroid distances for ranking (9 decimals).

    Member ranking must agree between the in-memory and out-of-core
    fits, whose whitened scores differ by the streamed-statistics
    tolerance (~1e-12 relative).  Two members of a 2-point cluster are
    equidistant from their centroid up to rounding, and raw float
    comparison breaks such ties differently on each path; quantising
    far below any behavioural difference but far above the noise makes
    the tie explicit, so the stable sort breaks it by scenario index on
    both paths.
    """
    return np.round(distances, 9)


def extract_representatives(
    analysis: AnalysisResult, dataset: ScenarioDataset
) -> RepresentativeSet:
    """Build the representative set from a completed analysis."""
    if analysis.scores is None:
        raise ValueError(
            "analysis carries no score matrix (out-of-core fit); use "
            "representatives_from_assignments instead"
        )
    if analysis.scores.shape[0] != len(dataset):
        raise ValueError(
            f"analysis covers {analysis.scores.shape[0]} scenarios but "
            f"dataset has {len(dataset)}"
        )
    groups = []
    for cluster_id in range(analysis.n_clusters):
        members = analysis.members_of(cluster_id)
        if members.size == 0:
            # K-means empty-cluster repair should prevent this, but a
            # degenerate dataset (fewer distinct points than clusters) can
            # still produce it; such a group carries no weight.
            continue
        centroid = analysis.kmeans.centroids[cluster_id]
        distances = np.linalg.norm(
            analysis.scores[members] - centroid, axis=1
        )
        order = np.argsort(_rank_quantise(distances), kind="stable")
        groups.append(
            ClusterGroup(
                cluster_id=cluster_id,
                weight=float(analysis.cluster_weights[cluster_id]),
                centroid=centroid.copy(),
                ranked_members=tuple(int(members[i]) for i in order),
            )
        )
    from ..stats.kmeans import assigned_sq_distances

    baseline = fit_baseline_from_assignments(
        labels=analysis.kmeans.labels,
        sq_distances=assigned_sq_distances(
            analysis.scores, analysis.kmeans.centroids, analysis.kmeans.labels
        ),
        weights=dataset.weights(),
        n_clusters=analysis.n_clusters,
    )
    return RepresentativeSet(
        dataset=dataset, groups=tuple(groups), baseline=baseline
    )


def representatives_from_assignments(
    *,
    labels: np.ndarray,
    sq_distances: np.ndarray,
    centroids: np.ndarray,
    cluster_weights: np.ndarray,
    dataset: ScenarioSource,
) -> RepresentativeSet:
    """Representative set from per-point assignments alone.

    The out-of-core companion to :func:`extract_representatives`: the
    streaming fit never holds the full whitened score matrix, but its
    final labelling pass yields each row's cluster and squared distance
    to its centroid — exactly the information member ranking needs.
    Ranking by squared distance is ranking by distance (monotone), with
    the same stable index tie-break as the in-memory path.
    """
    if labels.shape[0] != len(dataset):
        raise ValueError(
            f"assignments cover {labels.shape[0]} scenarios but dataset "
            f"has {len(dataset)}"
        )
    groups = []
    for cluster_id in range(centroids.shape[0]):
        members = np.flatnonzero(labels == cluster_id)
        if members.size == 0:
            continue
        distances = np.sqrt(sq_distances[members])
        order = np.argsort(_rank_quantise(distances), kind="stable")
        groups.append(
            ClusterGroup(
                cluster_id=cluster_id,
                weight=float(cluster_weights[cluster_id]),
                centroid=centroids[cluster_id].copy(),
                ranked_members=tuple(int(members[i]) for i in order),
            )
        )
    baseline = fit_baseline_from_assignments(
        labels=labels,
        sq_distances=sq_distances,
        weights=dataset.weights(),
        n_clusters=int(centroids.shape[0]),
    )
    return RepresentativeSet(
        dataset=dataset, groups=tuple(groups), baseline=baseline
    )
