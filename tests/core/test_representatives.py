"""Unit tests for representative extraction (step 3 output)."""

import numpy as np
import pytest

from repro.core import extract_representatives

from .member_oracle import assert_table_matches_walk, first_member_where


@pytest.fixture(scope="module")
def reps(small_flare):
    return small_flare.representatives


class TestExtraction:
    def test_one_group_per_cluster(self, small_flare, reps):
        assert len(reps) == small_flare.analysis.n_clusters

    def test_groups_partition_dataset(self, reps, small_flare):
        all_members = [
            idx for group in reps.groups for idx in group.ranked_members
        ]
        assert sorted(all_members) == list(range(len(small_flare.dataset)))

    def test_weights_sum_to_one(self, reps):
        assert reps.weights().sum() == pytest.approx(1.0)

    def test_representative_is_nearest_to_centroid(self, small_flare, reps):
        scores = small_flare.analysis.scores
        for group in reps.groups:
            members = np.array(group.ranked_members)
            dists = np.linalg.norm(scores[members] - group.centroid, axis=1)
            assert dists[0] == pytest.approx(dists.min())

    def test_members_ranked_by_distance(self, small_flare, reps):
        scores = small_flare.analysis.scores
        for group in reps.groups:
            members = np.array(group.ranked_members)
            dists = np.linalg.norm(scores[members] - group.centroid, axis=1)
            assert (np.diff(dists) >= -1e-12).all()

    def test_representative_scenarios_accessor(self, reps):
        scenarios = reps.representative_scenarios()
        assert len(scenarios) == len(reps)
        for group, scenario in zip(reps.groups, scenarios):
            assert scenario.scenario_id == group.representative_index

    def test_mismatched_dataset_raises(self, small_flare, tiny_dataset):
        with pytest.raises(ValueError, match="covers"):
            extract_representatives(small_flare.analysis, tiny_dataset)


class TestLookups:
    def test_group_of_scenario(self, reps):
        group = reps.groups[0]
        member = group.ranked_members[-1]
        assert reps.group_of_scenario(member) is group

    def test_group_of_unknown_scenario_raises(self, reps, small_flare):
        with pytest.raises(KeyError):
            reps.group_of_scenario(len(small_flare.dataset) + 5)

    def test_first_member_where_walks_ranking(self, reps, small_flare):
        dataset = small_flare.dataset
        for group in reps.groups:
            found = first_member_where(
                group, dataset, lambda s: bool(s.hp_instances)
            )
            if found is None:
                continue
            # Everything nearer than the found member must fail the
            # predicate.
            for idx in group.ranked_members:
                if idx == found.scenario_id:
                    break
                assert not dataset[idx].hp_instances

    def test_first_member_where_none_when_no_match(self, reps, small_flare):
        for group in reps.groups:
            assert first_member_where(
                group, small_flare.dataset, lambda s: False
            ) is None

    def test_job_instance_weight(self, reps, small_flare):
        dataset = small_flare.dataset
        weights = dataset.weights()
        group = reps.groups[0]
        job = "WSC"
        expected = sum(
            weights[idx] * dataset[idx].count_of(job)
            for idx in group.ranked_members
        )
        assert reps.job_instance_weight(group, job) == pytest.approx(expected)

    def test_job_weights_cover_all_instances(self, reps, small_flare):
        """Summed across groups, job weight equals the dataset total."""
        dataset = small_flare.dataset
        weights = dataset.weights()
        for job in ("WSC", "mcf"):
            total = sum(
                weights[i] * s.count_of(job)
                for i, s in enumerate(dataset.scenarios)
            )
            by_groups = sum(
                reps.job_instance_weight(g, job) for g in reps.groups
            )
            assert by_groups == pytest.approx(total)


class TestColumnarDifferential:
    """The pre-resolved member table vs the per-member reference walk.

    ``first_member_with_job`` / ``first_member_with_hp`` answer from the
    :class:`~repro.core.representatives.MemberTable`, resolved once from
    the population's job-count columns; the oracle in
    ``tests/core/member_oracle.py`` walks the ranking with random dataset
    access.  Same for ``job_instance_weight`` vs the inline weighted
    sum.  Selection must match exactly and weights bit for bit, or
    estimation silently changes which scenarios it replays.
    """

    def test_member_selection_matches_scalar_walk(self, reps, small_flare):
        dataset = small_flare.dataset
        jobs = sorted(
            {name for s in dataset.scenarios for name, _ in s.key}
        )
        for group in reps.groups:
            fast = reps.first_member_with_hp(group)
            slow = first_member_where(
                group, dataset, lambda s: bool(s.hp_instances)
            )
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.scenario_id == slow.scenario_id
            for job in jobs:
                fast = reps.first_member_with_job(group, job)
                slow = first_member_where(
                    group, dataset, lambda s: s.count_of(job) > 0
                )
                assert (fast is None) == (slow is None), (
                    group.cluster_id,
                    job,
                )
                if fast is not None:
                    assert fast.scenario_id == slow.scenario_id

    def test_job_instance_weight_bitwise_equal(self, reps, small_flare):
        import struct

        dataset = small_flare.dataset
        weights = dataset.weights()
        jobs = sorted(
            {name for s in dataset.scenarios for name, _ in s.key}
        )
        for group in reps.groups:
            for job in jobs:
                fast = reps.job_instance_weight(group, job)
                slow = float(
                    sum(
                        weights[idx] * dataset[idx].count_of(job)
                        for idx in group.ranked_members
                    )
                )
                assert struct.pack("<d", fast) == struct.pack("<d", slow)

    def test_missing_job_yields_no_member_and_zero_weight(self, reps):
        for group in reps.groups:
            assert reps.first_member_with_job(group, "no-such-job") is None
            assert reps.job_instance_weight(group, "no-such-job") == 0.0

    def test_whole_table_matches_walk(self, reps, small_flare):
        assert assert_table_matches_walk(reps, small_flare.dataset) > 0

    def test_table_embeds_only_named_members(self, reps):
        table = reps.member_table()
        named = {g.representative_index for g in reps.groups}
        named.update(i for i in table.hp.values() if i is not None)
        for per_group in table.jobs.values():
            named.update(i for i in per_group.values() if i is not None)
        assert set(table.scenarios) == named


class TestStoreBackedTable:
    """The same table, resolved from a store's instance tables."""

    def test_store_fit_table_matches_walk(self, small_sim, tmp_path):
        from repro.core import Flare, FlareConfig
        from repro.core.analyzer import AnalyzerConfig
        from repro.store import write_store

        store = write_store(small_sim.dataset, tmp_path / "s", shard_size=64)
        flare = Flare(
            FlareConfig(analyzer=AnalyzerConfig(n_clusters=6))
        ).fit(store)
        assert assert_table_matches_walk(flare.representatives, store) > 0

    def test_store_resolution_decodes_only_named_rows(
        self, small_sim, tmp_path
    ):
        from repro.core.representatives import resolve_member_table
        from repro.store import write_store

        store = write_store(small_sim.dataset, tmp_path / "s", shard_size=64)
        groups = extract_representatives(
            _analysis_of(small_sim), small_sim.dataset
        ).groups
        calls = []
        original = type(store).__getitem__

        class Counting(type(store)):
            def __getitem__(self, index):
                calls.append(index)
                return original(self, index)

        store.__class__ = Counting
        table = resolve_member_table(groups, store)
        assert sorted(calls) == sorted(table.scenarios)
        assert len(set(calls)) == len(calls)


def _analysis_of(sim):
    from repro.core import Flare, FlareConfig
    from repro.core.analyzer import AnalyzerConfig

    return Flare(FlareConfig(analyzer=AnalyzerConfig(n_clusters=6))).fit(
        sim.dataset
    ).analysis
