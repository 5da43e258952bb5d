"""The per-member walk: the oracle for pre-resolved member tables.

The paper's fallback — "we check the next nearest scenario to the cluster
center until we find the target job" — written the obvious way, fetching
each ranked member from the population one at a time.  The library
answers the same questions once, from columns, into a
:class:`~repro.core.representatives.MemberTable`; these helpers check
that table entry by entry against the walk.
"""

from __future__ import annotations

import struct


def first_member_where(group, dataset, predicate):
    """Nearest-to-centroid member of *group* satisfying *predicate*."""
    for index in group.ranked_members:
        scenario = dataset[index]
        if predicate(scenario):
            return scenario
    return None


def walked_job_weight(group, dataset, job_name: str) -> float:
    """Observation-weighted instance count of *job_name*, summed left to
    right over the ranking."""
    weights = dataset.weights()
    return float(
        sum(
            weights[index] * dataset[index].count_of(job_name)
            for index in group.ranked_members
        )
    )


def hosts_hp(scenario) -> bool:
    return any(inst.signature.is_high_priority for inst in scenario.instances)


def assert_table_matches_walk(representatives, dataset) -> int:
    """Every (group, HP) and (group, job) entry of the resolved table
    equals the walk — members exactly, weights bit for bit.  Returns the
    number of entries checked."""
    table = representatives.member_table()
    jobs = sorted(
        {inst.signature.name for s in _scenarios(dataset) for inst in s.instances}
    )
    checked = 0
    for group in representatives.groups:
        _same(
            table.hp_member(group.cluster_id),
            first_member_where(group, dataset, hosts_hp),
            (group.cluster_id, "HP"),
        )
        checked += 1
        for job in jobs:
            _same(
                table.job_member(group.cluster_id, job),
                first_member_where(
                    group, dataset, lambda s, job=job: s.count_of(job) > 0
                ),
                (group.cluster_id, job),
            )
            fast = table.job_weight(group.cluster_id, job)
            slow = walked_job_weight(group, dataset, job)
            assert struct.pack("<d", fast) == struct.pack("<d", slow), (
                group.cluster_id,
                job,
                fast,
                slow,
            )
            checked += 2
    return checked


def _scenarios(dataset):
    for batch in dataset.iter_batches():
        yield from batch.scenarios


def _same(fast, slow, where) -> None:
    assert (fast is None) == (slow is None), where
    if fast is not None:
        assert fast == slow, where
