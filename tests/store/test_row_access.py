"""Random access decodes one row: ``store[i]`` against the full decode.

``ShardedScenarioStore.__getitem__`` keeps the owning shard's verified
arrays in a two-slot cache and decodes only the requested row.  Every
row of a multi-shard store — and of the ``StoreSlice`` and
``TailingSource`` views over it — must equal the corresponding scenario
of ``to_dataset()``, and the read counter must still count one shard
load per cache miss.
"""

from __future__ import annotations

import pytest

from repro.cluster import run_simulation
from repro.cluster.simulation import DatacenterConfig
from repro.cluster.source import job_count_table
from repro.obs.metrics import get_metrics
from repro.store import StoreSlice, TailingSource, write_store


@pytest.fixture(scope="module")
def dataset():
    return run_simulation(
        DatacenterConfig(seed=9, target_unique_scenarios=70)
    ).dataset


@pytest.fixture(scope="module")
def store(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "store"
    return write_store(dataset, path, shard_size=16)


def test_store_is_multi_shard(store):
    assert store.n_shards >= 4


def test_every_row_equals_full_decode(store):
    full = store.to_dataset().scenarios
    for i in range(len(store)):
        assert store[i] == full[i]
    # Negative indices too, and the in-memory source agrees.
    assert store[-1] == full[-1]


def test_reverse_order_access_equals_full_decode(store, dataset):
    for i in reversed(range(len(store))):
        assert store[i] == dataset.scenarios[i]


def test_store_slice_rows(store):
    full = store.to_dataset().scenarios
    view = StoreSlice(store, 5, len(store) - 7)
    assert [view[i] for i in range(len(view))] == list(full[5 : len(store) - 7])


def test_tailing_source_rows(store):
    full = store.to_dataset().scenarios
    tail = TailingSource(store)
    assert [tail[i] for i in range(len(tail))] == list(full)


def test_out_of_range_raises(store):
    with pytest.raises(IndexError):
        store[len(store)]


def test_rows_read_counts_shard_loads(dataset, tmp_path):
    fresh = write_store(dataset, tmp_path / "s", shard_size=16)
    registry = get_metrics()
    before = registry.counter("store_rows_read_total")
    fresh[0]
    fresh[1]  # same shard: served from the cached arrays
    assert registry.counter("store_rows_read_total") - before == 16
    fresh[20]  # next shard: one more shard load
    assert registry.counter("store_rows_read_total") - before == 32


class BareSource:
    """A source with only the protocol's batch and row access."""

    def __init__(self, dataset):
        self._dataset = dataset
        self.shape = dataset.shape

    def __len__(self):
        return len(self._dataset)

    def __getitem__(self, index):
        return self._dataset[index]

    def iter_batches(self, batch_size=None):
        return self._dataset.iter_batches(batch_size)


def test_job_count_table_equals_decoded_keys(store, dataset):
    for source in (
        store,
        dataset,
        StoreSlice(store, 3, 50),
        TailingSource(store),
        BareSource(dataset),
    ):
        table = job_count_table(source)
        rows = [source[i] for i in range(len(source))]
        for j, name in enumerate(table.names):
            assert [s.count_of(name) for s in rows] == (
                table.counts[:, j].tolist()
            )
        hp = [
            any(inst.signature.is_high_priority for inst in s.instances)
            for s in rows
        ]
        assert table.hp_presence().tolist() == hp
