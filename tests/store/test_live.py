"""Live (continuously appendable) store: generations, tailing, safety.

The fleet-mode ingestion contract (``repro.store.live``): each
``LiveStore.commit()`` publishes a complete generation atomically, an
open reader picks new generations up via ``refresh()`` without ever
observing a torn state, and every shard — old or new — stays digest
verified on read.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster.machine import DEFAULT_SHAPE
from repro.cluster.source import ScenarioContentHasher
from repro.store import (
    LiveStore,
    ShardedScenarioStore,
    StoreCorruptionError,
    StoreError,
    StoreSlice,
    TailingSource,
)

from ..conftest import make_scenario

JOBS = ["WSC", "DC", "DA", "GA", "mcf", "sjeng", "libquantum", "omnetpp"]


def scenario(i: int):
    return make_scenario(
        i,
        [(JOBS[i % len(JOBS)], 0.5 + (i % 5) / 10)],
        duration_s=600.0 + 60.0 * i,
    )


class TestLiveStore:
    def test_commit_publishes_generations(self, tmp_path):
        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=4)
        live.extend(scenario(i) for i in range(6))
        assert live.commit() == 1
        assert live.watermark == 6
        live.extend(scenario(i) for i in range(6, 9))
        assert live.commit() == 2
        reader = live.reader()
        assert len(reader) == 9
        assert reader.manifest["generation"] == 2
        assert reader.manifest["watermark"] == 9
        live.close()

    def test_empty_commit_is_noop_after_first(self, tmp_path):
        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE)
        live.append(scenario(0))
        live.append(scenario(1))
        assert live.commit() == 1
        assert live.commit() == 1

    def test_partial_shard_is_flushed_per_generation(self, tmp_path):
        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=100)
        live.extend(scenario(i) for i in range(3))
        live.commit()
        assert len(live.reader()) == 3

    def test_context_manager_commits_on_clean_exit_only(self, tmp_path):
        with pytest.raises(RuntimeError):
            with LiveStore(tmp_path / "dead", DEFAULT_SHAPE) as live:
                live.append(scenario(0))
                raise RuntimeError("boom")
        with pytest.raises(StoreError):
            ShardedScenarioStore.open(tmp_path / "dead")

        with LiveStore(tmp_path / "ok", DEFAULT_SHAPE) as live:
            live.extend(scenario(i) for i in range(2))
        assert len(ShardedScenarioStore.open(tmp_path / "ok")) == 2

    def test_closed_store_refuses_appends(self, tmp_path):
        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE)
        live.append(scenario(0))
        live.close()
        with pytest.raises(StoreError):
            live.append(scenario(1))


class TestRefresh:
    def test_refresh_picks_up_new_generations(self, tmp_path):
        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=4)
        live.extend(scenario(i) for i in range(5))
        live.commit()
        reader = ShardedScenarioStore.open(tmp_path / "s")
        assert len(reader) == 5

        live.extend(scenario(i) for i in range(5, 11))
        live.commit()
        assert reader.refresh() == 6
        assert len(reader) == 11
        assert reader[10].scenario_id == 10
        assert reader.refresh() == 0
        live.close()

    def test_refresh_rejects_rewritten_prefix(self, tmp_path):
        with LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=2) as live:
            live.extend(scenario(i) for i in range(4))
        reader = ShardedScenarioStore.open(tmp_path / "s")
        # Rewriting the store in place (new content, same path) must be
        # caught: the known shard prefix no longer matches.
        with LiveStore(
            tmp_path / "s", DEFAULT_SHAPE, shard_size=2, overwrite=True
        ) as live:
            live.extend(scenario(i) for i in range(10, 14))
        with pytest.raises(StoreCorruptionError):
            reader.refresh()

    def test_new_shards_are_digest_verified_on_read(self, tmp_path):
        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=4)
        live.extend(scenario(i) for i in range(4))
        live.commit()
        reader = ShardedScenarioStore.open(tmp_path / "s")
        assert reader[0].scenario_id == 0

        live.extend(scenario(i) for i in range(4, 8))
        live.commit()
        live.close()
        reader.refresh()
        # Tamper with the newly appended shard: reading any of its rows
        # must fail digest verification, not return corrupt scenarios.
        entry = reader.shard_entries[-1]
        shard_file = reader.path / f"{entry['name']}.scenarios.npy"
        blob = bytearray(shard_file.read_bytes())
        blob[-1] ^= 0xFF
        shard_file.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError):
            reader[7]


class TestStoreSlice:
    @pytest.fixture()
    def store(self, tmp_path):
        with LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=3) as live:
            live.extend(scenario(i) for i in range(10))
        return ShardedScenarioStore.open(tmp_path / "s")

    def test_slice_views_rows(self, store):
        view = StoreSlice(store, 4, 9)
        assert len(view) == 5
        assert [s.scenario_id for s in (view[0], view[4])] == [4, 8]
        ids = [
            s.scenario_id
            for batch in view.iter_batches()
            for s in batch.scenarios
        ]
        assert ids == [4, 5, 6, 7, 8]

    def test_slice_weights_normalise_over_slice(self, store):
        view = StoreSlice(store, 2, 6)
        assert view.weights().sum() == pytest.approx(1.0)
        assert view.durations().shape == (4,)

    def test_slice_digest_is_content_addressed(self, store, tmp_path):
        # Same logical rows under different physical shard boundaries
        # must digest identically.
        with LiveStore(
            tmp_path / "other", DEFAULT_SHAPE, shard_size=7
        ) as live:
            live.extend(scenario(i) for i in range(10))
        other = ShardedScenarioStore.open(tmp_path / "other")
        assert (
            StoreSlice(store, 3, 9).digest()
            == StoreSlice(other, 3, 9).digest()
        )
        assert (
            StoreSlice(store, 0, 5).digest()
            != StoreSlice(store, 0, 6).digest()
        )

    @staticmethod
    def decoded_digest(view) -> str:
        hasher = ScenarioContentHasher(view.shape)
        for batch in view.iter_batches():
            hasher.update_many(batch.scenarios)
        return hasher.hexdigest()

    def test_columnar_digest_equals_decoded_rows(self, store):
        # Slices inside one shard, across shard boundaries, and empty.
        for start, stop in ((0, 10), (1, 5), (2, 8), (3, 6), (4, 5), (7, 7)):
            view = StoreSlice(store, start, stop)
            assert view.digest() == self.decoded_digest(view)

    def test_columnar_digest_keeps_negative_zero_duration(self, tmp_path):
        def digest_with(duration: float) -> StoreSlice:
            rows = [scenario(i) for i in range(5)]
            rows[2] = make_scenario(2, [("WSC", 0.5)], duration_s=duration)
            path = tmp_path / repr(duration)
            with LiveStore(path, DEFAULT_SHAPE, shard_size=2) as live:
                live.extend(rows)
            return StoreSlice(ShardedScenarioStore.open(path), 1, 4)

        negative, positive = digest_with(-0.0), digest_with(0.0)
        assert negative.digest() == self.decoded_digest(negative)
        assert positive.digest() == self.decoded_digest(positive)
        assert negative.digest() != positive.digest()

    def test_columnar_rows_hash_negative_zero_load_like_objects(self):
        # No valid instance has load -0.0, so no store row decodes to
        # one; the column hasher must still hex it as its own value,
        # the way update_many hexes any float it is handed.
        from types import SimpleNamespace

        from repro.store.format import INSTANCE_DTYPE, SCENARIO_DTYPE
        from repro.store.store import ShardTables

        signature = make_scenario(0, [("WSC", 0.5)]).instances[0].signature
        loads = [0.5, -0.0, 0.0]
        instance_table = np.zeros(3, dtype=INSTANCE_DTYPE)
        instance_table["load"] = loads
        scenario_table = np.zeros(2, dtype=SCENARIO_DTYPE)
        scenario_table["scenario_id"] = [4, 5]
        scenario_table["n_occurrences"] = [1, 2]
        scenario_table["total_duration_s"] = [60.0, 120.0]
        scenario_table["inst_offset"] = [0, 1]
        scenario_table["inst_count"] = [1, 2]
        tables = ShardTables(
            scenario_table=scenario_table,
            instance_table=instance_table,
            job_names=["WSC"],
            signatures={"WSC": signature},
            shape=DEFAULT_SHAPE,
        )
        columns = ScenarioContentHasher(DEFAULT_SHAPE)
        columns.update_tables(tables)
        objects = ScenarioContentHasher(DEFAULT_SHAPE)
        objects.update_many(
            SimpleNamespace(
                scenario_id=row_id,
                n_occurrences=occurrences,
                total_duration_s=duration,
                instances=[
                    SimpleNamespace(signature=signature, load=load)
                    for load in row_loads
                ],
            )
            for row_id, occurrences, duration, row_loads in (
                (4, 1, 60.0, loads[:1]),
                (5, 2, 120.0, loads[1:]),
            )
        )
        assert columns.hexdigest() == objects.hexdigest()
        assert columns.n_scenarios == objects.n_scenarios == 2

    def test_digest_decodes_no_scenario(self, store, monkeypatch):
        import repro.store.format as store_format

        view = StoreSlice(store, 2, 9)
        expected = self.decoded_digest(view)

        def refuse(*args, **kwargs):
            raise AssertionError("the slice digest decoded a row")

        monkeypatch.setattr(store_format, "_decode_row", refuse)
        assert StoreSlice(store, 2, 9).digest() == expected

    def test_out_of_range_slice_rejected(self, store):
        with pytest.raises(ValueError):
            StoreSlice(store, 5, 11)

    def test_sliced_rows_equal_materialised_rows(self, store):
        full = store.to_dataset().scenarios
        for start, stop in ((0, 10), (1, 5), (4, 9), (3, 6), (7, 7)):
            view = StoreSlice(store, start, stop)
            batches = list(view.iter_batches())
            assert [s for b in batches for s in b.scenarios] == list(
                full[start:stop]
            )
            tables = list(view.iter_tables())
            assert [len(b) for b in batches] == [len(t) for t in tables]
            assert [
                s for t in tables for s in t.decode().scenarios
            ] == list(full[start:stop])

    def test_signatures_equal_the_walk_in_order(self, store):
        from repro.core.pipeline import _catalogue_from

        for start, stop in ((0, 10), (2, 9), (5, 6), (4, 4)):
            view = StoreSlice(store, start, stop)
            walked: dict = {}
            for batch in view.iter_batches():
                for row in batch.scenarios:
                    for inst in row.instances:
                        walked.setdefault(inst.signature.name, inst.signature)
            assert list(view.signatures.items()) == list(walked.items())
            assert list(_catalogue_from(view).items()) == list(walked.items())

    def test_new_since_is_slice_relative(self, store):
        from repro.core.refit import _rows_after

        view = StoreSlice(store, 2, 9)
        fresh = _rows_after(view, 3)
        assert isinstance(fresh, StoreSlice)
        assert (fresh.start, fresh.stop) == (5, 9)
        assert [s.scenario_id for s in fresh] == [5, 6, 7, 8]


class TestTailingSource:
    def test_tail_tracks_growth(self, tmp_path):
        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=4)
        live.extend(scenario(i) for i in range(4))
        live.commit()
        tail = TailingSource(tmp_path / "s")
        assert tail.watermark == 4
        assert tail.generation == 1

        before = tail.watermark
        live.extend(scenario(i) for i in range(4, 9))
        live.commit()
        assert tail.refresh() == 5
        assert tail.generation == 2
        fresh = tail.new_since(before)
        assert [s.scenario_id for s in fresh] == [4, 5, 6, 7, 8]
        live.close()

    def test_signatures_follow_growth_in_walk_order(self, tmp_path):
        from repro.core.pipeline import _catalogue_from

        live = LiveStore(tmp_path / "s", DEFAULT_SHAPE, shard_size=4)
        live.extend(scenario(i) for i in range(3, 6))
        live.commit()
        tail = TailingSource(tmp_path / "s")
        assert list(tail.signatures) == JOBS[3:6]
        live.extend(scenario(i) for i in range(9))
        live.commit()
        tail.refresh()
        walked: dict = {}
        for batch in tail.iter_batches():
            for row in batch.scenarios:
                for inst in row.instances:
                    walked.setdefault(inst.signature.name, inst.signature)
        assert list(tail.signatures.items()) == list(walked.items())
        assert list(_catalogue_from(tail)) == JOBS[3:6] + JOBS[:3] + JOBS[6:]
        live.close()


class TestConcurrentAppendWhileRead:
    """A reader refreshing against a committing writer never tears."""

    N_GENERATIONS = 12
    ROWS_PER_GENERATION = 5

    def test_append_while_read_no_torn_state(self, tmp_path):
        path = tmp_path / "s"
        live = LiveStore(path, DEFAULT_SHAPE, shard_size=3)
        live.extend(scenario(i) for i in range(self.ROWS_PER_GENERATION))
        live.commit()
        reader = ShardedScenarioStore.open(path)

        valid_watermarks = {
            g * self.ROWS_PER_GENERATION
            for g in range(1, self.N_GENERATIONS + 1)
        }
        errors: list[BaseException] = []
        done = threading.Event()

        def writer():
            try:
                for gen in range(1, self.N_GENERATIONS):
                    start = gen * self.ROWS_PER_GENERATION
                    live.extend(
                        scenario(i)
                        for i in range(
                            start, start + self.ROWS_PER_GENERATION
                        )
                    )
                    live.commit()
                live.close()
            except BaseException as error:  # pragma: no cover - fail path
                errors.append(error)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            observed = [len(reader)]
            while not (
                done.is_set()
                and len(reader)
                == self.N_GENERATIONS * self.ROWS_PER_GENERATION
            ):
                reader.refresh()
                n = len(reader)
                # Every observed length is a committed watermark — a
                # torn manifest or half-visible shard batch would land
                # between generations.
                assert n in valid_watermarks, (n, sorted(valid_watermarks))
                if n != observed[-1]:
                    observed.append(n)
                # Reads across the whole visible range stay coherent
                # (digest-verified shards, position == scenario id).
                probe = np.random.default_rng(n).integers(0, n, size=3)
                for index in probe:
                    assert reader[int(index)].scenario_id == int(index)
        finally:
            thread.join(timeout=30)
        assert not errors, errors
        # Growth was monotone and ended at the final watermark.
        assert observed == sorted(observed)
        assert observed[-1] == self.N_GENERATIONS * self.ROWS_PER_GENERATION
        # The fully grown store digests identically to a one-shot write.
        with LiveStore(
            tmp_path / "control", DEFAULT_SHAPE, shard_size=3
        ) as control:
            control.extend(
                scenario(i)
                for i in range(
                    self.N_GENERATIONS * self.ROWS_PER_GENERATION
                )
            )
        assert (
            reader.digest()
            == ShardedScenarioStore.open(tmp_path / "control").digest()
        )
