"""The benchmark's three workloads, as the user sessions that run them.

Every workload is two sessions, each a fresh process (see ``run.py``):

* **build** — generate the inputs, fit, save (for ``fleet`` also the
  monitor/refit loop that ``repro fleet`` runs);
* **query** — ``load_model``, then the workload's question set (for
  ``paper`` also ``monitor``).

Only the public API is called (``repro.api``, plus the refit and live
store entry points ``repro fleet`` itself uses), and every call goes
through a module attribute at call time, so the traced run's wrappers
see it.  Everything runs serially with the solve memo at its default
``off``.
"""

from __future__ import annotations

import importlib
import pathlib

from repro import api

# ``repro.core`` re-exports the function ``refit`` under the name of its
# module, so the module is reached through importlib.
refit_module = importlib.import_module("repro.core.refit")
live = importlib.import_module("repro.store.live")

#: Scenario counts.  ``questions`` and ``fleet`` stay above the
#: streaming fit's 4096-row sample capacity so both take the sampled,
#: multi-pass clustering path.
PAPER_SCENARIOS = 895
QUESTIONS_SCENARIOS = 4500
FLEET_SCENARIOS = 6000
#: Rows per shard of the ``questions`` store.  18 shards give the low
#: decode-cache hit rate of a fleet-scale store (the store keeps two
#: decoded shards), so evaluation time tracks the lookups rather than
#: the luck of which shards the last lookups touched.
QUESTIONS_SHARD_ROWS = 256
#: Fixed cluster count of the store workloads (the ``repro fit`` default).
STORE_CLUSTERS = 18
FLEET_GENERATIONS = 4
#: The segmented simulation drains this often; generations are committed
#: at the drain after each quarter of the rows, so there are always
#: FLEET_GENERATIONS of them whatever the seed.
FLEET_SEGMENT_DAYS = 0.05
#: Inputs are generated this many times per build session: set-up time is
#: their median, and every copy must have the same digest.
GENERATIONS_PER_RUN = 3
#: Long enough for every seed to reach the target scenario count.
MAX_DAYS = 1000.0


def all_job_answers(model) -> dict[str, str]:
    """``repr`` of the all-job estimate of each Table-4 feature."""
    return {
        feature.name: repr(float(model.evaluate(feature).reduction_pct))
        for feature in api.PAPER_FEATURES
    }


def ask(session, model, per_job: bool) -> None:
    """The question set: each Table-4 feature for all jobs and, with
    *per_job*, for each HP job.  One operation per question."""
    answers: dict = {}
    for feature in api.PAPER_FEATURES:
        estimate = session.op(
            f"evaluate:{feature.name}", "evaluate", model.evaluate, feature
        )
        entry = answers[feature.name] = {}
        if estimate is not None:
            entry["all"] = repr(float(estimate.reduction_pct))
            session.replays += estimate.evaluation_cost
        if per_job:
            for job in api.HP_JOB_NAMES:
                estimate = session.op(
                    f"evaluate:{feature.name}:{job}",
                    "evaluate",
                    model.evaluate_job,
                    feature,
                    job,
                )
                if estimate is not None:
                    entry[job] = repr(float(estimate.reduction_pct))
                    session.replays += estimate.evaluation_cost
    session.result["answers"] = answers


class Paper:
    """The paper's own scale: 895 in-memory scenarios, default config."""

    name = "paper"

    def generate(self, seed: int, directory: pathlib.Path):
        config = api.DatacenterConfig(
            seed=seed, target_unique_scenarios=PAPER_SCENARIOS
        )
        dataset = api.run_simulation(config).dataset
        return dataset, dataset.digest(), len(dataset)

    def build(self, session, seed: int) -> None:
        dataset = session.generate(self, seed)
        model = session.op("fit", "fit", api.Flare().fit, dataset, fatal=True)
        session.check(
            model.analysis.n_clusters >= 2, "fit chose fewer than 2 clusters"
        )
        session.save(model)
        session.result["reference"] = all_job_answers(model)
        session.result["truth"] = {
            feature.name: repr(
                float(
                    api.evaluate_full_datacenter(
                        dataset, feature
                    ).overall_reduction_pct
                )
            )
            for feature in api.PAPER_FEATURES
        }

    def query(self, session, seed: int) -> None:
        model = session.load()
        ask(session, model, per_job=True)
        held_out = session.generate(self, seed + 1)
        report = session.op("monitor", "monitor", model.health, held_out)
        if report is not None:
            session.check(
                report.n_scenarios == len(held_out),
                "monitor scored a different number of scenarios",
            )


class Questions:
    """4.5k scenarios in a sharded store, where evaluation dominates."""

    name = "questions"

    def generate(self, seed: int, directory: pathlib.Path):
        config = api.DatacenterConfig(
            seed=seed,
            target_unique_scenarios=QUESTIONS_SCENARIOS,
            max_days=MAX_DAYS,
        )
        with api.StoreWriter(
            directory, config.shape, shard_size=QUESTIONS_SHARD_ROWS
        ) as writer:
            api.run_simulation(config, sink=writer)
        store = api.open_store(directory)
        return store, store.digest(), len(store)

    def build(self, session, seed: int) -> None:
        store = session.generate(self, seed)
        config = api.FlareConfig(
            analyzer=api.AnalyzerConfig(n_clusters=STORE_CLUSTERS)
        )
        model = session.op(
            "fit", "fit", api.Flare(config).fit, store, fatal=True
        )
        session.check(
            model.analysis.n_clusters == STORE_CLUSTERS,
            "fit did not keep the requested cluster count",
        )
        session.save(model)
        session.result["reference"] = all_job_answers(model)

    def query(self, session, seed: int) -> None:
        model = session.load()
        ask(session, model, per_job=True)


class Fleet:
    """6k scenarios ingested into a live store over 4 generations and
    absorbed by the monitor/refit loop, as ``repro fleet`` runs it."""

    name = "fleet"

    def generate(self, seed: int, directory: pathlib.Path):
        config = api.DatacenterConfig(
            seed=seed, target_unique_scenarios=FLEET_SCENARIOS, max_days=MAX_DAYS
        )
        step = FLEET_SCENARIOS // FLEET_GENERATIONS
        marks: list[int] = []
        pending = 0
        with live.LiveStore(directory, config.shape) as store:

            def on_segment(index: int, drained: int, now_s: float) -> None:
                nonlocal pending
                pending += drained
                if len(marks) < FLEET_GENERATIONS - 1 and (
                    store.watermark + pending >= step * (len(marks) + 1)
                ):
                    store.commit()
                    marks.append(store.watermark)
                    pending = 0

            api.run_simulation(
                config,
                sink=store,
                segment_days=FLEET_SEGMENT_DAYS,
                on_segment=on_segment,
            )
        reader = api.open_store(directory)
        marks.append(len(reader))
        return (reader, marks), f"{reader.digest()}:{marks}", len(reader)

    def build(self, session, seed: int) -> None:
        reader, marks = session.generate(self, seed)
        session.check(
            len(marks) == FLEET_GENERATIONS
            and all(a < b for a, b in zip(marks, marks[1:])),
            f"expected {FLEET_GENERATIONS} growing generations, got {marks}",
        )
        spill = session.work / "spill"
        config = api.FlareConfig(
            analyzer=api.AnalyzerConfig(n_clusters=STORE_CLUSTERS)
        )
        model = session.op(
            "fit",
            "fit",
            refit_module.refit,
            live.StoreSlice(reader, 0, marks[0]),
            config,
            spill_dir=spill,
            trigger="initial",
            fatal=True,
        )
        for start, end in zip(marks, marks[1:]):
            fresh = live.StoreSlice(reader, start, end)
            report = session.op("monitor", "monitor", model.health, fresh)
            status = report.status if report is not None else "failed"
            model = session.op(
                "refit",
                "refit",
                model.refit,
                live.StoreSlice(reader, 0, end),
                spill_dir=spill,
                trigger=f"drift:{status}",
                fatal=True,
            )
            session.check(
                model.analysis.labels.shape[0] == end,
                f"refit does not cover the {end} rows of its generation",
            )
        # The publish refit runs over a path-bearing source so the saved
        # artefact can reference the store (``repro fleet`` phase 4).
        model = session.op(
            "refit",
            "refit",
            model.refit,
            live.TailingSource(reader),
            spill_dir=spill,
            trigger="final",
            fatal=True,
        )
        session.check(
            len(model.lineage) == FLEET_GENERATIONS + 1,
            f"lineage has {len(model.lineage)} entries",
        )
        session.save(model)
        session.result["reference"] = all_job_answers(model)

    def query(self, session, seed: int) -> None:
        model = session.load()
        ask(session, model, per_job=False)


WORKLOADS = {w.name: w for w in (Paper(), Questions(), Fleet())}

