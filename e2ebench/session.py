"""One user session of the benchmark, run as a fresh process by ``run.py``.

    python3 e2ebench/session.py --role build|query --workload NAME \\
        --seed N --work DIR --trace 0|1 --out RESULT.json

The first thing timed is ``import repro.api``, because a CLI user pays
it in every process.  Each timed call is one operation; a call that
raises, or fails a check made on its result, counts as failed.  Calls
made only to check answers run untimed and, in a traced session, outside
every step, so they are charged to no layer.  The session writes its
measurements to ``--out`` and exits 0 even when operations failed; a
non-zero exit means nothing could be measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback

#: BLAS/OpenMP thread-count variables: pinned by ``run.py``, recorded
#: with every session's result.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SessionAborted(Exception):
    """An operation the rest of the session depends on failed."""


class Session:
    """Times operations and collects what ``run.py`` needs to check them."""

    def __init__(self, work: pathlib.Path, import_s: float, tracer) -> None:
        self.work = work
        self.tracer = tracer
        self.replays = 0
        self.result: dict = {
            "import_s": import_s,
            "ops": [],
            "setup_s": [],
            "checks": [],
            "inputs": [],
        }

    def _step(self, step: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.step(step)

    def op(self, name: str, step: str, call, *args, fatal=False, **kwargs):
        """Run one timed operation; ``None`` when it raised."""
        ok = True
        value = None
        with self._step(step):
            start = time.perf_counter()
            try:
                value = call(*args, **kwargs)
            except Exception:
                traceback.print_exc()
                ok = False
            seconds = time.perf_counter() - start
        self.result["ops"].append(
            {"name": name, "step": step, "seconds": seconds, "ok": ok}
        )
        if not ok and fatal:
            raise SessionAborted(name)
        return value

    def check(self, condition: bool, message: str) -> None:
        """A failed check fails the operation it was made on."""
        if not condition:
            self.result["checks"].append(message)
            if self.result["ops"]:
                self.result["ops"][-1]["ok"] = False

    def generate(self, workload, seed: int):
        """Generate the inputs of *seed* several times; the median time is
        set-up, and every copy must have the same digest."""
        from workloads import GENERATIONS_PER_RUN

        times, digests = [], []
        for copy in range(GENERATIONS_PER_RUN):
            directory = self.work / f"inputs-{seed}-{copy}"
            # Only the first copy is traced, so layers see one generation.
            step = self._step("generate") if copy == 0 else (
                contextlib.nullcontext()
            )
            with step:
                start = time.perf_counter()
                inputs, digest, n_rows = workload.generate(seed, directory)
                times.append(time.perf_counter() - start)
            digests.append(digest)
            if copy == 0:
                kept = inputs
            elif directory.exists():
                shutil.rmtree(directory)
        if len(set(digests)) != 1:
            self.result["checks"].append(
                f"seed {seed} generated inputs with different digests"
            )
        self.result["setup_s"].append(statistics.median(times))
        self.result["inputs"].append(
            {"seed": seed, "digest": digests[0], "rows": n_rows}
        )
        return kept

    def save(self, model) -> None:
        from repro import api

        path = self.work / "model.json"
        self.op("save", "save", api.save_model, model, path, fatal=True)
        self.result["model_bytes"] = path.stat().st_size

    def load(self):
        from repro import api

        return self.op(
            "load",
            "load",
            api.load_model,
            self.work / "model.json",
            verify=True,
            fatal=True,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("build", "query"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.api  # noqa: F401  (timed: every session pays it)

    import_s = time.perf_counter() - start

    from repro.obs.ledger import env_fingerprint

    tracer = None
    tracing = contextlib.nullcontext()
    if args.trace:
        from layers import LayerTracer, installed

        tracer = LayerTracer()
        tracing = installed(tracer)
    args.work.mkdir(parents=True, exist_ok=True)
    session = Session(args.work, import_s, tracer)
    with tracing:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        try:
            getattr(workload, args.role)(session, args.seed)
        except SessionAborted as aborted:
            session.result["aborted"] = str(aborted)
    result = session.result
    result["replays"] = session.replays
    result["env"] = env_fingerprint()
    result["threads"] = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
