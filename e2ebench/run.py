"""End-to-end FLARE benchmark: the pipeline a user runs, timed per step.

    python3 e2ebench/run.py --workload paper|questions|fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One *pipeline* is a build
session and then a query session, each a fresh Python process started by
this runner (one child at a time), because a CLI user pays a cold
process per command.  With ``--trace 0`` the runner runs pipelines until
the next one would end past ``--seconds`` (at least one) and reports the
median of each end-to-end metric over them.  With ``--trace 1`` it runs
one untraced and one traced pipeline on the same seed: the traced one
gives the per-layer metrics, and the pair gives the tracing overhead.

Answers are checked on every run (see README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` lists for the mode.  When
nothing could be measured (no program to run, a session crashed) the
runner prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from session import THREAD_VARIABLES

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".e2ebench-work"
#: BLAS/OpenMP threads of every session; 1 is at most nproc anywhere.
THREADS = "1"
#: Every run ends within this many seconds, children included.
RUN_LIMIT_S = 170.0
WORKLOAD_NAMES = ("paper", "questions", "fleet")
#: ``paper`` fails when an all-job estimate is further than this from
#: full-datacenter truth (percentage points).
MAX_ERROR_PP = 1.5
#: Step of each end-to-end time, by session operation step.
STEP_METRICS = {
    "fit": "fit_s",
    "save": "fit_s",
    "load": "load_s",
    "evaluate": "evaluate_s",
    "monitor": "monitor_s",
    "refit": "refit_s",
}
UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "load_s": "s",
    "evaluate_s": "s",
    "monitor_s": "s",
    "refit_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "replays": "count",
    "estimate_error_pp": "pp",
}


class Unmeasurable(Exception):
    """A session produced no result; the run reports nothing."""


def session_env(work: pathlib.Path) -> dict[str, str]:
    """The pinned environment of every child process."""
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = THREADS
    env.pop("REPRO_CACHE_DIR", None)
    env["REPRO_EXECUTOR"] = "serial"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    # load_model re-fits in a temporary directory: keep it in the checkout.
    env["TMPDIR"] = str(work)
    return env


class Runner:
    def __init__(self, args, work: pathlib.Path, deadline: float) -> None:
        self.args = args
        self.work = work
        self.deadline = deadline
        self.env = session_env(work)
        self.pipelines = 0

    def session(self, role: str, directory: pathlib.Path, trace: int) -> dict:
        out = directory / f"{role}.json"
        command = [
            sys.executable,
            str(BENCH / "session.py"),
            "--role", role,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", str(directory),
            "--trace", str(trace),
            "--out", str(out),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Unmeasurable("out of time before the next session")
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                stdout=sys.stderr,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise Unmeasurable(f"{role} session ran out of time") from None
        if done.returncode != 0 or not out.exists():
            raise Unmeasurable(
                f"{role} session exited with code {done.returncode}"
            )
        return json.loads(out.read_text())

    def pipeline(self, trace: int) -> dict:
        """One build + query session pair, checked and summarised."""
        directory = self.work / f"pipeline-{self.pipelines}"
        self.pipelines += 1
        start = time.monotonic()
        build = self.session("build", directory, trace)
        sessions = [build]
        if "aborted" not in build:
            sessions.append(self.session("query", directory, trace))
        wall = time.monotonic() - start
        shutil.rmtree(directory)
        return summarise(self.args.workload, sessions, wall)


def summarise(workload: str, sessions: list[dict], wall: float) -> dict:
    """End-to-end metrics, checks and operation counts of one pipeline."""
    build = sessions[0]
    query = sessions[1] if len(sessions) > 1 else None
    ops = [op for s in sessions for op in s["ops"]]
    checks = [message for s in sessions for message in s["checks"]]
    metrics = {name: 0.0 for name in UNITS}
    metrics["setup_s"] = sum(
        s["import_s"] + sum(s["setup_s"]) for s in sessions
    )
    for op in ops:
        metrics[STEP_METRICS[op["step"]]] += op["seconds"]
    metrics["pipeline_s"] = sum(
        metrics[name]
        for name in ("fit_s", "load_s", "evaluate_s", "monitor_s", "refit_s")
    )
    metrics["peak_rss_mb"] = max(s["rss_mb"] for s in sessions)
    if query is not None:
        metrics["replays"] = float(query["replays"])
        reference = build.get("reference", {})
        answers = query.get("answers", {})
        errors = []
        for feature, expected in reference.items():
            got = answers.get(feature, {}).get("all")
            if got != expected:
                checks.append(
                    f"{feature}: loaded model answered {got}, "
                    f"in-process model {expected}"
                )
                fail_op(query, f"evaluate:{feature}")
            if "truth" in build and got is not None:
                error = abs(float(got) - float(build["truth"][feature]))
                errors.append(error)
                if error > MAX_ERROR_PP:
                    checks.append(
                        f"{feature}: error {error:.3f} pp against "
                        f"full-datacenter truth exceeds {MAX_ERROR_PP} pp"
                    )
                    fail_op(query, f"evaluate:{feature}")
        if errors:
            metrics["estimate_error_pp"] = sum(errors) / len(errors)
    else:
        checks.append(f"build session aborted at {build['aborted']}")
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": sum(1 for s in sessions for op in s["ops"] if not op["ok"]),
        "checks": checks,
        "answers": None if query is None else query.get("answers"),
        "inputs": [i for s in sessions for i in s["inputs"]],
        "env": [s["env"] for s in sessions],
        "threads": build["threads"],
        "sessions": sessions,
        "wall_s": wall,
    }


def fail_op(session: dict, name: str) -> None:
    for op in session["ops"]:
        if op["name"] == name:
            op["ok"] = False


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metrics of a traced pipeline, against its untraced twin."""
    sessions = traced["sessions"]
    out: dict[str, float] = {}
    for session in sessions:
        for name, value in session.get("layers", {}).items():
            out[name] = out.get(name, 0.0) + value
    out["startup.import_s"] = statistics.mean(s["import_s"] for s in sessions)
    out["io.model_bytes"] = float(sessions[0].get("model_bytes", 0))
    rows = sum(i["rows"] for i in traced["inputs"])
    out["telemetry.rows_profiled_per_scenario"] = (
        out.get("telemetry.rows_profiled", 0.0) / rows if rows else 0.0
    )
    out["trace.unattributed_s"] = sum(
        value
        for name, value in out.items()
        if name.startswith("trace.unattributed_s.")
    )
    base = untraced["metrics"]["pipeline_s"]
    out["trace.overhead_pct"] = (
        100.0 * (traced["metrics"]["pipeline_s"] / base - 1.0) if base else 0.0
    )
    return out


def consistency_checks(pipelines: list[dict]) -> list[str]:
    """Every pipeline of a run measured the same inputs, on the same
    setup, and gave the same answers."""
    first = pipelines[0]
    messages = []
    for other in pipelines[1:]:
        for key in ("inputs", "answers"):
            if other[key] != first[key]:
                messages.append(f"pipelines of one run differ in {key}")
    envs = [json.dumps(e, sort_keys=True) for p in pipelines for e in p["env"]]
    if len(set(envs)) != 1:
        messages.append("sessions ran with different environments")
    return messages


def report(args, pipelines: list[dict], metrics: dict, unit_of: dict) -> None:
    """Human-readable lines before the JSON result."""
    print(
        f"e2ebench workload={args.workload} seed={args.seed} "
        f"trace={args.trace} pipelines={len(pipelines)}"
    )
    for name, value in metrics.items():
        # Per-layer times BENCHMARK.json leaves out are all seconds.
        print(f"  {name:42s} {value:14.6g} {unit_of.get(name, 's')}")
    first = pipelines[0]
    print(
        "record "
        + json.dumps(
            {
                "inputs": first["inputs"],
                "env": first["env"][0],
                "threads": first["threads"],
                "pipeline_wall_s": [p["wall_s"] for p in pipelines],
            },
            sort_keys=True,
        )
    )
    for p in pipelines:
        for message in p["checks"]:
            print(f"CHECK FAILED: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Build: byte-compile once so no session pays compilation.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src"],
            cwd=ROOT,
            env=session_env(work),
            stdout=sys.stderr,
            check=True,
        )
        runner = Runner(args, work, started + RUN_LIMIT_S)
        if args.trace:
            untraced = runner.pipeline(trace=0)
            traced = runner.pipeline(trace=1)
            pipelines = [untraced, traced]
            metrics = layer_metrics(traced, untraced)
            listed = spec["per_layer"]
        else:
            pipelines = []
            measuring = time.monotonic()
            while True:
                pipelines.append(runner.pipeline(trace=0))
                spent = time.monotonic() - measuring
                if spent + pipelines[-1]["wall_s"] > args.seconds:
                    break
            metrics = {
                name: statistics.median(p["metrics"][name] for p in pipelines)
                for name in UNITS
            }
            listed = spec["end_to_end"]
    except Unmeasurable as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_ROOT.rmdir()
    unit_of = dict(UNITS)
    unit_of.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    report(args, pipelines, metrics, unit_of)
    checks = consistency_checks(pipelines)
    for message in checks:
        print(f"CHECK FAILED: {message}")
    attempted = sum(p["attempted"] for p in pipelines)
    failed = sum(p["failed"] for p in pipelines)
    correct = failed == 0 and not checks and not any(
        p["checks"] for p in pipelines
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
