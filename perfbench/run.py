"""Benchmark of the ellmotive CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop: one client,
one child process at a time, each a fresh ``python -m ellmotive.cli``
process with cold process-global caches, as every user invocation is.  The
loop starts another invocation while the next one still fits in S seconds
(at least one runs).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
wall time, CPU time (user + sys, from os.wait4) and peak RSS of the CLI
children, and the median of SETUP_REPEATS set-up probes (a fresh
interpreter that imports the CLI, the suites and the bar complex and loads
the workload's config).  --trace 1 runs perfbench/trace.py children instead
and reports the per-layer metrics of BENCHMARK.json.

Every invocation is checked: the JSON parses, the summary matches the
record statuses, the workload's required record ids are present, the exit
code agrees with the fail records, and the report bytes are identical
across the run.  Records are the operations: a fail record is one failure;
a crashed invocation (exit code other than 0/1, a traceback, unparsable
JSON or a timeout) fails every record a complete run yields.

The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 11
LAYERS_PREFIX = "all traced metrics: "
# every run must end within 180 s; no invocation may outlive this budget
RUN_BUDGET_S = 170.0

SETUP_PROBE = (
    "import sys\n"
    "import ellmotive.barcx, ellmotive.cli, ellmotive.suites\n"
    "from ellmotive.config import default_config, load_config\n"
    "load_config(sys.argv[1]) if len(sys.argv) > 1 else default_config()\n"
)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None: killed on timeout
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    """Correctness and failure accounting over the invocations of a run."""

    required_ids: tuple
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reports: set = field(default_factory=set)
    records: int = 0  # records in one complete report
    summary: dict = field(default_factory=dict)
    crashes: int = 0

    def add(self, inv: Invocation):
        problem = self._check(inv)
        if problem is None:
            return
        self.problems.append(problem)
        if problem.startswith("crash"):
            self.crashes += 1

    def _check(self, inv: Invocation):
        if inv.exit_code not in (0, 1) or b"Traceback" in inv.stderr:
            return f"crash: exit code {inv.exit_code}, stderr {inv.stderr[-300:]!r}"
        try:
            report = json.loads(inv.stdout)
            records = report["records"]
            statuses = [r["status"] for r in records]
            ids = {r["id"] for r in records}
            summary = report["summary"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"crash: unparsable report ({exc})"
        self.records = max(self.records, len(records))
        self.attempted += len(records)
        fails = statuses.count("fail")
        self.failed += fails
        self.summary = summary
        self.reports.add(inv.stdout)
        counts = {s: statuses.count(s) for s in ("pass", "fail", "flagged")}
        if summary != counts or len(statuses) != sum(counts.values()):
            return f"summary {summary} does not match the record statuses {counts}"
        missing = [i for i in self.required_ids if i not in ids]
        if missing:
            return f"required records missing: {missing}"
        if inv.exit_code != (1 if fails else 0):
            return f"exit code {inv.exit_code} with {fails} fail records"
        return None

    def close(self):
        """Charge crashes and check byte identity; return correct."""
        charge = self.crashes * max(self.records, 1)
        self.attempted += charge
        self.failed += charge
        if len(self.reports) > 1:
            self.problems.append(f"{len(self.reports)} different report byte strings")
        return not self.problems

    @property
    def sha256(self):
        return hashlib.sha256(next(iter(self.reports))).hexdigest() if self.reports else None


def spawn(argv, env, workdir, timeout) -> Invocation:
    """Run argv to completion; stdout and stderr go to files so that wait4
    can reap the child and return its rusage."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killed = []

    def kill():
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=None if killed else os.waitstatus_to_exitcode(status),
        stdout=stdout,
        stderr=stderr,
    )


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # the hash seed changes dict and set layouts, hence timings; tie it to
    # the workload seed so that one seed is one input
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def measure_setup(cfg_path, env, workdir, deadline):
    argv = [sys.executable, "-c", SETUP_PROBE] + ([cfg_path] if cfg_path else [])
    times = []
    for _ in range(SETUP_REPEATS):
        inv = spawn(argv, env, workdir, deadline - time.monotonic())
        if inv.exit_code != 0:
            raise RuntimeError(f"set-up probe failed: {inv.stderr[-500:]!r}")
        times.append(inv.wall_s)
    return statistics.median(times)


def closed_loop(make_argv, seconds, env, workdir, deadline, tally):
    """Invoke back to back while the next invocation fits in `seconds`."""
    invocations = []
    start = time.perf_counter()
    while True:
        i = len(invocations)
        inv = spawn(make_argv(i), env, workdir, deadline - time.monotonic())
        tally.add(inv)
        invocations.append(inv)
        elapsed = time.perf_counter() - start
        longest = max(x.wall_s for x in invocations)
        if elapsed + longest > seconds or time.monotonic() + longest > deadline:
            return invocations


def traced_metrics(workdir, count):
    """Per-layer metrics over `count` traced runs: times are medians, counts
    must repeat exactly."""
    runs = []
    for i in range(count):
        path = os.path.join(workdir, f"metrics-{i}.json")
        if os.path.exists(path):  # a crashed child writes none
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
    if not runs:
        return {}, [], ["no traced run completed"]
    problems = []
    out = {}
    for name in sorted({k for r in runs for k in r["metrics"]}):
        values = [r["metrics"].get(name, 0) for r in runs]
        if all(isinstance(v, int) for v in values):
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced runs: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    if len({json.dumps(r["solves"]) for r in runs}) > 1:
        problems.append("solve shapes differ between traced runs")
    return out, runs[0]["solves"], problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ellmotive", "cli.py")):
        print(f"no ellmotive sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    workload = workloads.make(args.workload, args.seed)
    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cli_args = workloads.write_config(workload, workdir)
        env = child_env(args.seed)
        tally = Tally(workload.required_ids)
        if args.trace:
            tracer = os.path.join(HERE, "trace.py")

            # spans of the last traced invocation are kept for inspection
            spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json")

            def make_argv(i):
                metrics_path = os.path.join(workdir, f"metrics-{i}.json")
                return [sys.executable, tracer, metrics_path, spans, "--", *cli_args]

            invs = closed_loop(make_argv, args.seconds, env, workdir, deadline, tally)
            layer, solves, problems = traced_metrics(workdir, len(invs))
            tally.problems.extend(problems)
            layer["trace.wall_s"] = statistics.median(x.wall_s for x in invs)
            metrics = {
                m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                for m in spec["per_layer"]
            }
            shapes = " ".join("x".join(map(str, s)) for s in solves) or "none"
            print(f"solve shapes (rows x cols x nnz): {shapes}")
            # every traced metric, including the times of layers a workload
            # may not enter, which BENCHMARK.json leaves out
            print(f"{LAYERS_PREFIX}{json.dumps(layer, sort_keys=True)}")
        else:
            cfg_path = cli_args[-1] if workload.config is not None else None
            setup_s = measure_setup(cfg_path, env, workdir, deadline)
            base = [sys.executable, "-m", "ellmotive.cli", *cli_args]
            invs = closed_loop(lambda i: base, args.seconds, env, workdir, deadline, tally)
            values = {
                "wall_s": statistics.median(x.wall_s for x in invs),
                "cpu_s": statistics.median(x.cpu_s for x in invs),
                "peak_rss_mb": statistics.median(x.rss_mb for x in invs),
                "setup_s": setup_s,
            }
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
        correct = tally.close()
        share = tally.failed / max(tally.attempted, 1)
        print(
            f"{args.workload} seed {args.seed}: {len(invs)} invocations, "
            f"report sha256 {tally.sha256}, summary {tally.summary}, "
            f"failed_share {share:g} ({tally.failed}/{tally.attempted})"
        )
        for problem in tally.problems:
            print(f"check failed: {problem}")
        result = {
            "correct": correct,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
