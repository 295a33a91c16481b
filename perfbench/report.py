"""Print every benchmark metric by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs perfbench/run.py once untraced and once traced per workload, then
prints the end-to-end metrics with failed_share (failed / attempted
records), the per-layer metrics, and the tracing overhead of each workload:
the traced wall time minus the untraced median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import workloads


def bench(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = run.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = ap.parse_args()
    names = args.workload or list(workloads.NAMES)

    plain, traced, traced_layers = {}, {}, {}
    for name in names:
        plain[name], notes = bench(name, args.seed, args.seconds, 0)
        traced[name], tnotes = bench(name, args.seed, args.seconds, 1)
        for line in notes + tnotes:
            if line.startswith(run.LAYERS_PREFIX):
                traced_layers[name] = json.loads(line[len(run.LAYERS_PREFIX):])
            else:
                print(f"# {line}")

    width = max(len(n) for n in names) + 2
    print(f"\nend-to-end metrics, seed {args.seed}, {args.seconds:g} s per run, trace off")
    cols = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + [("failed_share", "share")]
    print("workload".ljust(width) + "".join(f"{f'{n} [{u}]':>22}" for n, u in cols) + "  correct")
    for name in names:
        res = plain[name]
        values = {k: v["value"] for k, v in res["metrics"].items()}
        values["failed_share"] = res["failed"] / res["attempted"]
        row = "".join(f"{values[n]:>22.4f}" for n, _ in cols)
        print(name.ljust(width) + row + f"  {res['correct'] and traced[name]['correct']}")

    listed = [m["name"] for m in spec["per_layer"]]
    others = sorted({k for v in traced_layers.values() for k in v} - set(listed))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    mwidth = max(len(k) for k in listed + others) + 2
    for title, keys in (
        ("per-layer metrics of BENCHMARK.json (traced run)", listed),
        ("other traced metrics (times of layers a workload may not enter)", others),
    ):
        print(f"\n{title}")
        print("metric".ljust(mwidth) + "".join(f"{n:>18}" for n in names) + "  unit")
        for key in keys:
            values = [traced_layers[n].get(key, 0) for n in names]
            row = "".join(f"{v:>18d}" if isinstance(v, int) else f"{v:>18.6f}" for v in values)
            # the tracer reports times as floats and counts as ints
            unit = units.get(key) or ("s" if any(isinstance(v, float) for v in values) else "count")
            print(key.ljust(mwidth) + row + f"  {unit}")

    print("\ntracing overhead (traced wall time minus untraced median wall time)")
    for name in names:
        traced_s = traced[name]["metrics"]["trace.wall_s"]["value"]
        plain_s = plain[name]["metrics"]["wall_s"]["value"]
        print(f"{name.ljust(width)}{traced_s - plain_s:>10.3f} s  ({traced_s:.3f} s vs {plain_s:.3f} s)")
    ok = all(plain[n]["correct"] and traced[n]["correct"] for n in names)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
