"""Self-test of the benchmark's failure accounting on real inputs.

    python3 perfbench/selftest.py

1. ``ellmotive verify boundaries`` on the F_10007 config of motive-fp-n2
   (seed 0) yields exactly one fail record, boundaries:mu-formula:n=1,r=0.
   This is a known program defect, not benchmark noise:
   formulas._default_mu_const picks a = (6, 9992) = -6P, so a + p lands on
   -supp(g1) and one mu-lower instance has no terms.  When it is fixed this
   test reads 0 failures and must be updated along with the fix.
2. A crashed invocation (exit code 2 on an unreadable config) fails every
   record a complete run of the same command yields.

Exits 0 when the accounting matches, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads

KNOWN_FAILURE = "boundaries:mu-formula:n=1,r=0"


def main() -> int:
    workdir = os.path.join(run.HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cfg_path = os.path.join(workdir, "fp.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(workloads.fp_config(0, p=10007), fh)
        broken = os.path.join(workdir, "broken.json")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        env = run.child_env(0)
        deadline = time.monotonic() + run.RUN_BUDGET_S
        cli = [sys.executable, "-m", "ellmotive.cli", "verify", "boundaries", "--config"]

        tally = run.Tally(())
        inv = run.spawn(cli + [cfg_path], env, workdir, deadline - time.monotonic())
        tally.add(inv)
        fails = [r["id"] for r in json.loads(inv.stdout)["records"] if r["status"] == "fail"]
        checks = [
            ("one fail record", tally.failed == 1, tally.failed),
            ("it is the known defect", fails == [KNOWN_FAILURE], fails),
            ("exit code 1 is no crash", not tally.problems, list(tally.problems)),
        ]
        records = tally.attempted

        inv = run.spawn(cli + [broken], env, workdir, deadline - time.monotonic())
        tally.add(inv)
        tally.close()
        checks += [
            ("exit code 2 is a crash", tally.crashes == 1, inv.exit_code),
            (
                "a crash fails every record",
                (tally.attempted, tally.failed) == (2 * records, records + 1),
                (tally.attempted, tally.failed),
            ),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, ok, seen in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {seen}")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
