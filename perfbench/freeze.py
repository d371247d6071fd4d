"""Record frozen.json: output digests of the default-seed job lists.

Run from the root of a checkout of the code whose outputs are the reference:

    python3 perfbench/freeze.py

It runs every job of every workload's default-seed list once, plus the
frozen CLI commands of gate.py, and writes their sha256 digests.  Rerun it
only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (pins BLAS threads before numpy is imported)
from gate import DEFAULT_SEED, FROZEN, FROZEN_COMMANDS, digests, sha256
from jobs import WORKLOADS, cli_call, make_jobs, run_job


def main() -> int:
    run.import_ncball()
    frozen = {"default_seed": DEFAULT_SEED, "commands": {}, "jobs": {}}
    for name, argv in FROZEN_COMMANDS.items():
        rc, stdout = cli_call(argv)
        if rc != 0:
            print(f"ncball {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
        frozen["commands"][name] = sha256(stdout)
    for workload in WORKLOADS:
        entries = []
        for job in make_jobs(workload, DEFAULT_SEED, run.OUT_DIR / workload):
            outcome = run_job(job)
            if outcome.rc != 0:
                print(f"{job.label()[:80]} exited {outcome.rc}", file=sys.stderr)
                return 1
            entries.append(digests(job, outcome))
        frozen["jobs"][workload] = entries
    FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FROZEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
