"""Record the sha256 of every output that benchmark seed 0 produces.

Usage, from the root of a checkout: ``python3 perfbench/record_digests.py``.

Runs each workload's commands for the CLI seeds that ``run.py --seed 0``
uses, checks every output against the reference replay first (nothing is
recorded unless the gate passes with the digest check off), and writes
``perfbench/digests.json``.  Later runs compare byte for byte against it, so
an output change that the row replay misses (formatting, row order, a row
outside the replayed subset) still fails the gate.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run

#: Invocations per workload to record; a 20 s window runs fewer than this.
RECORD = {"dickman": 12, "deep": 12, "startup": 45, "validate": 1}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = run.OUT / "tmp-record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    digests: dict[str, str] = {}
    gate = run.Gate(digests={})
    try:
        for name, count in RECORD.items():
            workload = run.WORKLOADS[name]
            for k in range(count):
                cmd = workload.rotation[k % len(workload.rotation)]
                seed = run.cli_seed(workload, 0, k)
                key = " ".join(cmd.argv(seed))
                if key in digests:
                    continue
                inv = run.invoke(cmd, seed, tmp, f"{name}-{k}", run.CHILD_TIMEOUT_S)
                if not inv.problems:
                    gate.check(inv)
                if inv.problems:
                    print(f"not recorded, {key}: {'; '.join(inv.problems)}", file=sys.stderr)
                    return 1
                digests[key] = hashlib.sha256(inv.out.read_bytes()).hexdigest()
                print(f"{digests[key]}  {key}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests, {gate.rows_checked} rows replayed, written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
