"""Record the output digests that later runs of the default seed are checked against.

    python3 perfbench/record_digests.py

Runs one pass of every workload on the default seed, checks it as a normal
run does (closed-form Υ, Υ₂ of K equal to Υ₂ of K ⊕ boxes), and writes the
digest of each report (keyed by its canonical expression) and of each Υ₂
value on ``stable-pairs`` (keyed by expression and t0) to ``digests.json``.  Rerun it only when the output format changes on purpose.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.import_cfk()
    run.SCRATCH.mkdir(exist_ok=True)
    table = {}
    for name in workloads.NAMES:
        workload, *_ = run.new_workload(name, workloads.DEFAULT_SEED)
        done = run.run_pass(workload)
        if done.failures:
            print(f"{name}: {len(done.failures)} failed, e.g. {done.failures[0][1]}",
                  file=sys.stderr)
            return 1
        entries = table.setdefault(workload.digest_table, {})
        entries.update(workload.record(q, out) for q, (out, _) in zip(workload.queries, done.outputs))
        print(f"{name}: {len(entries)} digests in {workload.digest_table!r}")
    table = {name: dict(sorted(entries.items())) for name, entries in sorted(table.items())}
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
