"""Write bench/golden/<workload>.json from the current td2g, at the default seed.

    python3 bench/make_golden.py [workload ...]

A golden holds, for each op of the first `workloads.GOLDEN_ROUNDS` rounds
at `workloads.DEFAULT_SEED`, the exit code and either the canonical report
with `elapsed_ms` stripped (verify) or the sha256 of the output file (act).  The benchmark then
requires these exact bytes.  Outputs are written only if they also pass
the verdict rule.  Regenerate a golden only for a change that is meant to
alter td2g's output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import worker
import workloads

def golden_ops(td2g, workload: str, work: str) -> dict:
    seed = workloads.DEFAULT_SEED
    if workload == "act-io":
        worker.generate_act_inputs(work, seed)
    spec = {"workload": workload, "seed": seed, "work": work}
    ops = {}
    for res in (res for ops in worker.run_rounds(td2g.cli, spec, workloads.GOLDEN_ROUNDS[workload]) for res in ops):
        why = run.verdict(res)
        if why is not None:
            raise SystemExit(f"{res['key']}: {why}")
        if res["kind"] == "act":
            ops[res["key"]] = {"exit": res["exit"], "sha256": res["sha256"]}
        else:
            ops[res["key"]] = {"exit": res["exit"], "stdout": run.strip_elapsed(res["stdout"])}
    return ops


def main(names: list[str]) -> int:
    td2g = worker.import_td2g(str(run.ROOT))
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        work = tempfile.mkdtemp(prefix=".bench-work-", dir=run.ROOT)
        try:
            ops = golden_ops(td2g, workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        payload = {"seed": workloads.DEFAULT_SEED, "rounds": workloads.GOLDEN_ROUNDS[workload], "ops": ops}
        with open(run.GOLDEN / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(ops)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
