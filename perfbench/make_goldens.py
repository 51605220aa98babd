"""Rewrite ``goldens.json`` from the program as it stands.

Usage (from the repository root)::

    python3 perfbench/make_goldens.py

Run it only when a change is meant to alter simulated results or the
report bytes, and say so in the change's notes: the goldens are what
the benchmark's correctness gate compares every run against.  Records
the outcome sha256 of every spec of table3-cold and tournament-4socket
(full and quick scale), the report-warm document sha256, and the
results sha256 of the full Table 3 batch in default order.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile

import workloads


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    from repro.exp import ResultCache, run_batch

    outcomes = {}
    table3_sha = None
    scratch = workloads.ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    try:
        for quick in (False, True):
            table3 = run_batch(workloads.table3_specs(quick), jobs=2)
            tournament = run_batch(workloads.tournament_specs(quick), jobs=2)
            for batch in (table3, tournament):
                for row in batch.rows:
                    outcomes[row.spec.fingerprint()] = workloads.outcome_sha256(
                        row.outcome
                    )
            if not quick:
                table3_sha = table3.results_sha256
        cache = f"{work}/cache"
        run_batch(workloads.report_fill_specs(), cache=ResultCache(cache))
        out = f"{work}/REPORT.md"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "report", "--quick",
             "--from-cache", "--cache-dir", cache, "--out", out],
            check=True, env=workloads.child_env(), cwd=work,
            stdout=subprocess.DEVNULL,
        )
        with open(out, "rb") as handle:
            report_sha = hashlib.sha256(handle.read()).hexdigest()
    finally:
        shutil.rmtree(work)
        try:
            scratch.rmdir()
        except OSError:
            pass
    goldens = {
        "outcome_sha256": dict(sorted(outcomes.items())),
        "report_sha256": report_sha,
        "table3_results_sha256": table3_sha,
    }
    workloads.GOLDENS.write_text(
        json.dumps(goldens, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(outcomes)} outcome goldens to {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
