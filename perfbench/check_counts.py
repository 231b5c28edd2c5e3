"""Check that exact counts and output digests repeat run to run.

    python3 perfbench/check_counts.py [workload ...]

For each workload (all three by default) it makes two traced runs and one
untraced run with the same seed.  The exact per-layer counts must be
identical between the traced runs, and the output digests identical
across all three, because tracing must not change the numerics.  The
gradcheck workload runs its whole suite each time, about three minutes
for the three runs.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 1
SECONDS = 2
DIGESTS = ("train.loss_digest", "eval.confusion_digest", "gradcheck.report_digest")
WORKLOADS = ("train_gated", "eval_plain", "gradcheck_gate")


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return json.loads(out[-2])["info"], json.loads(out[-1])


def check(workload: str) -> list[str]:
    problems = []
    traced = [_run(workload, 1) for _ in range(2)]
    plain = _run(workload, 0)
    for info, result in traced + [plain]:
        if not result["correct"]:
            problems.append(f"{workload}: run not correct: {info.get('check_failures')}")
    if traced[0][0]["counts"] != traced[1][0]["counts"]:
        problems.append(f"{workload}: counts differ: {traced[0][0]['counts']} vs {traced[1][0]['counts']}")
    for key in DIGESTS:
        seen = {info.get(key) for info, _ in traced + [plain]}
        if len(seen) != 1:
            problems.append(f"{workload}: {key} differs between runs: {sorted(map(str, seen))}")
    print(f"{workload}: counts {traced[0][0]['counts']}")
    return problems


def main(argv: list[str]) -> int:
    problems = [p for w in (argv or WORKLOADS) for p in check(w)]
    for p in problems:
        print(p, file=sys.stderr)
    print("FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
