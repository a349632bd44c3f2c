"""Write one BENCH file per benchmark workload.

    python3 tools/bench_file.py TAG

Run from anywhere inside a source checkout.  For each workload that
BENCHMARK.json names, it runs

    python3 perfbench/run.py --workload W --seed 20260810 --seconds S --trace 0

with S the benchmark's run_seconds, keeps the JSON line run.py prints last,
adds the workload, seed, seconds, nproc, the Python version and the HEAD
commit, and writes BENCH_<TAG>_<W>.json at the repository root.  It exits 1
unless every run's last line parses and reads correct: true and failed: 0;
the files of the runs that passed are written either way.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20260810


def bench_record(stdout: str, workload: str, seconds: float, head: str) -> dict:
    """The BENCH record of one run.py run, from its stdout.

    Raises ValueError unless the last line is a JSON object that reads
    correct: true and failed: 0.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError(f"{workload}: run.py printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{workload}: the last line is not JSON: {exc}") from None
    if not isinstance(result, dict) or result.get("correct") is not True \
            or result.get("failed") != 0:
        raise ValueError(f"{workload}: the run did not pass: {lines[-1][:200]}")
    return {"workload": workload, "seed": SEED, "seconds": seconds,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "head": head, **result}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not re.fullmatch(r"[\w.-]+", argv[0]):
        print(__doc__, file=sys.stderr)
        return 2
    tag = argv[0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    status = 0
    for w in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(SEED),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        try:
            record = bench_record(proc.stdout, w, seconds, head)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        path = os.path.join(ROOT, f"BENCH_{tag}_{w}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(record, indent=2) + "\n")
        print(path)
    return status


if __name__ == "__main__":
    sys.exit(main())
