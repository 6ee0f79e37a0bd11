#!/usr/bin/env python3
"""Self-test of `pwbench compare` over a directory of smoke results.

  compare_selftest.py <pwbench> <result-dir>

1. The directory compared with itself reports zero drift and no "worse".
2. A copy with run_s doubled on one workload is flagged "worse" on exactly
   that (workload, metric) and nowhere else, and compare exits 1.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile


def compare(pwbench, parent, change):
    proc = subprocess.run([pwbench, "compare", str(parent), str(change)],
                          capture_output=True, text=True, check=False)
    rows = [line.split() for line in proc.stdout.splitlines()[1:-1]]
    return proc.returncode, rows, proc.stdout + proc.stderr


def main():
    pwbench, results = sys.argv[1], pathlib.Path(sys.argv[2])
    failures = []

    code, rows, out = compare(pwbench, results, results)
    if code != 0 or not rows or any(r[2] == "worse" for r in rows):
        failures.append("self-compare flagged a regression:\n" + out)
    if any(float(r[-2].rstrip("%")) != 0 for r in rows):
        failures.append("self-compare reports nonzero drift:\n" + out)

    victim = sorted(results.glob("*.jsonl"))[0]
    with tempfile.TemporaryDirectory() as tmp:
        change = pathlib.Path(tmp)
        for f in results.glob("*.jsonl"):
            shutil.copy(f, change / f.name)
        records = [json.loads(line)
                   for line in victim.read_text().splitlines() if line]
        for r in records:
            r["metrics"]["run_s"]["value"] *= 2
        (change / victim.name).write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        code, rows, out = compare(pwbench, results, change)
    worse = [(r[0], r[1]) for r in rows if r[2] == "worse"]
    if code != 1 or worse != [(victim.stem, "run_s")]:
        failures.append(f"2x run_s on {victim.stem} not flagged alone "
                        f"(exit {code}, worse {worse}):\n{out}")

    for f in failures:
        print("FAIL:", f)
    if not failures:
        print(f"ok: self-compare clean; 2x run_s flagged on {victim.stem} only")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
