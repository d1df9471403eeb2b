"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

For every workload, on two seeds and in both modes, it runs
``run.py --smoke`` and checks that:

* the last line is the result object with exactly its four keys, every
  output check passed and nothing failed;
* the metrics are exactly those ``BENCHMARK.json`` names, each with its
  unit, and each is also printed by name with its unit above the result;
* the simulated-statistics digest repeats between the traced and the
  untraced run of one seed.

It also checks that the benchmark exits with an error, printing no
result, in a directory that holds only ``BENCHMARK.json`` and
``perfbench/``.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = (1, 2)
TIMEOUT_S = 180


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=TIMEOUT_S, check=False)


def check_output(proc, expected, label) -> tuple:
    """Problems in one run's output, and its digest."""
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr}"], None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}\n{proc.stdout}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            printed[fields[0]] = fields[2]
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(
                entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} reads {entry}, unit {unit}")
        if printed.get(name) != unit:
            problems.append(f"{label}: {name} not printed with unit {unit}")
    digest = next((field.split("=", 1)[1] for line in lines
                   if line.startswith("# units=")
                   for field in line.split() if field.startswith("digest=")),
                  None)
    return problems, digest


def bare_directory_fails() -> list:
    """The benchmark must refuse to run without the program's source."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "fig11", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = bare_directory_fails()
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            digests = set()
            for trace, expected in modes.items():
                label = f"{workload} seed={seed} trace={trace}"
                proc = run(ROOT, "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", trace, "--smoke")
                found, digest = check_output(proc, expected, label)
                problems.extend(found)
                digests.add(digest)
                print(f"{label}: {'ok' if not found else 'FAILED'}",
                      flush=True)
            if len(digests) != 1:
                problems.append(f"{workload} seed={seed}: digests {digests}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
