"""Smoke test of the benchmark harness; runs in about ten seconds.

    python3 perfbench/smoke.py

Runs ``run.py`` on the 16-state ``smoke`` workload with and without
tracing, and checks that the result line has the agreed shape, that every
metric BENCHMARK.json names is reported with its unit, and that the
harness refuses to run, printing no result, in a directory holding only
the benchmark.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(argv, cwd):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(trace, expected):
    code, out, err = run(["perfbench/run.py", "--workload", "smoke", "--seed", "3",
                          "--seconds", "1", "--trace", str(trace)], ROOT)
    assert code == 0, f"trace {trace}: exit {code}\n{err}"
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, err
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"trace {trace}: metrics {got} != {units}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    return result


def check_refuses_bare_directory():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out, _ = run([*SPEC["command"][1:], "--workload", "ex1-solve",
                            "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and '"correct"' not in out, (code, out)


def main():
    workloads = {w["name"] for w in SPEC["workloads"]}
    sys.path.insert(0, str(BENCH))
    import run as harness
    assert workloads <= set(harness.WORKLOADS), workloads
    timed = check_result(0, SPEC["end_to_end"])
    traced = check_result(1, SPEC["per_layer"])
    check_refuses_bare_directory()
    print(f"smoke ok: timed {timed['attempted']} runs, traced "
          f"{traced['attempted']} runs, bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
