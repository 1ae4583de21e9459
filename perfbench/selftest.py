#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, at tiny sizes (about 15 s).

    python3 perfbench/selftest.py

It checks that the tracer rebinds names imported by name. For every
workload it runs perfbench/run.py with --tiny, untraced and traced,
and checks the result line: every metric named in BENCHMARK.json is printed
with its unit, and no operation failed. It then checks that an injected
failure (an upstream artifact deleted after set-up) is counted as a failed
operation, and that the benchmark refuses to run, without printing a result,
in a directory that holds the benchmark but not the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170


class SelfTestError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def run(script: Path, cwd: Path, workload: str, trace: int,
        *extra: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result: dict, expected: list[dict], where: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys are {sorted(result)}")
    printed = result["metrics"]
    check(set(printed) == {m["name"] for m in expected},
          f"{where}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(printed) ^ {m['name'] for m in expected})}")
    for metric in expected:
        entry = printed[metric["name"]]
        check(entry.get("unit") == metric["unit"],
              f"{where}: {metric['name']} unit {entry.get('unit')!r}")
        check(isinstance(entry.get("value"), (int, float)),
              f"{where}: {metric['name']} has no numeric value")


# names a module imports by name: calls through them must reach a span too
REBOUND = (("detect", "elbo_loss"), ("detect", "iwae_batch"),
           ("detect", "stable_hash"), ("cvae", "stable_hash"),
           ("attack", "predict_label"), ("cli", "derive_seed"))


def check_rebinding() -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import stealthlab
    import stealthlab.cli  # noqa: F401  (loads every module)
    from spantrace import Tracer
    tracer = Tracer(stealthlab)
    tracer.install()
    try:
        for module, name in REBOUND:
            fn = getattr(getattr(stealthlab, module), name)
            check(hasattr(fn, "__wrapped__"), f"{module}.{name} is not traced")
    finally:
        tracer.uninstall()
    for module, name in REBOUND:
        fn = getattr(getattr(stealthlab, module), name)
        check(not hasattr(fn, "__wrapped__"), f"{module}.{name} not restored")
    print("ok  names imported by name are traced and restored")


def main() -> int:
    check_rebinding()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = BENCH_DIR / "run.py"
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            where = f"{workload} trace={trace}"
            code, result, err = run(script, ROOT, workload, trace)
            check(code == 0 and result is not None,
                  f"{where}: exit {code}\n{err[-2000:]}")
            check_metrics(result, expected, where)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{where}: {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            print(f"ok  {where}: {result['attempted']} operations")

        code, result, _ = run(script, ROOT, workload, 0, "--inject-failure")
        check(code != 0 and result is not None and result["failed"] >= 1
              and not result["correct"],
              f"{workload}: injected failure not counted (exit {code}, "
              f"{result})")
        print(f"ok  {workload} injected failure: {result['failed']} of "
              f"{result['attempted']} operations failed")

    bare = BENCH_DIR / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result, _ = run(bare / BENCH_DIR.name / "run.py", bare,
                              spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    check(code != 0 and result is None,
          f"without the program: exit {code}, result {result}")
    print("ok  without the program: refused")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
