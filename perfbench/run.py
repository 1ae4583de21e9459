#!/usr/bin/env python3
"""stealthlab benchmark: per-stage wall clocks on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload build --seed 0 --seconds 24 --trace 0

One process drives the pipeline stages through ``stealthlab.cli.run_stage``
as a closed loop: each stage starts when the previous one has finished. A
run first sets up (imports, then the workload's set-up stages, three times
into fresh directories) and then repeats the workload's timed stages until
the next repetition would overrun ``--seconds``. Every stage run is one
operation; it fails if it raises, if its artifact sha256s differ from the
previous repetition, or if an AUC is non-finite or outside [0, 1].

``--trace 0`` prints the end-to-end metrics (setup_s, total_s as a median over
repetitions, peak_rss_mib) and, as plain lines, each stage's median clock.
``--trace 1`` wraps the package's public functions in spans (perfbench/
spantrace.py) and prints per-layer metrics for one set-up plus one repetition,
with the tracing overhead against one untraced repetition of the same run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Run files go to perfbench/work/<workload>/.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()    # before the other imports: setup_s counts them

import argparse
import copy
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, never more than nproc: the stages' matrices are small, and
# one thread timed as fast as two on the two-core machine the benchmark was
# defined on. Set before numpy loads; the running count is read back.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
REFERENCE = BENCH_DIR / "reference_digests.json"
SETUP_PASSES = 3

UPSTREAM = ("data", "ids", "gan", "cvae", "sweep")
TIMED_STAGES = ("ids", "gan", "cvae", "sweep", "detect")

# Shared by every workload: the stock synthetic data and network widths, with
# training shortened to fit one run. The sweep keeps its refinement (ten
# 60-step trajectories) but scores only n_ref = 60, so the operating point,
# and with it detect's own refinement, costs the same on every seed. eta_max
# is lowered from 0.8 so the shortened GAN still yields a feasible point.
_COMMON = {"ids": {"epochs": 10}, "gan": {"epochs": 6},
           "sweep": {"eta_max": 0.4, "n_ref_grid": [60]}}
# score workloads: a lighter CVAE (no baseline VAE, detect never reads it)
_SCORE_UPSTREAM = {"cvae": {"epochs": 2, "train_baseline_vae": False}}


@dataclass(frozen=True)
class Workload:
    setup_stages: tuple[str, ...]
    rep_stages: tuple[str, ...]
    sections: dict


WORKLOADS = {
    # batch-64 training through nn plus the sweep; detect only at a minimal
    # size, so regret and IWAE changes leave it (almost) flat
    "build": Workload(
        ("data",), ("ids", "gan", "cvae", "sweep", "detect", "report"),
        {"cvae": {"epochs": 5},
         "detect": {"max_samples_per_tag": 8, "benign_calibration": 8,
                    "k": 5, "regret": {"steps": 1}}}),
    # batch-1 encoder refits: score_regret dominates detect
    "score-regret": Workload(
        UPSTREAM, ("detect", "report"),
        {**_SCORE_UPSTREAM,
         "detect": {"max_samples_per_tag": 64, "benign_calibration": 64,
                    "regret": {"steps": 32}}}),
    # k-row decoder batches under every label: score_nll dominates detect
    "score-nll": Workload(
        UPSTREAM, ("detect", "report"),
        {**_SCORE_UPSTREAM,
         "detect": {"label_mode": "min", "k": 500,
                    "max_samples_per_tag": 36, "benign_calibration": 36,
                    "regret": {"steps": 1}}}),
}

# --tiny: the harness self-test's sizes (every stage runs, in seconds)
_TINY = {"dataset": {"samples_per_class": 40},
         "ids": {"epochs": 1}, "gan": {"epochs": 1}, "cvae": {"epochs": 1},
         "sweep": {"epsilon_grid": [0.05], "rho_grid": [0.2],
                   "n_ref_grid": [5], "eta_max": 0.0},
         "detect": {"max_samples_per_tag": 4, "benign_calibration": 4,
                    "k": 4, "regret": {"steps": 2}}}

# Stage clocks are printed and kept in result.json but are not contract
# metrics: every workload must report every metric, and on each workload most
# stages are sub-second set-up or filler runs whose ten-run spread on a noisy
# two-core box reaches the largest bound the contract allows.
END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mib": "MiB"}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def workload_sections(name: str, tiny: bool) -> dict:
    sections = _merge(_COMMON, WORKLOADS[name].sections)
    return _merge(sections, _TINY) if tiny else sections


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Operations:
    """Runs stages as operations and keeps the attempted/failed counts."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def run_pass(self, stages, config, run_id: str) -> dict:
        """Run `stages` in order; returns {stage: (seconds, digest|None)}."""
        out = {}
        for stage in stages:
            self.attempted += 1
            began = time.perf_counter()
            try:
                self.cli.run_stage(stage, config)
            except Exception as exc:  # one failed operation; the run goes on
                out[stage] = (time.perf_counter() - began, None)
                traceback.print_exc(file=sys.stderr)
                self.fail(f"{run_id}/{stage}: {type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - began
            out[stage] = (seconds, stage_digest(Path(config.out_dir), stage))
            if stage == "report":
                self._check_aucs(Path(config.out_dir), run_id)
        return out

    def _check_aucs(self, out_dir: Path, run_id: str) -> None:
        with open(out_dir / "report" / "summary.json", encoding="utf-8") as fh:
            aucs = json.load(fh)["auc"]
        bad = {k: v for k, v in aucs.items()
               if not (isinstance(v, (int, float)) and math.isfinite(v)
                       and 0.0 <= v <= 1.0)}
        if bad:
            self.fail(f"{run_id}/report: AUC outside [0, 1]: {bad}")

    def check_repeat(self, passes: list[dict], kind: str) -> None:
        """Each pass must reproduce the previous one's artifacts bit for bit."""
        for index in range(1, len(passes)):
            for stage, (_, digest) in passes[index].items():
                before = passes[index - 1].get(stage, (0, None))[1]
                if digest and before and digest != before:
                    self.fail(f"{kind}-{index}/{stage}: artifact sha256s "
                              f"differ from {kind}-{index - 1}")


def stage_digest(out_dir: Path, stage: str) -> str:
    """sha256 over the stage's (artifact, sha256) pairs in the manifest."""
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        artifacts = json.load(fh)["stages"][stage]["artifacts"]
    canon = json.dumps(sorted(artifacts.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_runtime(np) -> dict:
    """Thread count and config string read from the loaded OpenBLAS."""
    import ctypes
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        found = {}
        for key, names, restype in (
                ("threads", ("scipy_openblas_get_num_threads64_",
                             "openblas_get_num_threads64_",
                             "openblas_get_num_threads"), ctypes.c_int),
                ("config", ("scipy_openblas_get_config64_",
                            "openblas_get_config64_",
                            "openblas_get_config"), ctypes.c_char_p)):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    found[key] = value.decode() if isinstance(value, bytes) \
                        else value
                    break
        if found:
            return found
    return {}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    runtime = _blas_runtime(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_runtime_config": runtime.get("config", "unknown"),
        "blas_threads": runtime.get("threads", BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes() or "unknown",
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/selftest.py)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="delete an upstream artifact after set-up "
                             "(perfbench/selftest.py)")
    return parser.parse_args(argv)


def _pass_seconds(one_pass: dict) -> float:
    return sum(seconds for seconds, _ in one_pass.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stealthlab" / "cli.py").is_file():
        print(f"benchmark: no stealthlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True     # every run compiles the same way
    import numpy as np
    import stealthlab
    from stealthlab import cli
    if SRC not in Path(stealthlab.__file__).resolve().parents:
        print("benchmark: imported stealthlab from outside src/",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED

    workload = WORKLOADS[args.workload]
    sections = workload_sections(args.workload, args.tiny)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def config_for(out_dir: Path):
        return cli.parse_config({"schema_version": cli.SCHEMA_VERSION,
                                 "seed": args.seed, "out_dir": str(out_dir),
                                 **copy.deepcopy(sections)})

    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True))
    ops = Operations(cli)
    tracer = None
    if args.trace:
        from spantrace import Tracer, layer_metrics, stage_coverage
        tracer = Tracer(stealthlab)
        tracer.install()

    setups = []
    for index in range(SETUP_PASSES):
        out_dir = work / f"setup-{index}"
        if tracer:
            tracer.drop_runs(set())
            tracer.run_id = f"setup-{index}"
        setups.append(ops.run_pass(workload.setup_stages, config_for(out_dir),
                                   f"setup-{index}"))
        if index:
            shutil.rmtree(work / f"setup-{index - 1}")
    ops.check_repeat(setups, "setup")
    config = config_for(out_dir)
    if args.inject_failure:
        (out_dir / "data" / "train.csv").unlink()

    reps, untraced, coverage = [], None, None
    if tracer:
        tracer.uninstall()
        untraced = ops.run_pass(workload.rep_stages, config, "untraced")
        reps.append(untraced)
        tracer.install()
    timed = []
    began = time.perf_counter()
    while True:
        run_id = f"rep-{len(timed)}"
        if tracer:
            tracer.drop_runs({f"setup-{SETUP_PASSES - 1}"})
            tracer.run_id = run_id
        failures_before = len(ops.failures)
        timed.append(ops.run_pass(workload.rep_stages, config, run_id))
        elapsed = time.perf_counter() - began
        if (len(ops.failures) > failures_before
                or elapsed * (len(timed) + 1) / len(timed) > args.seconds):
            break
    if tracer:
        tracer.uninstall()
    reps.extend(timed)
    ops.check_repeat(reps, "rep")

    digests = {stage: d for p in (setups[0], reps[0])
               for stage, (_, d) in p.items()}
    reference = None
    if not args.tiny and REFERENCE.is_file():
        recorded = json.loads(REFERENCE.read_text()).get(
            args.workload, {}).get(str(args.seed))
        if recorded is not None:
            reference = recorded == digests
    print("reference digests: " + {None: "none recorded for this seed",
                                   True: "match",
                                   False: "differ"}[reference])

    total_s = statistics.median(_pass_seconds(p) for p in timed)
    if tracer:
        tracer.write(work / "trace.jsonl")
        metrics = {name: {"value": float(v), "unit": unit}
                   for name, (v, unit) in layer_metrics(tracer.spans).items()}
        coverage = stage_coverage(tracer.spans)
        untraced_s = _pass_seconds(untraced)
        metrics["trace.total_s"] = {"value": total_s, "unit": "s"}
        metrics["trace.untraced_total_s"] = {"value": untraced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": total_s - untraced_s,
                                       "unit": "s"}
    else:
        values = {"setup_s": import_s + statistics.median(
            _pass_seconds(p) for p in setups),
                  "total_s": total_s,
                  "peak_rss_mib": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    # stage clocks: medians over the repetitions, or over the set-up passes
    # for stages a workload runs only in set-up
    stage_s = {stage: statistics.median(
        p[stage][0] for p in (timed if stage in workload.rep_stages
                              else setups))
        for stage in TIMED_STAGES}
    for stage, seconds in stage_s.items():
        print(f"stage {stage}_s = {seconds:.6g} s")

    failed = len(ops.failures)
    result = {"correct": failed == 0, "attempted": ops.attempted,
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, env=env, failures=ops.failures,
                  reference_match=reference, digests=digests,
                  import_s=import_s, sections=sections,
                  stage_s=stage_s, stage_coverage=coverage,
                  setup_passes=[{k: v[0] for k, v in p.items()}
                                for p in setups],
                  reps=[{k: v[0] for k, v in p.items()} for p in reps])
    (work / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(f"operations: {ops.attempted} attempted, {failed} failed; "
          f"{len(timed)} timed repetitions")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
