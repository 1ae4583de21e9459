#!/usr/bin/env python
"""Run the whole synthetic pipeline end to end and print the summary.

Usage:
    python scripts/run_synth_pipeline.py [--out runs/synth] [--seed 0]

Equivalent to the CLI sequence synth / train-ids / train-gan / train-cvae /
sweep / detect / report with the stock configuration. BLAS runs on one
thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS says otherwise: the
NLL scorer's second lane, which runs its own decoder GEMMs, and the sweep's,
which runs its own generator GEMMs, each take a core that a second BLAS
thread would contend for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# before numpy loads, or BLAS has already started its threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from stealthlab.cli import STAGES, RunConfig, run_stage  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/synth")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = RunConfig(seed=args.seed, out_dir=args.out)
    started = time.perf_counter()
    for stage in STAGES:
        t0 = time.perf_counter()
        meta = run_stage(stage, config)
        print(f"[{stage}] {time.perf_counter() - t0:6.1f}s "
              + json.dumps(meta, sort_keys=True, default=str))
    total = time.perf_counter() - started
    print(f"total {total:.1f}s")

    summary_path = Path(args.out) / "report" / "summary.json"
    print(summary_path.read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
