#!/usr/bin/env python
"""Run the whole synthetic pipeline end to end and print the summary.

Usage:
    python scripts/run_synth_pipeline.py [--out runs/synth] [--seed 0]

Equivalent to the CLI sequence synth / train-ids / train-gan / train-cvae /
sweep / detect / report with the stock configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from stealthlab.cli import STAGES, RunConfig, run_stage


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
