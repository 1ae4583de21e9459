#!/usr/bin/env python
"""Compare the artifacts two pipeline runs recorded, sha256 for sha256.

Usage:
    python scripts/compare_manifests.py RUN_A RUN_B

RUN_A and RUN_B are run output directories, or their manifest.json files.
Exit 0 when every stage records the same artifact paths with the same
sha256s in both. Otherwise print each artifact that differs, as
"stage: path: sha256 in A != sha256 in B" ("missing" where a run did not
record it), and exit 1. A manifest that cannot be read, or that records no
artifact, exits 2. Timings, stage metadata and config digests are not
compared. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MANIFEST_NAME = "manifest.json"


def recorded(run: str) -> dict[tuple[str, str], str]:
    """{(stage, artifact path): sha256} from `run`'s manifest."""
    path = Path(run)
    if path.is_dir():
        path = path / MANIFEST_NAME
    stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
    artifacts = {(stage, rel): sha256 for stage, entry in stages.items()
                 for rel, sha256 in entry["artifacts"].items()}
    if not artifacts:
        raise ValueError(f"{path} records no artifact")
    return artifacts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("run_a")
    parser.add_argument("run_b")
    args = parser.parse_args(argv)
    try:
        a, b = recorded(args.run_a), recorded(args.run_b)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"compare_manifests: {exc!r}", file=sys.stderr)
        return 2
    differ = [key for key in sorted(a.keys() | b.keys())
              if a.get(key) != b.get(key)]
    for stage, rel in differ:
        print(f"{stage}: {rel}: {a.get((stage, rel), 'missing')} != "
              f"{b.get((stage, rel), 'missing')}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} artifacts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
