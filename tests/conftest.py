import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from stealthlab import data, ids
from stealthlab.cli import RunConfig, run_stage

PIPELINE_STAGES = ["data", "ids", "gan", "cvae", "sweep", "detect", "report"]


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fails a test that leaves a thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    """One full default synthetic pipeline, shared by the acceptance tests."""
    out_dir = tmp_path_factory.mktemp("pipeline")
    config = RunConfig(seed=0, out_dir=str(out_dir))
    timings = {}
    started = time.perf_counter()
    for stage in PIPELINE_STAGES:
        t0 = time.perf_counter()
        run_stage(stage, config)
        timings[stage] = time.perf_counter() - t0
    wall_clock = time.perf_counter() - started
    return {
        "out_dir": Path(out_dir),
        "config": config,
        "timings": timings,
        "wall_clock": wall_clock,
    }


@pytest.fixture(scope="session")
def separable_ids(tmp_path_factory):
    """IDS trained on well-separated synthetic data (mean gap 8x the std)."""
    spec = data.DatasetConfig(samples_per_class=100, separation=0.4, std=0.05)
    raw = data.synth_generate(spec, 41)
    train, test = data.stratified_split(raw, 0.8, seed=42)
    scaler = data.fit_minmax(train)
    train_scaled = data.apply_minmax(train, scaler)
    test_scaled = data.apply_minmax(test, scaler)
    t0 = time.perf_counter()
    model, curve = ids.train_ids(train_scaled, ids.IdsTrainConfig(), 43)
    train_seconds = time.perf_counter() - t0
    return {
        "model": model,
        "train": train_scaled,
        "test": test_scaled,
        "curve": curve,
        "train_seconds": train_seconds,
    }


def load_summary(out_dir: Path) -> dict:
    with open(out_dir / "report" / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_manifest(out_dir: Path) -> dict:
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
