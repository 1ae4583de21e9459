"""Bounded iterative refinement, OOD baselines, and the stealth sweep.

Refinement starts from the raw attack rows and repeatedly adds generator
perturbations, clipping back into the per-feature band
[x_att - epsilon, x_att + epsilon] intersected with [0, 1] after every step,
so the infinity-norm deviation from the original rows never exceeds epsilon.

Stealth is measured distributionally: the gap between the 1-d Wasserstein
distance of (adversarial vs attack) marginals and that of (noise-OOD vs
attack) marginals, averaged per feature. The sweep scans (epsilon,
noise_scale, n_ref) and keeps the most stealthy point whose evasion success
meets the floor.

`SweepConfig` holds the grids and the floor and is the run config's `sweep`
section; `sweep(..., config, seed, x_benign)` takes the seed as an argument,
and the benign rows that each point's batches are also measured against.
Each grid point's crafted and OOD batches are seeded from the sweep seed and
the point's coordinates, and `operating_point` rebuilds the rows the caller
asks for of the pair the sweep scored at one point, so downstream stages
never derive those seeds themselves. Every refinement step draws noise for
all of `x_att`'s rows, whichever rows it advances, so the random stream is
the sweep's; only the asked rows go through the generator and are clipped,
in blocks of at most 255 rows. The sweep refines its epsilon grid on two lanes,
the calling thread and one worker, since each epsilon's trajectory draws
from its own stream.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import nn
from .cgan import Generator, generate_perturbation
from .data import bound, check_bounds, write_csv
from .errors import ShapeError
from .ids import predict_label
from .rng import derive_rng, derive_seed


@dataclass
class SweepConfig:
    epsilon_grid: list[float] = bound(
        [round(0.01 * k, 2) for k in range(1, 11)], gt=0.0)
    rho_grid: list[float] = bound(      # OOD noise scales
        [round(0.1 * k, 1) for k in range(1, 11)], gt=0.0)
    n_ref_grid: list[int] = bound(      # refinement steps
        list(range(5, 65, 5)), min=0)
    eta_max: float = bound(0.8, min=0.0, max=1.0)   # evasion success floor

    def __post_init__(self):
        if not self.epsilon_grid or not self.rho_grid or not self.n_ref_grid:
            raise ValueError("all three grids must be non-empty")
        check_bounds(self)


@dataclass
class StealthReport:
    epsilon: float
    rho: float
    n_ref: int
    w_adv_att: float
    w_ood_att: float
    objective: float
    succ_adv: float
    succ_ood: float
    feasible: bool
    w_adv_ben: float
    w_ood_ben: float


@dataclass
class SweepResult:
    reports: list[StealthReport]
    selection: StealthReport | None     # None: no point meets eta_max


# rows per generator pass in refine_trajectory: a 128-255-row block's
# activations through the stock 256-wide generator stay in a 2 MiB L2
BLOCK_ROWS = 128


def refine_trajectory(gen: Generator, x_att: np.ndarray, labels: np.ndarray,
                      epsilon: float, snapshot_steps: list[int], seed: int,
                      rows: np.ndarray | slice = slice(None)
                      ) -> dict[int, np.ndarray]:
    """Run max(snapshot_steps) refinement steps, snapshotting along the way.

    Returns {step: x_att[rows] after that step} (step 0 is the input itself).
    Noise is drawn once per step for every row of x_att, so a shorter run
    with the same seed is an exact prefix of a longer one and the draws do
    not depend on `rows`; snapshots equal standalone runs bit for bit. Only
    the rows `rows` (an index array; by default all of them) go through the
    generator and are clipped into their band. Their results are the full
    batch's rows bit for bit when at least 2 rows are asked for: a 1-row
    batch takes BLAS's matrix-vector path, whose sums may round differently.

    The n asked rows go through in `max(1, n // BLOCK_ROWS)` even blocks,
    of 128-255 rows once n >= 128. No block has 1 row unless n is 1, so
    every row keeps the bits of a one-batch pass.
    """
    if x_att.ndim != 2:
        raise ShapeError("x_att must be 2-d")
    steps = sorted(set(int(s) for s in snapshot_steps))
    rng = derive_rng(seed, "refine-noise")
    start, labels = x_att[rows], labels[rows]
    lower = np.maximum(start - epsilon, 0.0)
    upper = np.minimum(start + epsilon, 1.0)
    n_blocks = max(1, len(start) // BLOCK_ROWS)
    edges = [len(start) * i // n_blocks for i in range(n_blocks + 1)]
    blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
    snapshots: dict[int, np.ndarray] = {}
    if steps[0] == 0:
        snapshots[0] = start.copy()
    current = start.copy()
    for step in range(1, steps[-1] + 1):
        noise = rng.standard_normal((x_att.shape[0], gen.noise_dim))[rows]
        for block in blocks:
            delta = generate_perturbation(gen, noise[block], labels[block])
            np.clip(current[block] + delta, lower[block], upper[block],
                    out=current[block])
        if step in steps:
            snapshots[step] = current.copy()
    return snapshots


def gen_ood(x_att: np.ndarray, noise_scale: float, seed: int) -> np.ndarray:
    """clip(x_att + N(0, noise_scale^2), 0, 1): unstructured out-of-distribution."""
    rng = derive_rng(seed, "ood-noise")
    noise = rng.normal(0.0, noise_scale, size=x_att.shape)
    return np.clip(x_att + noise, 0.0, 1.0)


# A grid point's batches are seeded from its coordinates as floats, the form
# they take in a StealthReport, so an integer grid value in a config seeds the
# same batch the selected report names.
def _trajectory(gen: Generator, x_att: np.ndarray, labels: np.ndarray,
                epsilon: float, n_refs: list[int], seed: int,
                rows: np.ndarray | slice) -> dict[int, np.ndarray]:
    return refine_trajectory(gen, x_att, labels, epsilon, n_refs,
                             derive_seed(seed, "sweep-refine", float(epsilon)),
                             rows)


def _ood(x_att: np.ndarray, rho: float, seed: int) -> np.ndarray:
    return gen_ood(x_att, rho, derive_seed(seed, "sweep-ood", float(rho)))


def operating_point(gen: Generator, x_att: np.ndarray, labels: np.ndarray,
                    epsilon: float, rho: float, n_ref: int, seed: int,
                    rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows `rows` of the (x_adv, x_ood) pair that sweep(..., seed) scored at
    one grid point, bit for bit when `rows` holds at least 2 indices or
    x_att has 1 row (see refine_trajectory). Only those rows are refined,
    so a call costs the rows it returns."""
    return (_trajectory(gen, x_att, labels, epsilon, [n_ref], seed,
                        rows)[n_ref],
            _ood(x_att, rho, seed)[rows])


def success_rate(ids_net: nn.Mlp, batch: np.ndarray) -> float:
    """Fraction of the batch's rows the detector labels benign."""
    return float((predict_label(ids_net, batch) == 0).mean())


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exact empirical Wasserstein-1 distance between two 1-d samples.

    Equal sizes reduce to the mean absolute difference of the sorted samples;
    unequal sizes integrate |F_a - F_b| over the merged support, which equals
    the quantile-function integral.
    """
    return _sorted_wasserstein_1d(np.sort(a), np.sort(b))


def _sorted_wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """wasserstein_1d of two samples already sorted ascending."""
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be non-empty")
    if a.size == b.size:
        return float(np.abs(a - b).mean())
    merged = np.sort(np.concatenate([a, b]))
    widths = np.diff(merged)
    cdf_a = np.searchsorted(a, merged[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, merged[:-1], side="right") / b.size
    return float((np.abs(cdf_a - cdf_b) * widths).sum())


def wasserstein_features(batch_a: np.ndarray, batch_b: np.ndarray) -> float:
    """Mean of the per-feature 1-d distances (columns are features)."""
    return _sorted_wasserstein_features(np.sort(batch_a, axis=0),
                                        np.sort(batch_b, axis=0))


def _sorted_wasserstein_features(sorted_a: np.ndarray,
                                 sorted_b: np.ndarray) -> float:
    """wasserstein_features of two batches whose columns are sorted, so a
    batch measured against several others is sorted once."""
    if sorted_a.ndim != 2 or sorted_b.ndim != 2:
        raise ShapeError("batches must be 2-d")
    if sorted_a.shape[1] != sorted_b.shape[1]:
        raise ShapeError(f"feature count mismatch: {sorted_a.shape[1]} vs "
                         f"{sorted_b.shape[1]}")
    per_col = [_sorted_wasserstein_1d(sorted_a[:, j], sorted_b[:, j])
               for j in range(sorted_a.shape[1])]
    return float(np.mean(per_col))


def stealth_objective(w_adv_att: float, w_ood_att: float) -> float:
    """How closely the crafted rows mimic the noise baseline, distribution-wise."""
    return abs(float(w_adv_att) - float(w_ood_att))


def sweep(gen: Generator, ids_net: nn.Mlp, x_att: np.ndarray,
          labels: np.ndarray, config: SweepConfig, seed: int,
          x_benign: np.ndarray) -> SweepResult:
    """Scan the (epsilon, noise_scale, n_ref) grid and pick the stealthiest
    feasible point: argmin |W(adv, att) - W(ood, att)| s.t. success >= eta_max.

    Refinement trajectories are shared across the n_ref axis (snapshots of one
    run per epsilon, seeded from the grid coordinate) and OOD draws are shared
    across epsilon and n_ref, so results are independent of evaluation order.
    Ties resolve to the first grid point in (epsilon, rho, n_ref) order.

    Each epsilon's trajectory and its snapshots' stats run on one of two
    lanes: this thread takes the even grid indices, one worker thread the
    odd ones. numpy releases the GIL in the generator's GEMMs, so the lanes
    overlap, and every report keeps its bits. An error on either lane
    cancels the worker's points not yet started and is raised once the
    worker is idle.
    """
    if x_att.shape[0] == 0:
        raise ValueError("x_att must be non-empty")

    sorted_att = np.sort(x_att, axis=0)
    sorted_benign = np.sort(x_benign, axis=0)

    def stats(batch: np.ndarray) -> dict:
        ordered = np.sort(batch, axis=0)
        return {"w": _sorted_wasserstein_features(ordered, sorted_att),
                "succ": success_rate(ids_net, batch),
                "w_ben": _sorted_wasserstein_features(ordered, sorted_benign)}

    def adv_stats(epsilon: float) -> dict[int, dict]:
        snapshots = _trajectory(gen, x_att, labels, epsilon, config.n_ref_grid,
                                seed, slice(None))
        return {n_ref: stats(snapshots[n_ref]) for n_ref in config.n_ref_grid}

    grid = config.epsilon_grid
    by_epsilon = [None] * len(grid)
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="sweep-lane") as lane:
        odd = [lane.submit(adv_stats, epsilon) for epsilon in grid[1::2]]
        try:
            ood_stats = {rho: stats(_ood(x_att, rho, seed))
                         for rho in config.rho_grid}
            by_epsilon[::2] = [adv_stats(epsilon) for epsilon in grid[::2]]
            by_epsilon[1::2] = [future.result() for future in odd]
        except BaseException:
            lane.shutdown(cancel_futures=True)
            raise
    reports: list[StealthReport] = []
    for epsilon, adv_by_n_ref in zip(grid, by_epsilon):
        for rho in config.rho_grid:
            ood = ood_stats[rho]
            for n_ref in config.n_ref_grid:
                adv = adv_by_n_ref[n_ref]
                reports.append(StealthReport(
                    epsilon=float(epsilon), rho=float(rho), n_ref=int(n_ref),
                    w_adv_att=adv["w"], w_ood_att=ood["w"],
                    objective=stealth_objective(adv["w"], ood["w"]),
                    succ_adv=adv["succ"], succ_ood=ood["succ"],
                    feasible=adv["succ"] >= config.eta_max,
                    w_adv_ben=adv["w_ben"], w_ood_ben=ood["w_ben"]))

    selection = min((r for r in reports if r.feasible),
                    key=lambda r: r.objective, default=None)
    return SweepResult(reports, selection)


def sweep_to_csv(result: SweepResult, path) -> None:
    write_csv(path, [f.name for f in fields(StealthReport)],
              map(astuple, result.reports))
