"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every stealthlab module, plus a few
methods, from outside the package: nothing in the package changes. A name
imported by name (``from .cvae import elbo_loss``) is a second reference to
the same function, so every module attribute that holds a wrapped function is
rebound, or calls through that name would bypass the span.

Spans are kept in memory as ``[name, start, end, parent, run_id, info,
wrapper_s]`` and written out once, at the end. A span's self time is its
duration minus the durations of its direct children and the time their
wrappers spent around them (the package is single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import time
from collections import defaultdict

PACKAGE_MODULES = ("nn", "rng", "data", "ids", "cgan", "attack", "cvae",
                   "detect", "cli")
# modules whose private helpers are wrapped too: the stage glue in cli writes
# files and builds records, and its share of a short stage is not negligible
GLUE_MODULES = ("cli",)
METHODS = {("nn", "Mlp"): ("forward", "backward", "copy"),
           ("cli", "Manifest"): ("__init__", "record", "check_requirements")}

PIPELINE_STAGES = ("data", "ids", "gan", "cvae", "sweep", "detect", "report")

# Adam reads g, m, v and p and writes m, v and p: 7 float64 passes per
# parameter element (its temporaries are not counted).
ADAM_BYTES_PER_PARAM = 56


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _matmul_terms(net) -> int:
    return sum(layer.weights.size for layer in net.layers)


def _info_forward(args, kwargs, result):
    net, rows = args[0], len(_arg(args, kwargs, 1, "x"))
    return {"rows": rows, "flops": 2 * rows * _matmul_terms(net),
            "net": id(net)}


def _info_backward(args, kwargs, result):
    net, rows = args[0], len(_arg(args, kwargs, 1, "upstream"))
    # dW = x^T dz and dX = dz W^T per layer, 2 flops per multiply-add each
    dw = 2 * rows * _matmul_terms(net)
    return {"rows": rows, "flops": 2 * dw, "dw_flops": dw, "net": id(net)}


def _info_adam(args, kwargs, result):
    return {"params": sum(p.size for p in _arg(args, kwargs, 1, "params"))}


def _info_load_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _info_record(args, kwargs, result):
    artifacts = _arg(args, kwargs, 3, "artifacts")
    return {"bytes": sum(os.path.getsize(p) for p in artifacts)}


def _info_rows(index, name):
    def info(args, kwargs, result):
        return {"rows": len(_arg(args, kwargs, index, name))}
    return info


def _info_refine(args, kwargs, result):
    return {"steps": max(_arg(args, kwargs, 4, "snapshot_steps"))}


def _info_regret(args, kwargs, result):
    model = args[0]
    rows = len(_arg(args, kwargs, 1, "batch"))
    config = _arg(args, kwargs, 3, "config")
    return {"rows": rows, "steps": rows * config.steps,
            "invalid": result.n_invalid, "decoder": id(model.decoder)}


def _info_stage(args, kwargs, result):
    return {"stage": _arg(args, kwargs, 0, "stage")}


INFO = {
    "nn.Mlp.forward": _info_forward,
    "nn.Mlp.backward": _info_backward,
    "nn.adam_step": _info_adam,
    "data.load_csv": _info_load_csv,
    "cli.Manifest.record": _info_record,
    "cli.run_stage": _info_stage,
    "ids.predict_label": _info_rows(1, "batch"),
    "cvae.iwae_batch": _info_rows(1, "batch"),
    "detect.score_nll": _info_rows(2, "batch"),
    "detect.score_regret": _info_regret,
    "attack.refine_trajectory": _info_refine,
}


class Tracer:
    """Wraps package functions in spans; `install` and `uninstall` swap the
    wrappers in and out, so untraced timing runs the package untouched."""

    def __init__(self, package):
        self.package = package
        self.run_id = ""
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._swaps: list[tuple] = []      # (owner, attribute, original, wrapper)
        self._plan()

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.run_id, None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            # the wrapper's own time, kept out of the parent's self time
            record[6] = record[1] - entered + clock() - record[2]
            return result
        return wrapper

    def _plan(self) -> None:
        modules = [getattr(self.package, m) for m in PACKAGE_MODULES]
        wrappers = {}
        for short, module in zip(PACKAGE_MODULES, modules):
            for attr, obj in vars(module).items():
                if ((short in GLUE_MODULES or not attr.startswith("_"))
                        and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._swaps.append((module, attr, obj, wrappers[obj]))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(getattr(self.package, short), cls_name)
            for attr in methods:
                original = vars(cls)[attr]
                self._swaps.append((cls, attr, original, self._wrap(
                    f"{short}.{cls_name}.{attr}", original)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def drop_runs(self, keep: set[str]) -> None:
        """Forget spans of runs not in `keep` (parents are re-indexed)."""
        if self._stack:
            raise RuntimeError("cannot drop spans while a span is open")
        remap, kept = {-1: -1}, []
        for index, span in enumerate(self.spans):
            if span[4] in keep:
                remap[index] = len(kept)
                kept.append(span)
        for span in kept:
            span[3] = remap.get(span[3], -1)
        self.spans[:] = kept

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, run_id, info, wrapper) \
                    in enumerate(self.spans):
                row = {"id": index, "parent": parent, "run": run_id,
                       "name": name, "start": start, "end": end,
                       "wrapper_s": wrapper}
                if info:
                    row["info"] = info
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value): the highest of TAIL_PERCENTILES with at least ten samples
    beyond it; the median when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if round(n * (1.0 - pct / 100.0), 6) >= 10 or pct == 50.0:
            # nearest rank: the smallest value with pct% of samples at or below
            return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
    raise AssertionError("unreachable")


def _self_times(spans: list[list]) -> tuple[list[float], list[float]]:
    """Durations and self times; a child's wrapper time counts as covered."""
    duration = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[index] + span[6]
    return duration, [d - c for d, c in zip(duration, child)]


def stage_coverage(spans: list[list]) -> dict[str, float]:
    """{run/stage: share of the stage's wall clock under child spans}."""
    duration, self_time = _self_times(spans)
    return {f"{s[4]}/{s[5]['stage']}": 1.0 - self_time[i] / duration[i]
            for i, s in enumerate(spans) if s[0] == "cli.run_stage"}


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over `spans` (one set-up pass plus one timed rep)."""
    duration, self_time = _self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    excl = defaultdict(float)
    info_sum = defaultdict(float)
    per_call = defaultdict(list)
    for index, (name, _, _, _, _, info, _) in enumerate(spans):
        key = name
        if name in ("nn.Mlp.forward", "nn.Mlp.backward"):
            key = name + (".b1" if info and info["rows"] == 1 else ".bN")
        calls[key] += 1
        incl[key] += duration[index]
        excl[key] += self_time[index]
        per_call[key].append(duration[index])
        for field, value in (info or {}).items():
            if isinstance(value, (int, float)) and field not in (
                    "net", "decoder"):
                info_sum[(name, field)] += value

    # backward flops under score_regret, and the decoder dW part of them
    regret_bwd = regret_discarded = 0.0
    for index, (name, _, _, parent, _, info, _) in enumerate(spans):
        if name != "nn.Mlp.backward" or info is None:
            continue
        while parent >= 0 and spans[parent][0] != "detect.score_regret":
            parent = spans[parent][3]
        if parent >= 0:
            regret_bwd += info["flops"]
            if info["net"] == spans[parent][5]["decoder"]:
                regret_discarded += info["dw_flops"]

    stage_s = defaultdict(float)
    for index, span in enumerate(spans):
        if span[0] == "cli.run_stage":
            stage_s[span[5]["stage"]] += duration[index]
    detect_s = stage_s["detect"]
    coverage = stage_coverage(spans).values()

    def call_us(key):
        values = [d * 1e6 for d in per_call[key]] or [0.0]
        pct, tail = tail_percentile(values)
        return statistics.median(values), tail, pct

    adam_p50, adam_tail, adam_pct = call_us("nn.adam_step")
    iwae_p50, iwae_tail, iwae_pct = call_us("cvae.iwae_bound")
    regret_rows = info_sum[("detect.score_regret", "rows")]
    regret_invalid = info_sum[("detect.score_regret", "invalid")]
    adam_params = info_sum[("nn.adam_step", "params")]

    def ratio(num, den):
        return num / den if den else 0.0

    count, sec = "count", "s"
    out = {f"cli.run_stage.{stage}.s": (stage_s[stage], sec)
           for stage in PIPELINE_STAGES}
    for batch in ("b1", "bN"):
        for op in ("forward", "backward"):
            key = f"nn.Mlp.{op}.{batch}"
            out[f"nn.{op}.{batch}.calls"] = (calls[key], count)
            out[f"nn.{op}.{batch}.self_s"] = (excl[key], sec)
    out.update({
        "nn.forward.flops": (info_sum[("nn.Mlp.forward", "flops")], "flop"),
        "nn.backward.flops": (info_sum[("nn.Mlp.backward", "flops")], "flop"),
        "nn.adam_step.calls": (calls["nn.adam_step"], count),
        "nn.adam_step.self_s": (excl["nn.adam_step"], sec),
        "nn.adam_step.call_us": (adam_p50, "us"),
        "nn.adam_step.call_us_tail": (adam_tail, "us"),
        "nn.adam_step.call_us_tail_pct": (adam_pct, "%"),
        "nn.adam_step.params": (adam_params, count),
        "nn.adam_step.bytes": (adam_params * ADAM_BYTES_PER_PARAM, "B"),
        "cvae.train_cvae.self_s": (excl["cvae.train_cvae"], sec),
        "cvae.elbo_loss.calls": (calls["cvae.elbo_loss"], count),
        "cvae.elbo_loss.self_s": (excl["cvae.elbo_loss"], sec),
        "cvae.iwae_batch.rows": (info_sum[("cvae.iwae_batch", "rows")], count),
        "cvae.iwae_batch.self_s": (excl["cvae.iwae_batch"], sec),
        "cvae.iwae_bound.calls": (calls["cvae.iwae_bound"], count),
        "cvae.iwae_bound.call_us": (iwae_p50, "us"),
        "cvae.iwae_bound.call_us_tail": (iwae_tail, "us"),
        "cvae.iwae_bound.call_us_tail_pct": (iwae_pct, "%"),
        "detect.score_regret.rows": (regret_rows, count),
        "detect.score_regret.steps":
            (info_sum[("detect.score_regret", "steps")], count),
        "detect.score_regret.invalid": (regret_invalid, count),
        "detect.score_regret.valid_frac":
            (ratio(regret_rows - regret_invalid, regret_rows), "ratio"),
        "detect.score_regret.self_s": (excl["detect.score_regret"], sec),
        "detect.score_regret.row_ms":
            (ratio(incl["detect.score_regret"] * 1e3, regret_rows), "ms"),
        "detect.score_regret.discarded_grad_flops_frac":
            (ratio(regret_discarded, regret_bwd), "ratio"),
        "detect.score_regret.share_of_detect":
            (ratio(incl["detect.score_regret"], detect_s), "ratio"),
        "detect.score_nll.rows": (info_sum[("detect.score_nll", "rows")], count),
        "detect.score_nll.s": (incl["detect.score_nll"], sec),
        "detect.score_nll.share_of_detect":
            (ratio(incl["detect.score_nll"], detect_s), "ratio"),
        "detect.score_mahalanobis.s": (incl["detect.score_mahalanobis"], sec),
        "detect.fit_gaussians.s": (incl["detect.fit_gaussians"], sec),
        "ids.train_ids.self_s": (excl["ids.train_ids"], sec),
        "ids.predict_label.calls": (calls["ids.predict_label"], count),
        "ids.predict_label.rows": (info_sum[("ids.predict_label", "rows")], count),
        "ids.predict_label.self_s": (excl["ids.predict_label"], sec),
        "cgan.train_cgan.self_s": (excl["cgan.train_cgan"], sec),
        "cgan.generator_loss.self_s": (excl["cgan.generator_loss"], sec),
        "cgan.discriminator_loss.self_s": (excl["cgan.discriminator_loss"], sec),
        "attack.sweep.self_s": (excl["attack.sweep"], sec),
        "attack.refine_trajectory.steps":
            (info_sum[("attack.refine_trajectory", "steps")], count),
        "attack.refine_trajectory.self_s": (excl["attack.refine_trajectory"], sec),
        "attack.wasserstein_features.calls":
            (calls["attack.wasserstein_features"], count),
        "attack.wasserstein_features.self_s":
            (excl["attack.wasserstein_features"], sec),
        "data.load_csv.calls": (calls["data.load_csv"], count),
        "data.load_csv.bytes": (info_sum[("data.load_csv", "bytes")], "B"),
        "data.load_csv.s": (incl["data.load_csv"], sec),
        "data.save_csv.s": (incl["data.save_csv"], sec),
        "cli.Manifest.record.s": (incl["cli.Manifest.record"], sec),
        "cli.Manifest.record.bytes_hashed":
            (info_sum[("cli.Manifest.record", "bytes")], "B"),
        "rng.stable_hash.calls": (calls["rng.stable_hash"], count),
        "rng.stable_hash.s": (incl["rng.stable_hash"], sec),
        "trace.spans": (len(spans), count),
        "trace.wrapper_s": (sum(s[6] for s in spans), sec),
        "trace.stage_coverage_min": (min(coverage) if coverage else 0.0,
                                     "ratio"),
    })
    return out
