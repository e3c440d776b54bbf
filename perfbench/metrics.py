"""Metric definitions and the per-layer figures computed from spans.

Each entry is (name, unit, better) and, for end-to-end metrics, the share
of the parent's median by which the metric may worsen (`bound`).
BENCHMARK.json lists the same names, units and directions; the smoke test
checks that the two agree.
"""

from __future__ import annotations

import statistics

import tracing

STAGES = ("synth", "ingest", "extract", "train", "eval", "predict")
# Stages every workload's timed pass runs; the others run on some only.
COMMON_STAGES = ("train", "eval", "predict")


def rate_name(stage):
    return f"{stage}_{'samples' if stage == 'train' else 'frames'}_per_s"


def rate_unit(stage):
    return "samples/s" if stage == "train" else "frames/s"


# Every run reports every end-to-end metric, so only the rates of stages
# that all passes run are bounded. Every bound is the largest allowed: on
# the shared 2-core host the benchmark was tuned on, run-to-run spreads
# reached 10-35 % (README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    *((rate_name(st), rate_unit(st), "higher", 0.25) for st in COMMON_STAGES),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# Rates printed, but not bounded, on the workloads whose pass runs the stage.
STAGE_ONLY = [(rate_name(st), rate_unit(st)) for st in STAGES if st not in COMMON_STAGES]

# `cli` and `util` are glue and share one figure.
LAYERS = {"match_data": ("match_data",), "features": ("features",), "dataset": ("dataset",),
          "model": ("model",), "train": ("train",), "evaluation": ("evaluation",),
          "synth": ("synth",), "glue": ("cli", "util")}

# function -> which of calls / wall_s / cpu_s / self_s to report
FUNCTIONS = {
    "parse_match": ("calls", "wall_s", "cpu_s"),
    "write_match": ("calls", "wall_s", "cpu_s"),
    "validate_match": ("wall_s",),
    "strip_pauses": ("wall_s",),
    "generate_match": ("wall_s",),
    "extract_match": ("calls", "wall_s"),
    "normalize_array": ("wall_s",),
    "compute_norm_stats": ("wall_s",),
    "build_dataset": ("wall_s",),
    "label_frames": ("wall_s",),
    "undersample_mask": ("wall_s",),
    "encode_shard": ("calls", "wall_s"),
    "decode_shard": ("wall_s",),
    "sample_balanced_batch": ("calls", "wall_s"),
    "loss_and_grad": ("self_s",),
    "forward": ("self_s",),
    "adam_step": ("wall_s",),
    "save_checkpoint": ("wall_s",),
    "load_checkpoint": ("wall_s",),
    "validation_ap": ("calls", "wall_s"),
    "predict_probs": ("wall_s",),
    "pr_curve": ("wall_s",),
    "spearman": ("wall_s",),
    "evaluate_test": ("self_s",),
}
_FIELD_UNIT = {"calls": "count", "wall_s": "s", "cpu_s": "s", "self_s": "s"}

PER_LAYER = [
    *((f"{fn}.{field}", _FIELD_UNIT[field], "lower")
      for fn, fields in FUNCTIONS.items() for field in fields),
    ("parses_per_match", "calls/match", "lower"),
    ("extracts_per_match", "calls/match", "lower"),
    ("parse_match.s_per_1000_frames", "s/1000frames", "lower"),
    ("write_match.s_per_1000_frames", "s/1000frames", "lower"),
    ("kept_ratio", "ratio", "lower"),
    ("ordered_map.busy_ratio", "ratio", "higher"),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("match_data.pipeline_share", "ratio", "lower"),
    ("model.train_share", "ratio", "lower"),
    ("sample_balanced_batch.train_share", "ratio", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("oracle_frames_per_s", "frames/s", "higher"),
    ("bayes_scores.wall_s", "s", "lower"),
    ("val_ap", "AP", "higher"),
    ("test_ap_ratio", "ratio", "higher"),
]


def trace_targets(md, sy, ft, ds, mdl, tr, ev, util, cli):
    """(module, attribute, counters) for every function the tracer wraps."""

    def frames_out(args, result):
        return {"frames": result.n_frames}

    def frames_in(args, result):
        return {"frames": args[0].n_frames}

    def kept(args, result):
        return {"kept": int(result.sum()), "labelled": int(result.size)}

    return [
        (md, "parse_match", frames_out), (md, "write_match", frames_in),
        (md, "validate_match", None), (md, "strip_pauses", None),
        (sy, "generate_match", None), (sy, "bayes_scores", None),
        (ft, "extract_match", None), (ft, "normalize_array", None),
        (ft, "compute_norm_stats", None),
        (ds, "build_dataset", None), (ds, "label_frames", None), (ds, "undersample_mask", kept),
        (ds, "encode_shard", None), (ds, "decode_shard", None),
        (ds, "sample_balanced_batch", None),
        (mdl, "forward", None), (mdl, "loss_and_grad", None), (mdl, "adam_step", None),
        (mdl, "save_checkpoint", None), (mdl, "load_checkpoint", None),
        (tr, "validation_ap", None), (tr, "train", None),
        (ev, "predict_probs", None), (ev, "pr_curve", None), (ev, "spearman", None),
        (ev, "evaluate_test", None), (ev, "export_timeline", None),
        (util, "ordered_map", None), (cli, "main", None),
    ]


def _share(intervals, window):
    """Fraction of a (start, end) window covered by the intervals."""
    length = window[1] - window[0]
    return tracing.covered(tracing.clip(intervals, window)) / length if length > 0 else 0.0


def per_layer(spans, oracle_spans, n_matches, pass_window):
    """Per-layer metrics from the spans of one traced set-up and pass, and
    `bayes_scores.wall_s` from the separately traced oracle.

    `pass_window` is the (start, end) of the traced pipeline pass; shares of
    the train stage use the `stage.train` span inside it.
    """
    selfs = tracing.self_intervals(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, field):
        group = by_name.get(name, ())
        if field == "calls":
            return len(group)
        if field == "wall_s":
            return sum(s.t1 - s.t0 for s in group)
        if field == "cpu_s":
            return sum(s.cpu for s in group)
        return sum(b - a for s in group for a, b in selfs[s.sid])

    out = {f"{fn}.{field}": total(fn, field)
           for fn, fields in FUNCTIONS.items() for field in fields}
    out["parses_per_match"] = total("parse_match", "calls") / n_matches
    out["extracts_per_match"] = total("extract_match", "calls") / n_matches
    for fn in ("parse_match", "write_match"):
        per_k = [(s.t1 - s.t0) * 1000.0 / s.counters["frames"] for s in by_name.get(fn, ())
                 if s.counters]
        out[f"{fn}.s_per_1000_frames"] = statistics.median(per_k) if per_k else 0.0
    masks = [s.counters for s in by_name.get("undersample_mask", ()) if s.counters]
    labelled = sum(c["labelled"] for c in masks)
    out["kept_ratio"] = sum(c["kept"] for c in masks) / labelled if labelled else 0.0
    maps = by_name.get("ordered_map", ())
    capacity = sum((s.t1 - s.t0) * s.counters["workers"] for s in maps if s.counters)
    busy = sum(s.t1 - s.t0 for s in by_name.get(tracing.ITEM, ()))
    out["ordered_map.busy_ratio"] = busy / capacity if capacity else 0.0
    for layer, modules in LAYERS.items():
        out[f"layer.{layer}.self_s"] = sum(b - a for s in spans if s.layer in modules
                                           for a, b in selfs[s.sid])

    def self_of(layer):
        return [iv for s in spans if s.layer == layer for iv in selfs[s.sid]]

    out["match_data.pipeline_share"] = _share(self_of("match_data"), pass_window)
    train = [s for s in by_name.get("stage.train", ())
             if pass_window[0] <= s.t0 and s.t1 <= pass_window[1]]
    window = (train[0].t0, train[0].t1) if train else (0.0, 0.0)
    out["model.train_share"] = _share(self_of("model"), window)
    out["sample_balanced_batch.train_share"] = _share(
        [(s.t0, s.t1) for s in by_name.get("sample_balanced_batch", ())], window)
    out["bayes_scores.wall_s"] = sum(s.t1 - s.t0 for s in oracle_spans
                                     if s.name == "bayes_scores")
    return out
