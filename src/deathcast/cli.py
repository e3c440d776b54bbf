"""Command-line pipeline: synth -> ingest -> extract -> train/search -> eval.

One binary with subcommands. Option precedence for the shared knobs is
flags > environment (DEATHCAST_<NAME>) > --config file (key=value lines) >
built-in defaults. Exit codes: 0 ok, 2 usage, 3 data error, 4 not enough
positive labels, 5 I/O failure; on failure a single machine-parseable
`error\t...` line goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import dataset as ds
from . import features as ft
from . import match_data as md
from . import synth as sy
from . import train as tr
from .errors import DeathcastError, InsufficientPositives, SchemaViolation, UsageError
from .evaluation import (evaluate_test, export_timeline, save_eval_report,
                         save_timeline, save_ttd_distribution, time_to_death_distribution)
from .model import ModelConfig, default_config, load_checkpoint
from .util import ordered_map, write_atomic

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_POSITIVES = 4
EXIT_IO = 5

ENV_PREFIX = "DEATHCAST_"

# knobs that honor config file / environment overrides
_SHARED_DEFAULTS = {
    "schema": "minimal",
    "window_seconds": 5.0,
    "period_ticks": 4,
    "seed": 0,
    "threads": os.cpu_count() or 1,
    "threshold": 0.9,
}


def _variant(text):
    if text not in ft.VARIANTS:
        raise ValueError(f"want one of {ft.VARIANTS}")
    return text


_CASTS = {"schema": _variant, "window_seconds": float, "period_ticks": int,
          "seed": int, "threads": int, "threshold": float}


def _read_config_file(path):
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: bad config line {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _cast(name, text, origin):
    """A knob's value from the environment or a config file."""
    try:
        return _CASTS[name](text)
    except ValueError as exc:
        raise UsageError(f"{origin}: bad value {text!r} for {name}: {exc}") from None


def resolve_options(args):
    """flags > env > config file > defaults, for the shared knobs.

    A value the flag parser would refuse raises UsageError (exit 2).
    """
    config = getattr(args, "config", None)
    file_vals = _read_config_file(config) if config else {}
    unknown = sorted(set(file_vals) - set(_SHARED_DEFAULTS))
    if unknown:
        raise UsageError(f"{config}: unknown option {unknown[0]!r}, "
                         f"want one of {sorted(_SHARED_DEFAULTS)}")
    resolved = {}
    for name, default in _SHARED_DEFAULTS.items():
        value = default
        if name in file_vals:
            value = _cast(name, file_vals[name], config)
        env_name = ENV_PREFIX + name.upper()
        env = os.environ.get(env_name)
        if env is not None:
            value = _cast(name, env, env_name)
        flag = getattr(args, name, None)
        if flag is not None:
            value = flag
        resolved[name] = value
    return argparse.Namespace(**resolved)


def _add_shared(p):
    p.add_argument("--config", help="key=value option file")
    p.add_argument("--schema", choices=ft.VARIANTS)
    p.add_argument("--window-seconds", dest="window_seconds", type=float)
    p.add_argument("--period-ticks", dest="period_ticks", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--threshold", type=float)


def _int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


# ---------------------------------------------------------------------------
# Subcommands


def cmd_schema_dump(args, opt):
    schema = ft.feature_schema(opt.schema, roster_size=args.roster)
    print(ft.dump_schema(schema))
    return 0


def cmd_synth(args, opt):
    cfg = sy.SynthConfig(n_matches=args.matches, n_frames=args.frames,
                         seed=opt.seed, pause_count=args.pauses,
                         pause_length_ticks=args.pause_ticks)
    sy.validate_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sy.save_synth_sidecar(cfg, out / "synth_config.tsv")

    def gen_and_save(i):
        m = sy.generate_match(cfg, i)
        path = out / f"match_{i:05d}.jsonl"
        md.save_match(m, path, compress=args.compress)
        return m.match_id

    ids = ordered_map(gen_and_save, range(cfg.n_matches), opt.threads)
    print(f"wrote {len(ids)} matches to {out}")
    return 0


def _store_manifest_path(store):
    return Path(store) / "store_manifest.tsv"


def _match_files(directory):
    """The match files of a directory, in name order."""
    return sorted(p for p in Path(directory).iterdir()
                  if p.name.endswith((".jsonl", ".jsonl.gz")))


def _read_store_manifest(store):
    """(roster size, [(match_id, record path)]) of an ingested store.

    The roster is None for a store written before ingest recorded it.
    """
    path = _store_manifest_path(store)
    roster, rows = None, []
    for ln in path.read_text(encoding="utf-8").splitlines():
        fields = ln.split("\t")
        if len(fields) == 3:
            rows.append((fields[0], Path(store) / fields[1]))
        elif fields[0] == "roster_size" and len(fields) == 2 and fields[1].isdecimal():
            roster = int(fields[1])
        elif ln.strip():
            raise SchemaViolation(f"{path}: malformed line {ln!r}")
    if not rows:
        raise SchemaViolation(f"{path}: no matches")
    return roster, rows


def read_store(store):
    """(match_id, path) pairs from an ingested store, manifest order."""
    return _read_store_manifest(store)[1]


def _check_store_name(match_id):
    """A match id names the store's files and manifest rows: refuse one that
    cannot be a single file name or would break a manifest line."""
    if match_id in ("", ".", "..") or any(c in match_id for c in "/\\\0\t\r\n"):
        raise SchemaViolation(f"match id {match_id!r} cannot name a store file")


def cmd_ingest(args, opt):
    """Parse and validate each match file once; store it as a binary record
    (what extract and eval read) beside the validated text, uncompressed."""
    src = Path(args.matches)
    files = _match_files(src)
    if not files:
        raise SchemaViolation(f"no match files (*.jsonl / *.jsonl.gz) under {src}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    rejected = 0
    seen = set()
    roster = None
    for p in files:
        try:
            raw = p.read_bytes()
            m = md.parse_match(raw)
            _check_store_name(m.match_id)
            if m.match_id in seen:
                raise SchemaViolation(f"duplicate match id {m.match_id}")
            if roster is not None and m.roster_size != roster:
                raise SchemaViolation(f"roster_size {m.roster_size} differs from the "
                                      f"first accepted match's {roster}")
            record = md.encode_match(m)
        except DeathcastError as exc:
            print(f"reject\t{p.name}\t{exc}", file=sys.stderr)
            rejected += 1
            continue
        seen.add(m.match_id)
        roster = m.roster_size
        rel = f"{m.match_id}.dmatch"
        write_atomic(out / rel, record)
        write_atomic(out / f"{m.match_id}.jsonl", md.gunzip(raw))
        lines.append(f"{m.match_id}\t{rel}\t{m.n_frames}")
    if not lines:
        raise SchemaViolation(f"every match under {src} was rejected")
    text = "\n".join([f"roster_size\t{roster}", *lines]) + "\n"
    write_atomic(_store_manifest_path(out), text.encode("utf-8"))
    print(f"ingested {len(lines)} matches ({rejected} rejected) into {out}")
    return 0


def cmd_extract(args, opt):
    schema_roster, rows = _read_store_manifest(args.store)
    if schema_roster is None:
        schema_roster = md.load_match(rows[0][1]).roster_size
    schema = ft.feature_schema(opt.schema, roster_size=schema_roster)

    def provider():
        return (md.load_match(path) for _, path in rows)

    manifest = ds.build_dataset(
        provider, args.out, schema,
        window=opt.window_seconds, period_ticks=opt.period_ticks,
        drop_fraction=args.drop_fraction,
        split_seed=opt.seed, shuffle_seed=opt.seed + 1, drop_seed=opt.seed + 2,
        threads=opt.threads,
    )
    print(f"dataset at {args.out}: train {manifest.counts['train']} samples in "
          f"{len(manifest.shard_paths['train'])} shards, "
          f"val {manifest.counts['val']} samples, "
          f"test {len(manifest.split.test)} matches held out")
    return 0


def _load_pools(data_dir):
    manifest = ds.DatasetManifest.load(Path(data_dir) / "manifest.tsv")
    train_pool = ds.ShardPool.from_paths(manifest.shard_paths["train"], split="train",
                                         expect_variant=manifest.variant)
    val_pool = ds.ShardPool.from_paths(manifest.shard_paths["val"], split="val",
                                       expect_variant=manifest.variant)
    stats = ft.load_norm_stats(manifest.stats_path)
    return manifest, train_pool, val_pool, stats


def _model_config(args, opt, manifest) -> ModelConfig:
    roster = ft.load_norm_stats(manifest.stats_path).schema.roster_size
    overrides = {"seed": opt.seed, "window": manifest.window, "dtype": "float32"}
    if args.lr is not None:
        overrides["learning_rate"] = args.lr
    if args.shared is not None:
        overrides["shared_layers"] = _int_list(args.shared)
    if args.final is not None:
        overrides["final_layers"] = _int_list(args.final)
    if args.batch is not None:
        overrides["batch_size"] = args.batch
    return default_config(manifest.variant, roster_size=roster, **overrides)


def cmd_train(args, opt):
    manifest, train_pool, val_pool, stats = _load_pools(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = tr.TrainRunConfig(
        model=_model_config(args, opt, manifest),
        max_steps=args.steps, val_interval=args.val_interval,
        batch_seed=opt.seed, checkpoint_path=str(out / "checkpoint.dckpt"),
    )
    result = tr.train(cfg, train_pool, val_pool, stats=stats)
    tr.save_metrics_log(result.history, out / "metrics.tsv")
    print(f"best validation AP {result.best_val_ap:.4f} at step {result.best_step}; "
          f"checkpoint at {cfg.checkpoint_path}")
    return 0


def cmd_search(args, opt):
    manifest, train_pool, val_pool, _ = _load_pools(args.data)
    space = tr.SearchSpace(variant=manifest.variant, budget=args.budget,
                           seed=opt.seed, steps_per_trial=args.trial_steps,
                           val_interval=args.val_interval)
    result = tr.random_search(space, train_pool, val_pool)
    tr.save_trial_table(result, args.out)
    best = result.ranked[0]
    print(f"best trial {best.index}: val AP {best.val_ap:.4f}, "
          f"lr {best.config.learning_rate:.3g}, shared {list(best.config.shared_layers)}, "
          f"final {list(best.config.final_layers)}; table at {args.out}")
    return 0


def _eval_matches(args, manifest):
    """Pick the evaluation match set and enforce the split-leak guard."""
    store_rows = dict(read_store(args.store))
    if args.match_dir is not None:
        matches = [md.load_match(p) for p in _match_files(args.match_dir)]
        held = set(manifest.split.train) | set(manifest.split.val)
        leaked = [m.match_id for m in matches if m.match_id in held]
        if leaked:
            raise SchemaViolation(
                f"refusing to evaluate on train/val matches: {leaked[:3]}...")
        return matches
    ids = manifest.split.test
    missing = [i for i in ids if i not in store_rows]
    if missing:
        raise SchemaViolation(f"test matches missing from store: {missing[:3]}...")
    return [md.load_match(store_rows[i]) for i in ids]


def cmd_eval(args, opt):
    params, stats, _step = load_checkpoint(args.checkpoint)
    manifest = ds.DatasetManifest.load(Path(args.data) / "manifest.tsv")
    if stats.schema.variant != manifest.variant:
        raise SchemaViolation(
            f"checkpoint is {stats.schema.variant!r} but dataset is {manifest.variant!r}")
    matches = _eval_matches(args, manifest)
    report = evaluate_test(params, stats, matches, window=manifest.window,
                           period_ticks=manifest.period_ticks,
                           thresholds=(0.9, opt.threshold), threads=opt.threads)
    save_eval_report(report, args.report)
    if args.ttd is not None:
        dist = time_to_death_distribution(params, stats, matches, window=manifest.window,
                                          period_ticks=manifest.period_ticks)
        save_ttd_distribution(dist, args.ttd)
    print(f"test AP {report.average_precision:.4f} over {report.n_samples} samples "
          f"(positive rate {report.positive_rate:.4f}); report at {args.report}")
    return 0


def cmd_predict(args, opt):
    params, stats, _step = load_checkpoint(args.checkpoint)
    m = md.load_match(args.match)
    timeline = export_timeline(params, stats, m, threshold=opt.threshold,
                               period_ticks=opt.period_ticks)
    save_timeline(timeline, args.out)
    print(f"timeline for {m.match_id} at {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="deathcast",
                                     description="death micro-prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schema-dump", help="print the ordered feature layout")
    _add_shared(p)
    p.add_argument("--roster", type=int, default=md.DEFAULT_ROSTER_SIZE)
    p.set_defaults(fn=cmd_schema_dump)

    p = sub.add_parser("synth", help="generate synthetic matches")
    _add_shared(p)
    p.add_argument("--out", required=True)
    p.add_argument("--matches", type=int, default=20)
    p.add_argument("--frames", type=int, default=600)
    p.add_argument("--pauses", type=int, default=0)
    p.add_argument("--pause-ticks", dest="pause_ticks", type=int, default=30)
    p.add_argument("--compress", action="store_true")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="validate matches into a store")
    _add_shared(p)
    p.add_argument("--matches", required=True, help="directory of match files")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("extract", help="build shards + normalization stats")
    _add_shared(p)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--drop-fraction", dest="drop_fraction", type=float, default=0.5)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train", help="train on extracted shards")
    _add_shared(p)
    p.add_argument("--data", required=True, help="extract output directory")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--val-interval", dest="val_interval", type=int, default=1000)
    p.add_argument("--lr", type=float)
    p.add_argument("--shared", help="comma-separated widths")
    p.add_argument("--final", help="comma-separated widths")
    p.add_argument("--batch", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("search", help="random hyperparameter search")
    _add_shared(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="trial table path")
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--trial-steps", dest="trial_steps", type=int, default=1500)
    p.add_argument("--val-interval", dest="val_interval", type=int, default=500)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("eval", help="precision-recall evaluation on test matches")
    _add_shared(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--match-dir", dest="match_dir")
    p.add_argument("--report", required=True)
    p.add_argument("--ttd", help="also write the time-until-death distribution table")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="per-hero probability timeline for a match")
    _add_shared(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--match", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opt = resolve_options(args)
        return args.fn(args, opt)
    except InsufficientPositives as exc:
        print(f"error\tkind={type(exc).__name__}\texit={EXIT_POSITIVES}\tmessage={exc}",
              file=sys.stderr)
        return EXIT_POSITIVES
    except UsageError as exc:
        print(f"error\tkind={type(exc).__name__}\texit={EXIT_USAGE}\tmessage={exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except DeathcastError as exc:
        print(f"error\tkind={type(exc).__name__}\texit={EXIT_DATA}\tmessage={exc}",
              file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error\tkind={type(exc).__name__}\texit={EXIT_IO}\tmessage={exc}",
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
