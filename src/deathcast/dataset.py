"""Labeled, downsampled, rebalanced, sharded training data.

The pipeline per match is: strip pauses, label every frame from the exact
death events, keep every period-th tick, extract features (match_samples);
then, per split, scale the features with train-only statistics, drop
~half of the all-negative samples, shuffle the split globally and write
shards of at most 4000 samples. Minibatches are balanced for one randomly
chosen hero slot (64 positive / 64 negative at batch size 128).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import features as ft
from . import match_data as md
from .errors import (ChecksumMismatch, InsufficientPositives, NonPositiveWindow,
                     SchemaMismatch, SchemaViolation)
from .util import hash64, ordered_map, seal, unseal, write_atomic, write_lines

SHARD_CAPACITY = 4000
SHARD_MAGIC = b"DSH1"
SHARD_VERSION = 1
_HEADER = struct.Struct("<4sHBBII")  # magic, version, variant, pad, per_hero, count


def label_frames(m, window=5.0):
    """(n_frames, 10) booleans: slot s dies within (t, t + window].

    Uses the full-resolution death events, never the per-frame alive flags.
    The boundary is half-open: a death at exactly t is the past, a death at
    exactly t + window still counts.
    """
    if not window > 0:  # NaN too: no death is within a NaN window
        raise NonPositiveWindow(f"window must be > 0 seconds, got {window}")
    if m.paused.any():
        raise SchemaViolation("strip pauses before labeling")
    t = m.game_time
    labels = np.zeros((m.n_frames, md.N_HEROES), dtype=bool)
    for s in range(md.N_HEROES):
        deaths = np.sort(m.deaths_for_slot(s))
        if deaths.size == 0:
            continue
        lo = np.searchsorted(deaths, t, side="right")
        hi = np.searchsorted(deaths, t + window, side="right")
        labels[:, s] = hi > lo
    return labels


def downsample(m, period_ticks=4):
    """Indices of frames whose tick matches the first kept tick mod period."""
    if period_ticks < 1:
        raise ValueError(f"period_ticks must be >= 1, got {period_ticks}")
    offset = m.tick - m.tick[0]
    return np.flatnonzero(offset % period_ticks == 0)


def undersample_mask(labels, drop_fraction=0.5, seed=0):
    """Keep-mask for an (n, 10) label array: all-negative rows are dropped
    independently with probability drop_fraction.

    Rows with at least one positive label always survive. One uniform draw
    is consumed per row (positives included) so the mask is a pure function
    of (row order, seed).
    """
    if not 0 <= drop_fraction < 1:
        raise ValueError(f"drop_fraction must be in [0, 1), got {drop_fraction}")
    rng = np.random.default_rng(seed)
    u = rng.random(labels.shape[0])
    return labels.any(axis=1) | (u >= drop_fraction)


# ---------------------------------------------------------------------------
# Shards


@dataclass
class Shard:
    """Up to 4000 samples of one schema variant, column-wise."""

    variant: str
    features: np.ndarray  # (n, 10, F) float32
    labels: np.ndarray  # (n, 10) bool
    match_keys: np.ndarray  # (n,) uint64
    game_times: np.ndarray  # (n,) float32

    def __post_init__(self):
        if len(self.features) > SHARD_CAPACITY:
            raise SchemaViolation(f"shard holds {len(self.features)} > {SHARD_CAPACITY} samples")

    def __len__(self):
        return int(self.features.shape[0])

    @property
    def per_hero_count(self):
        return int(self.features.shape[2])


def _sample_dtype(per_hero_count):
    return np.dtype([
        ("features", "<f4", (md.N_HEROES, per_hero_count)),
        ("labels", "<u2"),
        ("match_key", "<u8"),
        ("game_time", "<f4"),
    ])


def _pack_labels(labels):
    weights = (1 << np.arange(md.N_HEROES)).astype(np.uint16)
    return (labels.astype(np.uint16) @ weights).astype("<u2")


def _unpack_labels(packed):
    bits = (packed[:, None] >> np.arange(md.N_HEROES, dtype=np.uint16)) & 1
    return bits.astype(bool)


def encode_shard(shard: Shard) -> bytes:
    n = len(shard)
    rec = np.zeros(n, dtype=_sample_dtype(shard.per_hero_count))
    rec["features"] = shard.features
    rec["labels"] = _pack_labels(shard.labels)
    rec["match_key"] = shard.match_keys
    rec["game_time"] = shard.game_times
    return seal(_HEADER, SHARD_MAGIC, SHARD_VERSION, shard.variant, 0,
                shard.per_hero_count, n, body=[rec])


def decode_shard(blob: bytes) -> Shard:
    variant, (pad, per_hero, n), framed = unseal(blob, _HEADER, SHARD_MAGIC, SHARD_VERSION,
                                                 "shard")
    if pad != 0:
        raise ChecksumMismatch(f"shard header pad byte is {pad}, expected 0")
    try:
        dtype = _sample_dtype(per_hero)
    except ValueError:  # numpy refuses records over 2 GiB; only a corrupt per_hero asks
        raise ChecksumMismatch(f"shard per-hero count {per_hero} out of range") from None
    expected = _HEADER.size + n * dtype.itemsize
    if len(framed) != expected:
        raise ChecksumMismatch(f"shard body is {len(framed)} bytes, expected {expected}")
    rec = np.frombuffer(framed, dtype=dtype, offset=_HEADER.size)
    return Shard(
        variant=variant,
        features=rec["features"].copy(),
        labels=_unpack_labels(rec["labels"]),
        match_keys=rec["match_key"].copy(),
        game_times=rec["game_time"].copy(),
    )


def write_shards(features, labels, match_keys, game_times, out_dir, variant, prefix="shard"):
    """Chunk pre-shuffled sample columns into <=4000-sample files; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(0, len(features), SHARD_CAPACITY):
        chunk = slice(i, i + SHARD_CAPACITY)
        shard = Shard(variant=variant, features=features[chunk], labels=labels[chunk],
                      match_keys=match_keys[chunk], game_times=game_times[chunk])
        path = out_dir / f"{prefix}_{i // SHARD_CAPACITY:05d}.shard"
        write_atomic(path, encode_shard(shard))
        paths.append(path)
    return paths


def read_shard(path, expect_variant=None) -> Shard:
    shard = decode_shard(Path(path).read_bytes())
    if expect_variant is not None and shard.variant != expect_variant:
        raise SchemaMismatch(
            f"{path}: shard is {shard.variant!r}, expected {expect_variant!r}")
    return shard


# ---------------------------------------------------------------------------
# Split manifest


@dataclass(frozen=True)
class SplitManifest:
    """Disjoint train/validation/test match-id partition, split by match."""

    train: tuple
    val: tuple
    test: tuple
    seed: int

    def split_of(self, match_id):
        for name in ("train", "val", "test"):
            if match_id in getattr(self, name):
                return name
        return None

    def all_ids(self):
        return self.train + self.val + self.test


def split_matches(match_ids, seed=0, fractions=(0.8, 0.1, 0.1)) -> SplitManifest:
    """Shuffle ids and partition by match with the given fractions."""
    if abs(sum(fractions) - 1.0) > 1e-9 or len(fractions) != 3:
        raise ValueError("fractions must be three values summing to 1")
    ids = list(match_ids)
    if len(set(ids)) != len(ids):
        raise SchemaViolation("duplicate match ids in split input")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n = len(ids)
    n_val = int(np.floor(fractions[1] * n))
    n_test = int(np.floor(fractions[2] * n))
    n_train = n - n_val - n_test
    return SplitManifest(
        train=tuple(shuffled[:n_train]),
        val=tuple(shuffled[n_train:n_train + n_val]),
        test=tuple(shuffled[n_train + n_val:]),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Balanced batches


@dataclass(frozen=True)
class BalancedBatch:
    """A minibatch whose labels are exactly 50/50 for selected_slot only."""

    features: np.ndarray  # (B, 10, F) float32
    labels: np.ndarray  # (B, 10) bool
    selected_slot: int


class ShardPool:
    """One split's samples in memory as one contiguous array per column.

    `features` (n, 10, F) and `labels` (n, 10) hold every shard's rows in
    order; shard i is rows offsets[i]:offsets[i + 1], and `shards[i]` views
    those rows, so the pool holds one copy. Per slot and shard, the global
    rows that are positive (and negative) for the slot drive the balanced
    draw.
    """

    def __init__(self, shards, split="train"):
        shards = list(shards)
        if not shards:
            raise SchemaViolation("empty shard pool")
        variants = {s.variant for s in shards}
        if len(variants) != 1:
            raise SchemaMismatch(f"mixed shard variants in one pool: {sorted(variants)}")
        per_hero = {s.per_hero_count for s in shards}
        if len(per_hero) != 1:
            raise SchemaMismatch(
                f"mixed per-hero feature counts in one pool: {sorted(per_hero)}")
        self.variant = shards[0].variant
        self.split = split
        self.offsets = np.cumsum([0] + [len(s) for s in shards])
        n = int(self.offsets[-1])
        self.features = np.empty((n, md.N_HEROES, per_hero.pop()),
                                 dtype=shards[0].features.dtype)
        self.labels = np.empty((n, md.N_HEROES), dtype=bool)
        # Replacing each entry once copied frees the shards that only this
        # list holds (from_paths), so building never holds two full copies.
        for i, (lo, hi) in enumerate(zip(self.offsets[:-1], self.offsets[1:])):
            self.features[lo:hi] = shards[i].features
            self.labels[lo:hi] = shards[i].labels
            shards[i] = replace(shards[i], features=self.features[lo:hi],
                                labels=self.labels[lo:hi])
        self.shards = shards
        self._pos = [[lo + np.flatnonzero(s.labels[:, slot])
                      for s, lo in zip(shards, self.offsets)] for slot in range(md.N_HEROES)]
        self._neg = [[lo + np.flatnonzero(~s.labels[:, slot])
                      for s, lo in zip(shards, self.offsets)] for slot in range(md.N_HEROES)]
        self.pos_total = self.labels.sum(axis=0)
        self.neg_total = n - self.pos_total

    @classmethod
    def from_paths(cls, paths, split="train", expect_variant=None):
        return cls((read_shard(p, expect_variant) for p in paths), split=split)

    def __len__(self):
        return len(self.labels)

    def all_features(self):
        return self.features

    def all_labels(self):
        return self.labels


def _draw_from_shards(candidates, need, rng):
    """`need` global rows, as a list of arrays, from per-shard candidate
    rows: whole shards in a random order, then a draw without replacement
    from the shard that completes the count."""
    order = rng.permutation(len(candidates))
    picked = []
    for si in order:
        cand = candidates[si]
        if len(cand) == 0:
            continue
        take = min(need, len(cand))
        picked.append(cand if take == len(cand) else rng.choice(cand, size=take, replace=False))
        need -= take
        if need == 0:
            break
    return picked


def sample_balanced_batch(pool: ShardPool, batch_size=128, rng=None) -> BalancedBatch:
    """Draw a batch balanced 50/50 for one uniformly chosen satisfiable slot.

    Positives for the slot come from a random shard, topping up from more
    shards when one does not hold enough; negatives likewise. The batch is
    one gather of the chosen rows from the pool's arrays.
    """
    if batch_size % 2 != 0 or batch_size < 2:
        raise ValueError(f"batch_size must be a positive even number, got {batch_size}")
    rng = np.random.default_rng() if rng is None else rng
    half = batch_size // 2
    ok = (pool.pos_total >= half) & (pool.neg_total >= half)
    if not ok.any():
        raise InsufficientPositives(
            f"no slot has {half} positives and {half} negatives in the pool")
    slot = int(rng.choice(np.flatnonzero(ok)))
    rows = np.concatenate(_draw_from_shards(pool._pos[slot], half, rng)
                          + _draw_from_shards(pool._neg[slot], half, rng))
    return BalancedBatch(features=pool.features[rows], labels=pool.labels[rows],
                         selected_slot=slot)


# ---------------------------------------------------------------------------
# Dataset build pipeline


@dataclass
class DatasetManifest:
    """Everything needed to reproduce and safely consume a built dataset.

    The file stores shard and stats paths relative to its own directory, so
    a dataset directory can be moved; `load` resolves them again.
    """

    variant: str
    window: float
    period_ticks: int
    drop_fraction: float
    split_seed: int
    shuffle_seed: int
    drop_seed: int
    split: SplitManifest
    shard_paths: dict  # split name -> list of path strings
    stats_path: str
    counts: dict = field(default_factory=dict)  # split name -> sample count

    def save(self, path):
        here = Path(path).parent

        def rel(p):
            return os.path.relpath(p, here)

        lines = [
            f"variant\t{self.variant}",
            f"window\t{self.window!r}",
            f"period_ticks\t{self.period_ticks}",
            f"drop_fraction\t{self.drop_fraction!r}",
            f"split_seed\t{self.split_seed}",
            f"shuffle_seed\t{self.shuffle_seed}",
            f"drop_seed\t{self.drop_seed}",
            f"stats_path\t{rel(self.stats_path)}",
        ]
        for name in ("train", "val", "test"):
            lines.append(f"count_{name}\t{self.counts.get(name, 0)}")
        lines.append("[matches]")
        for name in ("train", "val", "test"):
            for mid in getattr(self.split, name):
                lines.append(f"{mid}\t{name}")
        lines.append("[shards]")
        for name in ("train", "val", "test"):
            for p in self.shard_paths.get(name, []):
                lines.append(f"{name}\t{rel(p)}")
        write_lines(path, lines)

    @classmethod
    def load(cls, path):
        here = Path(path).parent
        kv = {}
        matches = {"train": [], "val": [], "test": []}
        shards = {"train": [], "val": [], "test": []}
        section = None
        try:
            for ln in Path(path).read_text(encoding="utf-8").splitlines():
                if not ln.strip():
                    continue
                if ln == "[matches]":
                    section = "matches"
                    continue
                if ln == "[shards]":
                    section = "shards"
                    continue
                a, b = ln.split("\t")
                if section is None:
                    kv[a] = b
                elif section == "matches":
                    matches[b].append(a)
                else:
                    shards[a].append(str(here / b))
            split = SplitManifest(train=tuple(matches["train"]), val=tuple(matches["val"]),
                                  test=tuple(matches["test"]), seed=int(kv["split_seed"]))
            return cls(
                variant=kv["variant"], window=float(kv["window"]),
                period_ticks=int(kv["period_ticks"]),
                drop_fraction=float(kv["drop_fraction"]),
                split_seed=int(kv["split_seed"]), shuffle_seed=int(kv["shuffle_seed"]),
                drop_seed=int(kv["drop_seed"]), split=split, shard_paths=shards,
                stats_path=str(here / kv["stats_path"]),
                counts={name: int(kv.get(f"count_{name}", 0))
                        for name in ("train", "val", "test")},
            )
        except (KeyError, ValueError) as exc:
            raise SchemaViolation(f"{path}: malformed manifest ({exc!r})") from None


def _chunks(iterator, size):
    buf = []
    for item in iterator:
        buf.append(item)
        if len(buf) == size:
            yield buf
            buf = []
    if buf:
        yield buf


def match_samples(m, schema, window=5.0, period_ticks=4):
    """strip -> label -> downsample -> extract for one match: the one path
    from a match record to its (sampled frame, hero) rows.

    Returns (clean, idx, features, labels, game_times): the pause-stripped
    match, the sampled frame indices into it, raw (unnormalized) float64
    features (k, 10, F), labels (k, 10) bool and game times (k,).
    """
    clean = md.strip_pauses(m)
    labels = label_frames(clean, window=window)
    idx = downsample(clean, period_ticks=period_ticks)
    feats, gt = ft.extract_match(clean, schema, idx)
    return clean, idx, feats, labels[idx], gt


def build_dataset(match_provider, out_dir, schema, window=5.0, period_ticks=4,
                  drop_fraction=0.5, split_seed=0, shuffle_seed=0, drop_seed=0,
                  threads=1, match_ids=None) -> DatasetManifest:
    """One-pass dataset build: each match is loaded and prepared once.

    `match_provider()` is called once and returns an iterator of
    MatchRecords, taken `threads` at a time through match_samples. The
    match split comes from the ids in stream order, the normalization stats
    from the raw train features only; then each of train and val is
    normalized, rebalanced, shuffled and written as shards. Test matches are
    never sharded or rebalanced: the test split is evaluated straight from
    its match records.

    Given every id in stream order as `match_ids`, the split is made from
    them first and `match_provider(ids)` is called with only the train and
    val ids, in that order, so no test match is loaded; it must yield
    exactly those records in that order (SchemaViolation otherwise). The
    shards are the same as from a provider of every match.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = max(1, threads)

    def prepare(m):
        _, _, feats, labels, gt = match_samples(m, schema, window, period_ticks)
        return [m.match_id, feats, labels, gt.astype("<f4")]

    if match_ids is None:
        split, stream = None, match_provider()
    else:
        split = split_matches(match_ids, seed=split_seed)
        held = set(split.train) | set(split.val)
        wanted = [mid for mid in match_ids if mid in held]
        stream = match_provider(wanted)
    prepared = [block for chunk in _chunks(stream, threads)
                for block in ordered_map(prepare, chunk, threads)]
    if split is None:
        split = split_matches([block[0] for block in prepared], seed=split_seed)
    elif [block[0] for block in prepared] != wanted:
        raise SchemaViolation("the match provider did not yield the train and val matches "
                              "of match_ids in their order")
    if not split.train:
        raise SchemaViolation("no training matches in the split")
    parts = {"train": [], "val": []}
    for block in prepared:
        if (part := split.split_of(block[0])) in parts:
            parts[part].append(block)
    del prepared  # the test matches' blocks go with it

    stats = ft.compute_norm_stats([block[1] for block in parts["train"]], schema)
    stats_path = out_dir / "norm_stats.tsv"
    ft.save_norm_stats(stats, stats_path)

    shard_paths = {"train": [], "val": [], "test": []}
    counts = {"train": 0, "val": 0, "test": 0}
    for stream, (name, blocks) in enumerate(parts.items()):  # train 0, val 1
        if not blocks:
            continue
        feats = np.empty((sum(len(b[2]) for b in blocks), md.N_HEROES, schema.per_hero_count),
                         dtype="<f4")
        at = 0
        for block in blocks:
            k = len(block[2])
            feats[at:at + k] = ft.normalize_array(block[1], stats)
            block[1] = None  # free each raw block once it is normalized
            at += k
        labels = np.concatenate([b[2] for b in blocks])
        gts = np.concatenate([b[3] for b in blocks])
        keys = np.concatenate([np.full(len(b[2]), hash64(b[0]), dtype="<u8") for b in blocks])
        kept = np.flatnonzero(undersample_mask(labels, drop_fraction, seed=(drop_seed, stream)))
        rows = kept[np.random.default_rng((shuffle_seed, stream)).permutation(len(kept))]
        counts[name] = len(rows)
        shard_paths[name] = [str(p) for p in write_shards(
            feats[rows], labels[rows], keys[rows], gts[rows], out_dir, schema.variant,
            prefix=name)]

    manifest = DatasetManifest(
        variant=schema.variant, window=window, period_ticks=period_ticks,
        drop_fraction=drop_fraction, split_seed=split_seed, shuffle_seed=shuffle_seed,
        drop_seed=drop_seed, split=split, shard_paths=shard_paths,
        stats_path=str(stats_path), counts=counts,
    )
    manifest.save(out_dir / "manifest.tsv")
    return manifest
