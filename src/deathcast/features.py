"""Per-hero feature vectors: the three schema variants, extraction, scaling.

Every hero slot gets the same ordered feature layout. The `full` variant is
287 features per hero; `medium` drops the hero one-hot and ability blocks
(109); `minimal` is the 15-feature core (health, gold, position, hero and
tower proximities). `dump_schema` prints the exact order.

The block table (`_full_blocks`, narrowed per variant by `_layout`) is the
one statement of that layout: `feature_schema` takes the names from it and
`extract_match` fills the columns from it, so only the blocks a schema names
are computed. `extract_match` extracts every sampled frame of a match at
once; the change and visibility-history features are relative to the
previous sampled frame. The test suite checks it against a frame-at-a-time
reference in `tests/oracles.py`.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import match_data as md
from .errors import EmptyStream, InvalidFrame, SchemaMismatch
from .util import read_text, write_lines

log = logging.getLogger(__name__)

VARIANTS = ("minimal", "medium", "full")

# Per slot: its team (0 = A, 1 = B), its allies (itself excluded) and its enemies.
_TEAM_OF_SLOT = np.isin(np.arange(md.N_HEROES), md.TEAM_B_SLOTS).astype(np.int8)
_SAME_TEAM = _TEAM_OF_SLOT[:, None] == _TEAM_OF_SLOT[None, :]
_ALLY_IDX = np.array([np.flatnonzero(r) for r in _SAME_TEAM & ~np.eye(md.N_HEROES, dtype=bool)])
_ENEMY_IDX = np.array([np.flatnonzero(r) for r in ~_SAME_TEAM])

N_VIS_FLAGS = 10  # trailing whole seconds of visibility, newest first


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered per-hero feature layout for one variant."""

    variant: str
    roster_size: int
    names: tuple
    categories: tuple

    @property
    def per_hero_count(self):
        return len(self.names)

    @property
    def has_hero_onehot(self):
        return "hero_id" in self.categories

    def index_of(self, name):
        return self.names.index(name)


def _full_blocks(roster_size):
    """(category, source, names) blocks of the full schema, in feature order;
    `source` names the array `extract_match` fills the block from."""
    return [
        ("time", "time", ["time"]),
        ("state", "state", [f"state_{n}" for n in md.STATE_ATTR_NAMES]),
        ("stats", "stats", [f"stat_{n}" for n in md.STAT_ATTR_NAMES]),
        ("items", "items", [f"item_{n}_{a}" for n in md.TRACKED_ITEM_NAMES
                            for a in ("owned", "cooldown")]),
        ("abilities", "abilities", [f"ability{a}_{attr}" for a in range(1, md.N_ABILITY_SLOTS + 1)
                                    for attr in md.ABILITY_ATTR_NAMES]),
        ("hero_id", "hero_id", [f"hero_id_{k}" for k in range(roster_size)]),
        ("position", "pos_paired", ["pos_x", "pos_x_change", "pos_y", "pos_y_change"]),
        ("proximity", "ally", [f"ally_proximity_{j}" for j in range(1, 5)]),
        ("proximity", "ally_change", [f"ally_proximity_{j}_change" for j in range(1, 5)]),
        ("proximity", "enemy", [f"enemy_proximity_{j}" for j in range(1, 6)]),
        ("proximity", "enemy_change", [f"enemy_proximity_{j}_change" for j in range(1, 6)]),
        ("tower", "tower_paired", ["ally_tower_proximity", "ally_tower_proximity_change",
                                   "enemy_tower_proximity", "enemy_tower_proximity_change"]),
        ("visibility", "visibility", [f"visible_{a}s_ago" for a in range(N_VIS_FLAGS)]),
    ]


def _layout(variant, roster_size):
    """(category, source, names) blocks of a variant, in feature order."""
    # medium and minimal have no hero_id block, so their names never depend on the roster
    if variant == "full":
        return _full_blocks(roster_size)
    if variant == "medium":
        return [b for b in _full_blocks(0) if b[0] not in ("hero_id", "abilities")]
    return ([("state", "health", ["health"]), ("stats", "gold", ["total_gold"]),
             ("position", "pos", ["pos_x", "pos_y"])]
            + [b for b in _full_blocks(0) if b[1] in ("ally", "enemy")]
            + [("tower", "tower", ["ally_tower_proximity", "enemy_tower_proximity"])])


def feature_schema(variant, roster_size=md.DEFAULT_ROSTER_SIZE) -> FeatureSchema:
    """Build the ordered schema for a variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown schema variant {variant!r}, want one of {VARIANTS}")
    blocks = _layout(variant, roster_size)
    names = tuple(n for _, _, block in blocks for n in block)
    cats = tuple(cat for cat, _, block in blocks for _ in block)
    return FeatureSchema(variant, roster_size, names, cats)


def header_schema(variant, roster_size, input_size, what):
    """feature_schema for a variant and roster read from an artifact of
    input_size bytes; SchemaMismatch when the roster cannot be valid.

    Only the full schema has a feature per roster entry, and the artifact
    stores each feature in more than one byte, so there a roster larger than
    the artifact is refused before any name is built.
    """
    if roster_size < 1 or (variant == "full" and roster_size > input_size):
        raise SchemaMismatch(f"{what}: roster size {roster_size} out of range")
    return feature_schema(variant, roster_size)


def dump_schema(schema: FeatureSchema) -> str:
    """Numbered feature-order listing, one line per feature."""
    lines = [f"{i:4d}  {cat:<10s} {name}"
             for i, (name, cat) in enumerate(zip(schema.names, schema.categories))]
    return "\n".join(lines)


def _pairwise_dist(pos):
    """(..., 10, 10) distance between every pair of heroes; pos is (..., 10, 2)."""
    x, y = pos[..., 0], pos[..., 1]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return np.sqrt(dx * dx + dy * dy)


def _tower_prox(pos, tower_team, tower_pos, tower_alive):
    """(k, 10, 2) distance to the nearest alive ally and enemy tower per
    hero, 0 when there is none; pos (k, 10, 2), tower_alive (k, T)."""
    if len(tower_team) == 0:
        return np.zeros(pos.shape)
    diff = pos[:, :, None, :] - tower_pos[None, :, :]
    d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)  # (k, 10, T)
    same = tower_team[None, :] == _TEAM_OF_SLOT[:, None]  # (10, T)
    best = np.stack([np.where(mask & tower_alive[:, None, :], d, np.inf).min(axis=-1)
                     for mask in (same, ~same)], axis=-1)
    return np.where(np.isfinite(best), best, 0.0)


def _bulk_visibility(game_times, visible):
    """(k, 10, N_VIS_FLAGS) flags over the sampled frames, newest first."""
    k = len(game_times)
    flags = np.zeros((k, md.N_HEROES, N_VIS_FLAGS), dtype=bool)
    if k == 0:
        return flags
    buckets = np.floor(game_times).astype(np.int64)
    starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
    bucket_ids = buckets[starts]
    counts = np.diff(np.r_[starts, k])
    group_of_frame = np.repeat(np.arange(len(starts)), counts)

    vis_csum = np.cumsum(visible.astype(np.int64), axis=0)
    base = np.zeros((len(starts), md.N_HEROES), dtype=np.int64)
    base[1:] = vis_csum[starts[1:] - 1]
    flags[:, :, 0] = (vis_csum - base[group_of_frame]) > 0

    bucket_final = np.logical_or.reduceat(visible, starts, axis=0)  # (G, 10)
    frame_bucket = buckets
    g = len(bucket_ids)
    for age in range(1, N_VIS_FLAGS):
        target = frame_bucket - age
        pos = np.searchsorted(bucket_ids, target)
        hit = (pos < g) & (bucket_ids[np.minimum(pos, g - 1)] == target)
        vals = bucket_final[np.minimum(pos, g - 1)]
        flags[:, :, age] = vals & hit[:, None]
    return flags


def extract_match(m, schema, indices=None):
    """Vectorized extraction over sampled frame indices (default: all).

    Returns (features, game_times): features is (k, 10, per_hero_count)
    float64. Change features are per second since the previous sampled
    frame (0 at the first), visibility flags cover the trailing whole
    seconds of the sampled frames.
    """
    if schema.has_hero_onehot and schema.roster_size != m.roster_size:
        raise SchemaMismatch(
            f"schema one-hot width {schema.roster_size} != match roster {m.roster_size}")
    if indices is None:
        indices = np.arange(m.n_frames)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= m.n_frames):
        raise InvalidFrame("frame index out of range")
    k = idx.size
    n = md.N_HEROES
    gt = m.game_time[idx]
    pos = m.pos[idx]  # (k, 10, 2)

    def change(cur):
        """Per second since the previous sampled frame; 0 at the first."""
        out = np.zeros_like(cur)
        if k > 1:
            dt = np.diff(gt)
            ok = dt > 0
            shape = (k - 1,) + (1,) * (cur.ndim - 1)
            dt_safe = np.where(ok, dt, 1.0).reshape(shape)
            out[1:] = np.where(ok.reshape(shape), (cur[1:] - cur[:-1]) / dt_safe, 0.0)
        return out

    def paired(cur):
        """Each value of the last axis followed by its change."""
        return np.stack([cur, change(cur)], axis=-1)

    @functools.cache
    def nearest():
        """Sorted distances to the 4 allies and to the 5 enemies."""
        dists = _pairwise_dist(pos)  # (k, 10, 10)
        return [np.sort(np.take_along_axis(dists, t[None], axis=2), axis=2)
                for t in (_ALLY_IDX, _ENEMY_IDX)]

    def towers():
        if not m.has_towers:
            log.warning("match %s has no tower data; tower proximity features are 0", m.match_id)
            return np.zeros((k, n, 2))
        return _tower_prox(pos, m.tower_team, m.tower_pos, m.tower_alive[idx])

    def hero_id():
        onehot = np.zeros((n, schema.roster_size))
        onehot[np.arange(n), m.hero_ids] = 1.0
        return np.broadcast_to(onehot, (k, n, schema.roster_size))

    sources = {
        "time": lambda: np.broadcast_to(gt[:, None], (k, n)),
        "health": lambda: m.health[idx],
        "gold": lambda: m.stats[idx, :, md.GOLD_STAT_INDEX],
        "state": lambda: m.state[idx],
        "stats": lambda: m.stats[idx],
        "items": lambda: np.stack([m.item_owned[idx], m.item_cooldown[idx]], axis=-1),
        "abilities": lambda: m.abilities[idx],
        "hero_id": hero_id,
        "pos": lambda: pos,
        "pos_paired": lambda: paired(pos),
        "ally": lambda: nearest()[0],
        "ally_change": lambda: change(nearest()[0]),
        "enemy": lambda: nearest()[1],
        "enemy_change": lambda: change(nearest()[1]),
        "tower": towers,
        "tower_paired": lambda: paired(towers()),
        "visibility": lambda: _bulk_visibility(gt, m.visible[idx]),
    }
    out = np.empty((k, n, schema.per_hero_count))
    c = 0
    for _, source, names in _layout(schema.variant, schema.roster_size):
        out[:, :, c:c + len(names)] = sources[source]().reshape(k, n, len(names))
        c += len(names)

    if not np.isfinite(out).all():
        raise InvalidFrame("non-finite feature value in bulk extraction")
    return out, gt


# ---------------------------------------------------------------------------
# Normalization


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature (min, max) pooled over every hero slot and frame."""

    schema: FeatureSchema
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if self.mins.shape != (self.schema.per_hero_count,) or self.maxs.shape != self.mins.shape:
            raise SchemaMismatch("stats length differs from schema feature count")
        if (self.mins > self.maxs).any():
            raise SchemaMismatch("min > max in normalization stats")


def compute_norm_stats(arrays, schema) -> NormalizationStats:
    """Pooled min/max over raw feature arrays, (10, F) frames or (k, 10, F)
    blocks, of one schema."""
    mins = maxs = None
    for arr in arrays:
        arr = np.asarray(arr)
        flat = arr.reshape(-1, arr.shape[-1])
        if flat.shape[0] == 0:
            continue
        lo = flat.min(axis=0)
        hi = flat.max(axis=0)
        if mins is None:
            mins, maxs = lo.copy(), hi.copy()
        else:
            np.minimum(mins, lo, out=mins)
            np.maximum(maxs, hi, out=maxs)
    if mins is None:
        raise EmptyStream("no samples to compute normalization stats from")
    return NormalizationStats(schema=schema, mins=mins, maxs=maxs)


def normalize_array(arr, stats: NormalizationStats):
    """Scale features to [0, 1]; constant features map to 0, outliers clamp."""
    rng = stats.maxs - stats.mins
    safe = np.where(rng > 0, rng, 1.0)
    out = (arr - stats.mins) / safe
    out = np.where(rng > 0, out, 0.0)
    return np.clip(out, 0.0, 1.0)


def save_norm_stats(stats: NormalizationStats, path):
    """Text form: a schema header then one `name<TAB>min<TAB>max` per feature."""
    lines = [f"schema\t{stats.schema.variant}\t{stats.schema.roster_size}"]
    for name, lo, hi in zip(stats.schema.names, stats.mins, stats.maxs):
        lines.append(f"{name}\t{float(lo)!r}\t{float(hi)!r}")
    write_lines(path, lines)


def load_norm_stats(path) -> NormalizationStats:
    text = read_text(path, SchemaMismatch)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split("\t") if lines else []
    if (len(head) != 3 or head[0] != "schema" or head[1] not in VARIANTS
            or not head[2].isdecimal()):
        raise SchemaMismatch(f"{path}: bad stats header")
    schema = header_schema(head[1], int(head[2]), len(text), path)
    body = lines[1:]
    if len(body) != schema.per_hero_count:
        raise SchemaMismatch(
            f"{path}: {len(body)} stat lines for a {schema.per_hero_count}-feature schema")
    mins = np.zeros(schema.per_hero_count)
    maxs = np.zeros(schema.per_hero_count)
    for i, ln in enumerate(body):
        cells = ln.split("\t")
        if len(cells) != 3 or cells[0] != schema.names[i]:
            raise SchemaMismatch(f"{path}: line {i + 2}: expected feature {schema.names[i]!r}")
        try:
            mins[i], maxs[i] = float(cells[1]), float(cells[2])
        except ValueError:
            raise SchemaMismatch(f"{path}: line {i + 2}: bad number") from None
    return NormalizationStats(schema=schema, mins=mins, maxs=maxs)
