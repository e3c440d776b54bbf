"""Per-hero feature vectors: the three schema variants, extraction, scaling.

Every hero slot gets the same ordered feature layout. The `full` variant is
287 features per hero; `medium` drops the hero one-hot and ability blocks
(109); `minimal` is the 15-feature core (health, gold, position, hero and
tower proximities). `dump_schema` prints the exact order.

`extract_match` extracts every sampled frame of a match at once; the
change and visibility-history features are relative to the previous
sampled frame. The test suite checks it against a frame-at-a-time
reference in `tests/oracles.py`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import match_data as md
from .errors import EmptyStream, InvalidFrame, SchemaMismatch
from .util import read_text, write_lines

log = logging.getLogger(__name__)

VARIANTS = ("minimal", "medium", "full")

# Static slot index tables: allies exclude the hero itself.
_ALLY_IDX = []
_ENEMY_IDX = []
for _s in range(md.N_HEROES):
    _team = md.TEAM_A_SLOTS if _s in md.TEAM_A_SLOTS else md.TEAM_B_SLOTS
    _other = md.TEAM_B_SLOTS if _s in md.TEAM_A_SLOTS else md.TEAM_A_SLOTS
    _ALLY_IDX.append(np.array([t for t in _team if t != _s]))
    _ENEMY_IDX.append(np.array(_other))

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
    blocks = [("time", ["time"])]
    blocks.append(("state", [f"state_{n}" for n in md.STATE_ATTR_NAMES]))
    blocks.append(("stats", [f"stat_{n}" for n in md.STAT_ATTR_NAMES]))
    item_names = []
    for n in md.TRACKED_ITEM_NAMES:
        item_names += [f"item_{n}_owned", f"item_{n}_cooldown"]
    blocks.append(("items", item_names))
    abil_names = []
    for a in range(1, md.N_ABILITY_SLOTS + 1):
        abil_names += [f"ability{a}_{attr}" for attr in md.ABILITY_ATTR_NAMES]
    blocks.append(("abilities", abil_names))
    blocks.append(("hero_id", [f"hero_id_{k}" for k in range(roster_size)]))
    blocks.append(("position", ["pos_x", "pos_x_change", "pos_y", "pos_y_change"]))
    prox = [f"ally_proximity_{j}" for j in range(1, 5)]
    prox += [f"ally_proximity_{j}_change" for j in range(1, 5)]
    prox += [f"enemy_proximity_{j}" for j in range(1, 6)]
    prox += [f"enemy_proximity_{j}_change" for j in range(1, 6)]
    blocks.append(("proximity", prox))
    blocks.append(("tower", ["ally_tower_proximity", "ally_tower_proximity_change",
                             "enemy_tower_proximity", "enemy_tower_proximity_change"]))
    blocks.append(("visibility", [f"visible_{a}s_ago" for a in range(N_VIS_FLAGS)]))
    return blocks


def feature_schema(variant, roster_size=md.DEFAULT_ROSTER_SIZE) -> FeatureSchema:
    """Build the ordered schema for a variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown schema variant {variant!r}, want one of {VARIANTS}")
    if variant == "minimal":
        names = ["health", "total_gold", "pos_x", "pos_y"]
        cats = ["state", "stats", "position", "position"]
        names += [f"ally_proximity_{j}" for j in range(1, 5)]
        cats += ["proximity"] * 4
        names += [f"enemy_proximity_{j}" for j in range(1, 6)]
        cats += ["proximity"] * 5
        names += ["ally_tower_proximity", "enemy_tower_proximity"]
        cats += ["tower"] * 2
        return FeatureSchema("minimal", roster_size, tuple(names), tuple(cats))
    # medium has no hero_id block, so its names never depend on the roster
    blocks = _full_blocks(roster_size if variant == "full" else 0)
    if variant == "medium":
        blocks = [(cat, names) for cat, names in blocks if cat not in ("hero_id", "abilities")]
    names, cats = [], []
    for cat, block_names in blocks:
        names += block_names
        cats += [cat] * len(block_names)
    return FeatureSchema(variant, roster_size, tuple(names), tuple(cats))


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
    """Euclidean distance matrix; pos is (..., 10, 2)."""
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    return np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)


def _tower_prox(pos, tower_team, tower_pos, tower_alive):
    """Distance to nearest alive ally/enemy tower per hero; 0 when none.

    pos (..., 10, 2); tower_alive (..., T). Returns (ally, enemy) arrays of
    shape (..., 10).
    """
    if len(tower_team) == 0:
        zeros = np.zeros(pos.shape[:-1])
        return zeros, zeros.copy()
    diff = pos[..., :, None, :] - tower_pos[..., None, :, :]
    d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)  # (..., 10, T)
    hero_team = np.zeros(md.N_HEROES, dtype=np.int8)
    hero_team[list(md.TEAM_B_SLOTS)] = 1
    same = tower_team[None, :] == hero_team[:, None]  # (10, T)
    out = []
    for mask in (same, ~same):
        usable = mask & tower_alive[..., None, :]
        dm = np.where(usable, d, np.inf)
        best = dm.min(axis=-1)
        out.append(np.where(np.isfinite(best), best, 0.0))
    return out[0], out[1]


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
    gt = m.game_time[idx]
    pos = m.pos[idx]  # (k, 10, 2)
    dists = _pairwise_dist(pos)  # (k, 10, 10)

    ally = np.zeros((k, md.N_HEROES, 4))
    enemy = np.zeros((k, md.N_HEROES, 5))
    for s in range(md.N_HEROES):
        ally[:, s] = np.sort(dists[:, s, _ALLY_IDX[s]], axis=1)
        enemy[:, s] = np.sort(dists[:, s, _ENEMY_IDX[s]], axis=1)

    if m.has_towers:
        ally_tw, enemy_tw = _tower_prox(pos, m.tower_team, m.tower_pos, m.tower_alive[idx])
    else:
        ally_tw = np.zeros((k, md.N_HEROES))
        enemy_tw = np.zeros((k, md.N_HEROES))
        log.warning("match %s has no tower data; tower proximity features are 0", m.match_id)

    def per_second_change(cur):
        out = np.zeros_like(cur)
        if k > 1:
            dt = np.diff(gt)
            ok = dt > 0
            shape = (k - 1,) + (1,) * (cur.ndim - 1)
            dt_safe = np.where(ok, dt, 1.0).reshape(shape)
            out[1:] = np.where(ok.reshape(shape), (cur[1:] - cur[:-1]) / dt_safe, 0.0)
        return out

    pos_chg = per_second_change(pos)
    ally_chg = per_second_change(ally)
    enemy_chg = per_second_change(enemy)
    ally_tw_chg = per_second_change(ally_tw)
    enemy_tw_chg = per_second_change(enemy_tw)
    vis = _bulk_visibility(gt, m.visible[idx]).astype(np.float64)

    out = np.empty((k, md.N_HEROES, schema.per_hero_count))
    if schema.variant == "minimal":
        out[:, :, 0] = m.health[idx]
        out[:, :, 1] = m.stats[idx, :, md.GOLD_STAT_INDEX]
        out[:, :, 2] = pos[:, :, 0]
        out[:, :, 3] = pos[:, :, 1]
        out[:, :, 4:8] = ally
        out[:, :, 8:13] = enemy
        out[:, :, 13] = ally_tw
        out[:, :, 14] = enemy_tw
    else:
        c = 0
        out[:, :, c] = gt[:, None]
        c += 1
        out[:, :, c:c + md.N_STATE_ATTRS] = m.state[idx]
        c += md.N_STATE_ATTRS
        out[:, :, c:c + md.N_STAT_ATTRS] = m.stats[idx]
        c += md.N_STAT_ATTRS
        items = np.stack([m.item_owned[idx].astype(np.float64), m.item_cooldown[idx]], axis=-1)
        out[:, :, c:c + 2 * md.N_TRACKED_ITEMS] = items.reshape(k, md.N_HEROES, -1)
        c += 2 * md.N_TRACKED_ITEMS
        if schema.variant == "full":
            out[:, :, c:c + md.N_ABILITY_SLOTS * md.N_ABILITY_ATTRS] = \
                m.abilities[idx].reshape(k, md.N_HEROES, -1)
            c += md.N_ABILITY_SLOTS * md.N_ABILITY_ATTRS
            onehot = np.zeros((md.N_HEROES, schema.roster_size))
            onehot[np.arange(md.N_HEROES), m.hero_ids] = 1.0
            out[:, :, c:c + schema.roster_size] = onehot[None]
            c += schema.roster_size
        out[:, :, c] = pos[:, :, 0]
        out[:, :, c + 1] = pos_chg[:, :, 0]
        out[:, :, c + 2] = pos[:, :, 1]
        out[:, :, c + 3] = pos_chg[:, :, 1]
        c += 4
        out[:, :, c:c + 4] = ally
        out[:, :, c + 4:c + 8] = ally_chg
        out[:, :, c + 8:c + 13] = enemy
        out[:, :, c + 13:c + 18] = enemy_chg
        c += 18
        out[:, :, c] = ally_tw
        out[:, :, c + 1] = ally_tw_chg
        out[:, :, c + 2] = enemy_tw
        out[:, :, c + 3] = enemy_tw_chg
        c += 4
        out[:, :, c:c + N_VIS_FLAGS] = vis
        c += N_VIS_FLAGS
        assert c == schema.per_hero_count

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
            or not head[2].isdigit()):
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
