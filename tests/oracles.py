"""Independent brute-force reference implementations used by the tests.

These deliberately avoid numpy vectorization tricks and share no code with
the package paths they check.
"""

import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from deathcast import features as ft
from deathcast import match_data as md
from deathcast import model as mo
from deathcast import synth as sy


def brute_force_labels(m, window):
    """Double loop over frames x deaths."""
    labels = np.zeros((m.n_frames, md.N_HEROES), dtype=bool)
    for i in range(m.n_frames):
        t = float(m.game_time[i])
        for d in m.deaths:
            if t < d.time <= t + window:
                labels[i, d.slot] = True
    return labels


def brute_force_pr(scores, labels):
    """Recount TP/FP at every distinct threshold, descending."""
    thresholds = sorted(set(scores), reverse=True)
    pts = []
    pos = sum(labels)
    for th in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= th and y)
        fp = sum(1 for s, y in zip(scores, labels) if s >= th and not y)
        pts.append((th, tp / (tp + fp), tp / pos))
    return pts


def brute_force_ap(scores, labels):
    pts = brute_force_pr(scores, labels)
    ap = 0.0
    prev_r = 0.0
    for _, p, r in pts:
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def brute_force_spearman_rho(x, y):
    def ranks(v):
        out = [0.0] * len(v)
        for i, vi in enumerate(v):
            less = sum(1 for u in v if u < vi)
            equal = sum(1 for u in v if u == vi)
            out[i] = less + (equal + 1) / 2.0
        return out

    rx, ry = ranks(x), ranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


def reference_balanced_batch(shards, batch_size, rng):
    """(features, labels, selected_slot) of one slot-balanced batch, drawn
    per row from the shards' own columns.

    This is the sampler the pool's one-gather path replaced; it makes the
    same generator calls in the same order: the slot, then for positives
    and negatives in turn a shard permutation and one draw without
    replacement from the shard that completes the half batch.
    """
    half = batch_size // 2
    pos_total = np.sum([s.labels.sum(axis=0) for s in shards], axis=0)
    neg_total = sum(len(s.labels) for s in shards) - pos_total
    slot = int(rng.choice(np.flatnonzero((pos_total >= half) & (neg_total >= half))))

    def draw(positive):
        order = rng.permutation(len(shards))
        picked = []
        for si in order:
            cand = np.flatnonzero(shards[si].labels[:, slot] == positive)
            if len(cand) == 0:
                continue
            take = min(half - len(picked), len(cand))
            rows = cand if take == len(cand) else rng.choice(cand, size=take, replace=False)
            picked.extend((si, int(r)) for r in rows)
            if len(picked) == half:
                break
        return picked

    rows = draw(True) + draw(False)
    features = np.stack([shards[si].features[r] for si, r in rows])
    labels = np.stack([shards[si].labels[r] for si, r in rows])
    return features, labels, slot


# ---------------------------------------------------------------------------
# Frame-at-a-time feature extraction: the reference for features.extract_match

N_VIS_FLAGS = 10  # trailing whole seconds of visibility, newest first


@dataclass(frozen=True)
class FrameFeatures:
    """One extracted frame: 10 per-hero vectors in slot order."""

    schema: object
    game_time: float
    per_hero: np.ndarray  # (10, per_hero_count) float64


@dataclass
class HistoryState:
    """Carry-over between consecutive processed samples of one match."""

    initialized: bool
    prev_game_time: float
    prev: dict  # (slot, feature name) -> value at the previous sample
    vis_flags: np.ndarray  # (10 heroes, N_VIS_FLAGS ages) bool, age 0 = current second
    vis_bucket: int


def fresh_history():
    return HistoryState(initialized=False, prev_game_time=0.0, prev={},
                        vis_flags=np.zeros((md.N_HEROES, N_VIS_FLAGS), dtype=bool),
                        vis_bucket=0)


def _distance(a, b):
    dx, dy = a[0] - b[0], a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


def _nearest_tower(m, i, slot, own_side):
    """Distance to the nearest alive tower of the hero's side (or the other
    side); 0 when there is none."""
    hero_side = 0 if slot in md.TEAM_A_SLOTS else 1
    best = math.inf
    if m.has_towers:
        for side, where, alive in zip(m.tower_team, m.tower_pos, m.tower_alive[i]):
            if alive and (side == hero_side) == own_side:
                best = min(best, _distance(m.pos[i, slot], where))
    return 0.0 if best == math.inf else best


def extract_frame(m, frame_index, schema, hist):
    """One frame's 10 feature vectors, each feature looked up by its schema
    name; returns (FrameFeatures, hist).

    Feed a match's sampled frames in order, starting from fresh_history():
    change features are per second since the previous processed frame, and
    the visibility flags are a ring of one-second buckets over them.
    """
    i = frame_index
    t = float(m.game_time[i])
    dt = t - hist.prev_game_time
    changes = hist.initialized and dt > 0

    bucket = math.floor(t)
    if not hist.initialized:
        hist.vis_flags[:] = False
        hist.vis_bucket = bucket
    elif bucket != hist.vis_bucket:
        shift = bucket - hist.vis_bucket
        assert shift > 0, "frames fed out of time order"
        rolled = np.zeros_like(hist.vis_flags)
        if shift < N_VIS_FLAGS:
            rolled[:, shift:] = hist.vis_flags[:, :N_VIS_FLAGS - shift]
        hist.vis_flags = rolled
        hist.vis_bucket = bucket
    hist.vis_flags[:, 0] |= m.visible[i]

    out = np.empty((md.N_HEROES, schema.per_hero_count))
    current = {}
    for s in range(md.N_HEROES):
        team, other = ((md.TEAM_A_SLOTS, md.TEAM_B_SLOTS) if s in md.TEAM_A_SLOTS
                       else (md.TEAM_B_SLOTS, md.TEAM_A_SLOTS))
        pos = m.pos[i, s]
        ally = sorted(_distance(pos, m.pos[i, o]) for o in team if o != s)
        enemy = sorted(_distance(pos, m.pos[i, o]) for o in other)
        moving = {"pos_x": pos[0], "pos_y": pos[1],
                  "ally_tower_proximity": _nearest_tower(m, i, s, True),
                  "enemy_tower_proximity": _nearest_tower(m, i, s, False)}
        moving.update((f"ally_proximity_{j + 1}", d) for j, d in enumerate(ally))
        moving.update((f"enemy_proximity_{j + 1}", d) for j, d in enumerate(enemy))

        vals = dict(moving)
        for name, v in moving.items():
            vals[f"{name}_change"] = (v - hist.prev[s, name]) / dt if changes else 0.0
            current[s, name] = v
        vals["time"] = t
        vals["health"] = m.health[i, s]
        vals["total_gold"] = m.stats[i, s, md.GOLD_STAT_INDEX]
        for k, n in enumerate(md.STATE_ATTR_NAMES):
            vals[f"state_{n}"] = m.state[i, s, k]
        for k, n in enumerate(md.STAT_ATTR_NAMES):
            vals[f"stat_{n}"] = m.stats[i, s, k]
        for k, n in enumerate(md.TRACKED_ITEM_NAMES):
            vals[f"item_{n}_owned"] = float(m.item_owned[i, s, k])
            vals[f"item_{n}_cooldown"] = m.item_cooldown[i, s, k]
        for a in range(md.N_ABILITY_SLOTS):
            for k, n in enumerate(md.ABILITY_ATTR_NAMES):
                vals[f"ability{a + 1}_{n}"] = m.abilities[i, s, a, k]
        for k in range(m.roster_size):
            vals[f"hero_id_{k}"] = float(k == m.hero_ids[s])
        for age in range(N_VIS_FLAGS):
            vals[f"visible_{age}s_ago"] = float(hist.vis_flags[s, age])
        out[s] = [vals[name] for name in schema.names]

    hist.initialized = True
    hist.prev_game_time = t
    hist.prev = current
    return FrameFeatures(schema=schema, game_time=t, per_hero=out), hist


# ---------------------------------------------------------------------------
# Per-element match writer: the reference for match_data.write_match


def _reference_hero_obj(m, i, s):
    owned = np.flatnonzero(m.item_owned[i, s])
    k = int(m.ability_count[i, s])
    return {
        "slot": s,
        "hero_id": int(m.hero_ids[s]),
        "alive": bool(m.alive[i, s]),
        "health": float(m.health[i, s]),
        "max_health": float(m.max_health[i, s]),
        "mana": float(m.mana[i, s]),
        "max_mana": float(m.max_mana[i, s]),
        "pos_x": float(m.pos[i, s, 0]),
        "pos_y": float(m.pos[i, s, 1]),
        "visible_to_enemy": bool(m.visible[i, s]),
        "state_attrs": m.state[i, s].tolist(),
        "stat_attrs": m.stats[i, s].tolist(),
        "items": [[int(j), float(m.item_cooldown[i, s, j])] for j in owned],
        "abilities": m.abilities[i, s, :k].tolist(),
    }


def reference_write_match(m):
    """The canonical line-delimited bytes of a record, one frame and one
    hero at a time, reading each value as a numpy scalar."""
    out = io.StringIO()
    dump = lambda obj: out.write(json.dumps(obj, separators=(",", ":")))  # noqa: E731
    dump({"match_id": m.match_id, "tick_interval": m.tick_interval,
          "roster_size": m.roster_size, "hero_ids": m.hero_ids.tolist()})
    out.write("\n")
    for i in range(m.n_frames):
        obj = {
            "tick": int(m.tick[i]),
            "game_time": float(m.game_time[i]),
            "paused": bool(m.paused[i]),
            "heroes": [_reference_hero_obj(m, i, s) for s in range(md.N_HEROES)],
        }
        if m.has_towers:
            obj["towers"] = [
                {"team": int(t), "x": float(p[0]), "y": float(p[1]), "alive": bool(a)}
                for t, p, a in zip(m.tower_team, m.tower_pos, m.tower_alive[i])
            ]
        dump(obj)
        out.write("\n")
    dump({"deaths": [{"slot": int(s), "time": float(t)}
                     for s, t in zip(m.death_slot, m.death_time)]})
    out.write("\n")
    return out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Synthetic-oracle forms the package does not need. Both are built on the
# generator's own hazard helpers: the tests check them against Monte-Carlo
# re-simulation and against the realized death counts.


def bayes_probability(cfg, m, frame_index, slot, window=5.0) -> float:
    """Scalar form of synth.bayes_scores for one (frame, slot)."""
    if not 0 <= frame_index < m.n_frames:
        raise IndexError(f"frame index {frame_index} out of range")
    if not 0 <= slot < md.N_HEROES:
        raise IndexError(f"slot {slot} out of range")
    return float(sy.bayes_scores(cfg, m, window=window, indices=[frame_index])[0, slot])


def expected_death_count(cfg, m) -> float:
    """Analytic expected number of deaths on the realized driver trajectory.

    Forward evolution of the exact alive-state mixture: alive probability
    mass is partitioned by current live health (health paths from
    different respawn ticks merge once the clip bounds coincide), dead
    mass respawns at the geometric rate into the full-health branch.
    Mirrors the generator's per-tick order (respawn, death coin, health
    roll).
    """
    sy._require_synth(cfg, m)
    n = m.n_frames
    dt = m.tick_interval
    p_r = sy._respawn_prob(cfg, dt)
    pre, rate = sy._match_drivers(cfg, m)
    total = 0.0
    for s in range(md.N_HEROES):
        h_vals = np.array([cfg.max_health])
        mass = np.array([1.0])
        dead = 0.0
        for k in range(n - 1):
            reborn = dead * p_r
            dead -= reborn
            if reborn > 0:
                at_full = h_vals == cfg.max_health
                if at_full.any():
                    mass = mass.copy()
                    mass[at_full] += reborn
                else:
                    h_vals = np.append(h_vals, cfg.max_health)
                    mass = np.append(mass, reborn)
            lam = sy._health_lam(cfg, pre[k, s], h_vals)
            die = mass * lam
            total += die.sum()
            dead += die.sum()
            mass = mass - die
            h_vals = sy._roll_health(cfg, h_vals, rate[k, s], dt)
            uniq, inv = np.unique(h_vals, return_inverse=True)
            if len(uniq) != len(h_vals):
                merged = np.zeros(len(uniq))
                np.add.at(merged, inv, mass)
                h_vals, mass = uniq, merged
            keep = mass > 1e-15
            if not keep.all():
                h_vals, mass = h_vals[keep], mass[keep]
    return float(total)


# ---------------------------------------------------------------------------
# Per-array model updates and serialization: the references for the model's
# flat parameter, gradient and moment buffers


def reference_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam over one parameter array at a time, in place on
    params' arrays and on the m and v lists of per-array moments; step is
    the 1-based count including this update."""
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for (_, p), (_, g), mi, vi in zip(params.arrays(), grads.arrays(), m, v):
        mi *= beta1
        mi += (1 - beta1) * g
        vi *= beta2
        vi += (1 - beta2) * np.square(g)
        p -= (lr * (mi / c1) / (np.sqrt(vi / c2) + eps)).astype(p.dtype, copy=False)


def reference_encode_checkpoint(params, stats, step=0):
    """Checkpoint bytes with the header, the layer table, the stats and then
    each weight and bias array packed on its own, in serialization order."""
    cfg = params.config
    parts = [struct.pack("<8sHBBIIIqQdd", mo.CHECKPOINT_MAGIC, mo.CHECKPOINT_VERSION,
                         ft.VARIANTS.index(cfg.variant), ("float32", "float64").index(cfg.dtype),
                         cfg.per_hero_count, cfg.roster_size, cfg.batch_size, cfg.seed,
                         step, cfg.learning_rate, cfg.window)]
    for widths in (cfg.shared_layers, cfg.final_layers):
        parts.append(struct.pack(f"<H{len(widths)}I", len(widths), *widths))
    parts.append(struct.pack("<I", stats.schema.per_hero_count))
    parts += [stats.mins.astype("<f8").tobytes(), stats.maxs.astype("<f8").tobytes()]
    le = "<f4" if cfg.dtype == "float32" else "<f8"
    parts += [arr.astype(le).tobytes() for _, arr in params.arrays()]
    body = b"".join(parts)
    return body + hashlib.blake2b(body, digest_size=8).digest()
