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
from deathcast.errors import SchemaViolation
from deathcast.synth import (_TEAM_OF_SLOT, _health_lam, _respawn_prob, _roll_health,
                             _trailing_mean, generator_hash, validate_config)
from deathcast.util import seal, spawn_rngs


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
# The synthetic generator as it was before its scalar rewrite: per-tick numpy
# calls on the ten heroes, every column materialized per frame, and the
# pairwise hero distances recomputed by each driver. The package's
# generate_match and bayes_scores must reproduce it bit for bit.


def _nonhealth_logit(cfg, pos, visible, tower_team, tower_pos, tower_alive):
    """Death-independent hazard terms per tick: bias + enemies + tower + vis.

    Everything here is a plain function of recorded position/visibility/
    tower fields, shared verbatim between the generator and the oracle.
    """
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    enemy_mask = _TEAM_OF_SLOT[:, None] != _TEAM_OF_SLOT[None, :]
    near = (d < cfg.enemy_radius) & enemy_mask[None, :, :]
    enemies_near = near.sum(axis=2) / 5.0

    if tower_team is not None and len(tower_team):
        tdiff = pos[:, :, None, :] - tower_pos[None, None, :, :]
        td = np.sqrt(tdiff[..., 0] ** 2 + tdiff[..., 1] ** 2)  # (n, 10, T)
        enemy_tower = tower_team[None, None, :] != _TEAM_OF_SLOT[None, :, None]
        in_range = (td < cfg.tower_radius) & enemy_tower & tower_alive[:, None, :]
        tower_flag = in_range.any(axis=2).astype(np.float64)
    else:
        tower_flag = np.zeros(pos.shape[:2])

    window_ticks = max(1, int(round(cfg.visibility_window / cfg.tick_interval)))
    vis_frac = _trailing_mean(visible, window_ticks)

    return (cfg.hazard_bias
            + cfg.hazard_enemies_near * enemies_near
            + cfg.hazard_enemy_tower * tower_flag
            + cfg.hazard_visibility * vis_frac)


def _contact_rate(cfg, pos):
    """Per-tick live-health drift in hp/s: regen when alone, damage scaled
    by the number of nearby enemies otherwise. Death-independent."""
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    enemy_mask = _TEAM_OF_SLOT[:, None] != _TEAM_OF_SLOT[None, :]
    cnt = ((d < cfg.enemy_radius) & enemy_mask[None, :, :]).sum(axis=2)
    return np.where(cnt == 0, cfg.regen, -cfg.damage_per_enemy * cnt)


def reference_generate_match(cfg, match_seed):
    """synth.generate_match as numpy calls on the ten heroes at every tick;
    the package's form must give equal records and equal bytes."""
    validate_config(cfg)
    rng_move, rng_death, rng_misc = spawn_rngs((cfg.seed, match_seed), 3)
    n = cfg.n_frames
    dt = cfg.tick_interval
    times = np.arange(n, dtype=np.float64) * dt
    h10 = md.N_HEROES

    # --- fixed per-match draws (rng_misc, fixed order) ---
    hero_ids = np.sort(rng_misc.choice(cfg.roster_size, size=h10, replace=False))
    base_attrs = rng_misc.uniform(10.0, 30.0, size=(h10, 8))
    primary_attr = rng_misc.integers(0, 3, size=h10).astype(np.float64)
    damage = rng_misc.uniform(40.0, 90.0, size=h10)
    n_towers = 2 * cfg.towers_per_team
    tower_team = np.repeat(np.array([0, 1], dtype=np.int8), cfg.towers_per_team)
    tower_pos = np.zeros((n_towers, 2))
    for j in range(n_towers):
        lo = 0.05 if tower_team[j] == 0 else 0.5
        tower_pos[j] = rng_misc.uniform(lo * cfg.map_size, (lo + 0.45) * cfg.map_size, size=2)
    tower_dies = rng_misc.random(n_towers) < cfg.tower_death_fraction
    tower_death_time = np.where(
        tower_dies, rng_misc.uniform(0.3, 0.9, size=n_towers) * times[-1], np.inf)
    item_counts = rng_misc.integers(2, 5, size=h10)
    item_owned_const = np.zeros((h10, md.N_TRACKED_ITEMS), dtype=bool)
    for s in range(h10):
        owned = rng_misc.choice(md.N_TRACKED_ITEMS, size=item_counts[s], replace=False)
        item_owned_const[s, owned] = True
    gold_rate = rng_misc.uniform(4.0, 8.0, size=h10)  # gold per second
    xp_rate = rng_misc.uniform(6.0, 12.0, size=h10)
    mana_phase = rng_misc.uniform(0.0, 2 * np.pi, size=h10)

    # --- movement: never reacts to deaths ---
    pos_hist = np.zeros((n, h10, 2))
    center = cfg.map_size / 2.0
    if cfg.movement == "orbit":
        r0 = rng_move.uniform(0.10 * cfg.map_size, 0.46 * cfg.map_size, size=h10)
        th0 = rng_move.uniform(0.0, 2.0 * np.pi, size=h10)
        pos = np.stack([center + r0 * np.cos(th0), center + r0 * np.sin(th0)], axis=1)
    else:
        pos = rng_move.uniform(0, cfg.map_size, size=(h10, 2))
    wp = rng_move.uniform(0, cfg.map_size, size=(h10, 2))
    hold = np.zeros(h10)
    dwelling = np.zeros(h10, dtype=bool)
    step = cfg.move_speed * dt
    r_lo, r_hi = 0.05 * cfg.map_size, 0.47 * cfg.map_size
    for k in range(n):
        pos_hist[k] = pos
        if cfg.movement == "orbit":
            rel = pos - center
            r = np.sqrt(rel[:, 0] ** 2 + rel[:, 1] ** 2)
            theta = np.arctan2(rel[:, 1], rel[:, 0])
            theta = theta + cfg.move_speed / np.maximum(r, 1e-9) * dt
            r = np.clip(r + cfg.radial_amp * np.cos(cfg.wave_lobes * theta) * dt, r_lo, r_hi)
            pos = np.stack([center + r * np.cos(theta), center + r * np.sin(theta)], axis=1)
        else:
            if cfg.waypoint_hold_mean > 0:
                hold[dwelling] -= dt
                expired = dwelling & (hold <= 0)
                n_exp = int(expired.sum())
                if n_exp:
                    wp[expired] = rng_move.uniform(0, cfg.map_size, size=(n_exp, 2))
                    dwelling[expired] = False
            walking = ~dwelling
            delta = wp - pos
            dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
            arrive = walking & (dist <= step)
            n_arr = int(arrive.sum())
            pos = pos.copy()
            if n_arr:
                pos[arrive] = wp[arrive]
                if cfg.waypoint_hold_mean > 0:
                    hold[arrive] = rng_move.exponential(cfg.waypoint_hold_mean, size=n_arr)
                    dwelling[arrive] = True
                else:
                    wp[arrive] = rng_move.uniform(0, cfg.map_size, size=(n_arr, 2))
            go = walking & ~arrive
            pos[go] += step * delta[go] / dist[go, None]

    diff = pos_hist[:, :, None, :] - pos_hist[:, None, :, :]
    d_all = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    enemy_mask = _TEAM_OF_SLOT[:, None] != _TEAM_OF_SLOT[None, :]
    visible = ((d_all < cfg.sight_radius) & enemy_mask[None]).any(axis=2)
    tower_alive = times[:, None] < tower_death_time[None, :]
    pre = _nonhealth_logit(cfg, pos_hist, visible, tower_team, tower_pos, tower_alive)
    rate = _contact_rate(cfg, pos_hist)

    # --- health + death + respawn process ---
    # Tick order: respawn draw (dead heroes, full health on success), record
    # the snapshot, death coin for alive heroes, then evolve live health.
    # Both coin streams are pre-drawn so they never depend on outcomes.
    u = rng_death.random((n, h10))  # death coins
    v = rng_death.random((n, h10))  # respawn coins
    p_r = _respawn_prob(cfg, dt)
    alive = np.ones((n, h10), dtype=bool)
    health_rec = np.zeros((n, h10))
    cur_alive = np.ones(h10, dtype=bool)
    h = np.full(h10, cfg.max_health)
    deaths_per_hero = [[] for _ in range(h10)]  # (tick, time) pairs
    for k in range(n):
        reborn = ~cur_alive & (v[k] < p_r)
        cur_alive |= reborn
        h[reborn] = cfg.max_health
        alive[k] = cur_alive
        health_rec[k] = np.where(cur_alive, h, 0.0)
        if k < n - 1:  # the final tick fires no deaths
            lam_k = _health_lam(cfg, pre[k], h)
            die = cur_alive & (u[k] < lam_k)
            if die.any():
                tau = times[k] + dt / 2.0
                for s in np.flatnonzero(die):
                    deaths_per_hero[s].append((int(k), tau))
                cur_alive &= ~die
        h = np.where(cur_alive, _roll_health(cfg, h, rate[k], dt), h)

    death_slot, death_time = [], []
    for s in range(h10):
        for _, tau in deaths_per_hero[s]:
            death_slot.append(s)
            death_time.append(tau)
    order = np.lexsort((death_slot, death_time))
    death_slot = np.array(death_slot, dtype=np.int8)[order]
    death_time = np.array(death_time, dtype=np.float64)[order]

    # --- assemble record fields ---
    deaths_cum = np.zeros((n, h10))
    kills_cum = np.zeros((n, h10))
    for s in range(h10):
        enemies = np.flatnonzero(enemy_mask[s])
        for k, _tau in deaths_per_hero[s]:
            deaths_cum[k + 1:, s] += 1.0
            killer = enemies[np.argmin(d_all[k, s][enemies])]
            kills_cum[k + 1:, killer] += 1.0

    mana_max = np.full((n, h10), 300.0)
    mana = 300.0 * (0.5 + 0.5 * np.sin(2 * np.pi * times[:, None] / 45.0 + mana_phase))

    state = np.zeros((n, h10, md.N_STATE_ATTRS))
    state[:, :, 0:8] = base_attrs[None]
    state[:, :, 8] = mana
    state[:, :, 9] = mana_max
    state[:, :, 12] = 1.0 + np.floor(times[:, None] / 60.0)
    state[:, :, 13] = primary_attr[None]
    state[:, :, 14] = cfg.move_speed
    state[:, :, 15] = health_rec
    state[:, :, 16] = cfg.max_health
    state[:, :, 17] = damage[None] * 1.1
    state[:, :, 18] = damage[None] * 0.9
    state[:, :, 19] = (~alive).astype(np.float64)
    state[:, :, 20] = visible.astype(np.float64)

    stats = np.zeros((n, h10, md.N_STAT_ATTRS))
    stats[:, :, 2] = 1.0 + np.floor(times[:, None] / 60.0)
    stats[:, :, 3] = kills_cum
    stats[:, :, 4] = deaths_cum
    stats[:, :, md.GOLD_STAT_INDEX] = gold_rate[None] * times[:, None] + 120.0 * kills_cum
    stats[:, :, 14] = np.floor(0.8 * times[:, None])
    stats[:, :, 15] = xp_rate[None] * times[:, None]

    item_owned = np.broadcast_to(item_owned_const[None], (n, h10, md.N_TRACKED_ITEMS)).copy()
    item_cooldown = np.zeros((n, h10, md.N_TRACKED_ITEMS))
    abilities = np.zeros((n, h10, md.N_ABILITY_SLOTS, md.N_ABILITY_ATTRS))
    abilities[:, :, :4, 0] = 1.0
    ability_count = np.full((n, h10), 4, dtype=np.int8)

    cols = dict(
        tick=np.arange(n, dtype=np.int64), game_time=times,
        paused=np.zeros(n, dtype=bool),
        alive=alive, health=health_rec, max_health=np.full((n, h10), cfg.max_health),
        mana=mana, max_mana=mana_max, pos=pos_hist, visible=visible,
        state=state, stats=stats, item_owned=item_owned, item_cooldown=item_cooldown,
        abilities=abilities, ability_count=ability_count,
        tower_alive=tower_alive,
    )
    if cfg.pause_count > 0 and cfg.pause_length_ticks > 0:
        cols = _inject_pauses(cols, cfg, rng_misc)

    return md.MatchRecord(
        match_id=f"synth-{generator_hash(cfg)}-{int(match_seed)}",
        tick_interval=dt, roster_size=cfg.roster_size, hero_ids=hero_ids,
        tower_team=tower_team, tower_pos=tower_pos,
        death_slot=death_slot, death_time=death_time,
        **cols,
    )


def _inject_pauses(cols, cfg, rng):
    """Splice frozen-clock paused frames after random unpaused positions."""
    n = len(cols["tick"])
    starts = np.sort(rng.integers(1, n - 1, size=cfg.pause_count))
    src = []
    paused_flags = []
    for k in range(n):
        src.append(k)
        paused_flags.append(False)
        if k in starts:
            reps = int((starts == k).sum()) * cfg.pause_length_ticks
            src.extend([k] * reps)
            paused_flags.extend([True] * reps)
    src = np.array(src)
    paused = np.array(paused_flags)
    out = {}
    for name, arr in cols.items():
        if name == "tick":
            out[name] = np.arange(len(src), dtype=np.int64)
        elif name == "paused":
            out[name] = paused
        else:
            out[name] = arr[src]
    return out


def reference_match_drivers(cfg, m):
    """(pre, rate) of a record, each driver computing its own distances."""
    pre = _nonhealth_logit(cfg, m.pos, m.visible, m.tower_team, m.tower_pos, m.tower_alive)
    rate = _contact_rate(cfg, m.pos)
    return pre, rate


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


# ---------------------------------------------------------------------------
# Store record version 1, which ends at the match id: what stores ingested
# before the source digest hold


_V1_HEADER = struct.Struct("<4sHBBIIIIqd")


def reference_encode_match_v1(m):
    """The match as a sealed version 1 store record."""
    try:
        match_id = m.match_id.encode("utf-8")
        n_towers = len(m.tower_team) if m.has_towers else 0
        header = (m.has_towers, 0, len(match_id), m.n_frames, len(m.death_slot), n_towers,
                  m.roster_size, m.tick_interval)
        columns = [np.ascontiguousarray(getattr(m, name), dtype=dtype)
                   for name, dtype, _ in md._COLUMNS if getattr(m, name) is not None]
        return seal(_V1_HEADER, md.MATCH_MAGIC, 1, None, *header,
                    body=[*columns, match_id])
    except (UnicodeEncodeError, struct.error) as exc:
        raise SchemaViolation(f"match {m.match_id!r} does not fit a store record: {exc}") \
            from None
