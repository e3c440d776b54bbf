"""Synthetic matches from a known stochastic hazard, with an exact oracle.

Heroes walk between random waypoints on a square map (or follow a
position-determined orbital flow); live health drains near enemies and
regenerates otherwise; visibility flips on when an enemy is in sight
range; a few towers per team sit on the map and may die mid-match. Each
tick, an alive hero dies with probability

    sigmoid(bias + w_h * (1 - health/max_health)
                 + w_e * nearby_enemies/5
                 + w_t * [alive enemy tower in range]
                 + w_v * trailing-10s visible fraction)

Death bookkeeping is layered on top of drivers that never react to it:

  * positions, visibility and towers evolve independently of deaths, so
    every non-health hazard term at every future tick is a plain function
    of recorded fields;
  * a dead hero shows health 0 and respawns with a memoryless (per-tick
    geometric) wait, at full health. Live health is therefore a
    deterministic roll of the recorded contact series from any known
    starting value, and "currently dead" is exactly "recorded health 0".

Under those rules the probability of dying inside a window, conditioned
on one frame, is closed-form: a survival product over the window's ticks
with the health term rolled forward from the frame (alive case), or that
product averaged over the geometric respawn tick (dead case). This is
what `bayes_scores` computes, and a Monte-Carlo re-simulation of the
death and respawn coins must agree with it up to sampling noise. No
gameplay realism is attempted; the generator exists to make learning
quality measurable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import match_data as md
from .dataset import downsample, label_frames
from .errors import ForeignMatch, InvalidConfig, SchemaViolation
from .evaluation import average_precision, pr_curve
from .util import spawn_rngs, write_lines

_TEAM_OF_SLOT = np.array([0] * 5 + [1] * 5, dtype=np.int8)
LIVE_HEALTH_FLOOR = 1.0  # an alive hero never displays 0 health


@dataclass(frozen=True)
class SynthConfig:
    n_matches: int = 250
    n_frames: int = 3000
    tick_interval: float = 1.0 / 30.0
    roster_size: int = 130
    map_size: float = 200.0
    movement: str = "waypoint"  # "waypoint" or "orbit" (velocity from position)
    move_speed: float = 2.0  # map units per second
    radial_amp: float = 2.0  # orbit mode: radial drift speed scale
    wave_lobes: int = 3  # orbit mode: angular lobes of the radial drift
    waypoint_hold_mean: float = 0.0  # waypoint mode: mean dwell seconds at a waypoint
    max_health: float = 1000.0
    damage_per_enemy: float = 250.0  # hp per second per nearby enemy
    regen: float = 80.0  # hp per second when no enemy is near
    enemy_radius: float = 16.0
    sight_radius: float = 28.0
    tower_radius: float = 12.0
    towers_per_team: int = 3
    tower_death_fraction: float = 0.5
    respawn_delay: float = 20.0  # MEAN of the memoryless respawn wait, seconds
    visibility_window: float = 10.0
    hazard_bias: float = -13.0
    hazard_low_health: float = 9.0
    hazard_enemies_near: float = 2.5
    hazard_enemy_tower: float = 0.75
    hazard_visibility: float = 0.75
    pause_count: int = 0
    pause_length_ticks: int = 0
    seed: int = 0


def validate_config(cfg: SynthConfig):
    rates = {
        "n_matches": cfg.n_matches, "n_frames": cfg.n_frames,
        "tick_interval": cfg.tick_interval, "map_size": cfg.map_size,
        "move_speed": cfg.move_speed, "waypoint_hold_mean": cfg.waypoint_hold_mean,
        "radial_amp": cfg.radial_amp, "wave_lobes": cfg.wave_lobes,
        "max_health": cfg.max_health,
        "damage_per_enemy": cfg.damage_per_enemy, "regen": cfg.regen,
        "enemy_radius": cfg.enemy_radius, "sight_radius": cfg.sight_radius,
        "tower_radius": cfg.tower_radius, "towers_per_team": cfg.towers_per_team,
        "tower_death_fraction": cfg.tower_death_fraction,
        "respawn_delay": cfg.respawn_delay, "visibility_window": cfg.visibility_window,
        "hazard_low_health": cfg.hazard_low_health,
        "hazard_enemies_near": cfg.hazard_enemies_near,
        "hazard_enemy_tower": cfg.hazard_enemy_tower,
        "hazard_visibility": cfg.hazard_visibility,
        "pause_count": cfg.pause_count, "pause_length_ticks": cfg.pause_length_ticks,
    }
    for name, v in rates.items():
        if v < 0:
            raise InvalidConfig(f"{name} must be >= 0, got {v}")
    if cfg.movement not in ("waypoint", "orbit"):
        raise InvalidConfig(f"movement must be 'waypoint' or 'orbit', got {cfg.movement!r}")
    if cfg.n_frames < 2:
        raise InvalidConfig("n_frames must be >= 2")
    if cfg.tick_interval <= 0:
        raise InvalidConfig("tick_interval must be > 0")
    if cfg.max_health <= LIVE_HEALTH_FLOOR:
        raise InvalidConfig(f"max_health must exceed {LIVE_HEALTH_FLOOR}")
    if cfg.roster_size < md.N_HEROES:
        raise InvalidConfig("roster_size must be at least 10 for a distinct draft")
    # per-tick death probability must stay <= 0.5 even with every driver maxed
    top = (cfg.hazard_bias + cfg.hazard_low_health + cfg.hazard_enemies_near
           + cfg.hazard_enemy_tower + cfg.hazard_visibility)
    if top > 0:
        raise InvalidConfig(
            f"hazard coefficients allow per-tick death probability > 0.5 "
            f"(max logit {top:g} > 0)")


def generator_hash(cfg: SynthConfig) -> str:
    """Short content hash of the config; embedded in generated match ids."""
    canon = ";".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=6).hexdigest()


def save_synth_sidecar(cfg: SynthConfig, path):
    lines = [f"generator_hash\t{generator_hash(cfg)}"]
    lines += [f"{f.name}\t{getattr(cfg, f.name)!r}" for f in fields(cfg)]
    write_lines(path, lines)


def _respawn_prob(cfg, dt):
    """Per-tick respawn probability; mean wait is respawn_delay seconds."""
    if cfg.respawn_delay <= 0:
        return 1.0
    return min(1.0, dt / cfg.respawn_delay)


def _trailing_mean(flags, window_ticks):
    """Per-tick mean of the last `window_ticks` entries (inclusive)."""
    x = flags.astype(np.float64)
    csum = np.cumsum(x, axis=0)
    n = len(x)
    idx = np.arange(n)
    lo = np.maximum(idx - window_ticks + 1, 0)
    width = idx - lo + 1
    base = np.where(lo[:, None] > 0, csum[np.maximum(lo - 1, 0)], 0.0)
    return (csum - base) / width[:, None]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


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


def _roll_health(cfg, h, rate, dt):
    """One tick of the live-health recurrence (shared by sim and oracle)."""
    return np.clip(h + rate * dt, LIVE_HEALTH_FLOOR, cfg.max_health)


def _health_lam(cfg, pre, h):
    return _sigmoid(pre + cfg.hazard_low_health * (1.0 - h / cfg.max_health))


def generate_match(cfg: SynthConfig, match_seed) -> md.MatchRecord:
    """Simulate one match; deterministic for a fixed (cfg, match_seed)."""
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


def _require_synth(cfg, m):
    tag = f"synth-{generator_hash(cfg)}-"
    if not m.match_id.startswith(tag):
        raise ForeignMatch(
            f"match {m.match_id!r} was not generated by this config (want prefix {tag!r})")
    if m.paused.any():
        raise SchemaViolation("oracle needs a pause-free record; strip pauses first")


def _match_drivers(cfg, m):
    pre = _nonhealth_logit(cfg, m.pos, m.visible, m.tower_team, m.tower_pos, m.tower_alive)
    rate = _contact_rate(cfg, m.pos)
    return pre, rate


def bayes_scores(cfg, m, window=5.0, indices=None):
    """Exact conditional death probability per (frame, slot), vectorized.

    Alive hero: one minus the survival product over the window's ticks,
    with the health hazard term rolled forward from the frame's recorded
    health along the recorded (death-independent) contact series. Dead
    hero: the same quantity averaged over the memoryless respawn tick,
    each respawn branch starting at full health.
    """
    _require_synth(cfg, m)
    n = m.n_frames
    idx = np.arange(n) if indices is None else np.asarray(indices, dtype=np.int64)
    t = m.game_time
    dt = m.tick_interval
    tf = t[idx]
    p_r = _respawn_prob(cfg, dt)
    pre, rate = _match_drivers(cfg, m)

    # window ticks are [f, b): every k with t_k + dt/2 <= t_f + window,
    # and the final tick never fires deaths
    b = np.searchsorted(t, tf + window - dt / 2.0, side="right")
    f = idx
    max_win = int((b - f).max()) if len(idx) else 0
    out = np.zeros((len(idx), md.N_HEROES))

    for s in range(md.N_HEROES):
        alive_f = m.alive[idx, s]

        rows = np.flatnonzero(alive_f)
        if rows.size:
            fr = f[rows]
            h = m.health[fr, s].copy()
            log_surv = np.zeros(len(rows))
            for o in range(max_win):
                g = fr + o
                live = (g < b[rows]) & (g < n - 1)
                if not live.any():
                    break
                gc = np.minimum(g, n - 1)
                lam = _health_lam(cfg, pre[gc, s], h)
                log_surv += np.where(live, np.log1p(-lam), 0.0)
                h = np.where(live, _roll_health(cfg, h, rate[gc, s], dt), h)
            out[rows, s] = 1.0 - np.exp(log_surv)

        rows = np.flatnonzero(~alive_f)
        if rows.size:
            fr = f[rows]
            n_r = len(rows)
            # branch r = respawn at offset r+1 (tick fr + r + 1), full health
            hb = np.full((n_r, max_win), cfg.max_health)
            log_surv = np.zeros((n_r, max_win))
            born = np.zeros((n_r, max_win), dtype=bool)
            for o in range(1, max_win):
                g = fr + o
                live = (g < b[rows]) & (g < n - 1)
                born[:, o - 1] |= live  # branch o-1 respawns at offset o
                gc = np.minimum(g, n - 1)
                active = born & live[:, None]
                lam = _health_lam(cfg, pre[gc, s][:, None], hb)
                log_surv += np.where(active, np.log1p(-lam), 0.0)
                hb = np.where(active, _roll_health(cfg, hb, rate[gc, s][:, None], dt), hb)
            offs = np.arange(1, max_win + 1)
            if p_r < 1.0:
                q = p_r * (1.0 - p_r) ** (offs - 1)
            else:
                q = (offs == 1).astype(np.float64)
            p_die = np.where(born, 1.0 - np.exp(log_surv), 0.0)
            out[rows, s] = (q[None, :] * p_die).sum(axis=1)
    return out


def bayes_ap(cfg, matches, window=5.0, period_ticks=4) -> float:
    """Average precision of the exact oracle on realized labels.

    Computed over the same downsampled (frame, hero) grid the trained
    model is evaluated on; this is the performance ceiling.
    """
    scores, labels = [], []
    for m in matches:
        _require_synth(cfg, m)
        idx = downsample(m, period_ticks)
        scores.append(bayes_scores(cfg, m, window=window, indices=idx).ravel())
        labels.append(label_frames(m, window=window)[idx].ravel())
    curve = pr_curve(np.concatenate(scores), np.concatenate(labels))
    return average_precision(curve)
