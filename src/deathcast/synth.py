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
import math
from dataclasses import dataclass, fields

import numpy as np

from . import match_data as md
from .dataset import downsample, label_frames
from .errors import ForeignMatch, InvalidConfig, SchemaViolation
from .evaluation import average_precision, pr_curve
from .features import _TEAM_OF_SLOT, _pairwise_dist
from .util import spawn_rngs, write_lines

_ENEMY = _TEAM_OF_SLOT[:, None] != _TEAM_OF_SLOT[None, :]  # (10, 10): opposite teams
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
    if cfg.pause_count > 0 and cfg.pause_length_ticks > 0 and cfg.n_frames < 3:
        raise InvalidConfig("pauses need n_frames >= 3: a pause follows a frame "
                            "strictly inside the match")
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


def _drivers(cfg, pos, dist, visible, tower_team, tower_pos, tower_alive):
    """(pre, rate) per tick and hero, both death-independent.

    pre is the hazard logit's bias + enemies + tower + visibility terms;
    rate is the live-health drift in hp/s: regen when no enemy is near,
    damage scaled by the number of nearby enemies otherwise. Everything
    here is a plain function of recorded position/visibility/tower fields
    (`dist` is `_pairwise_dist(pos)`), shared verbatim between the
    generator and the oracle.
    """
    n_near = ((dist < cfg.enemy_radius) & _ENEMY).sum(axis=2)

    if tower_team is not None and len(tower_team):
        tdx = pos[:, :, 0, None] - tower_pos[:, 0]
        tdy = pos[:, :, 1, None] - tower_pos[:, 1]
        td = np.sqrt(tdx * tdx + tdy * tdy)  # (n, 10, T)
        enemy_tower = tower_team[None, None, :] != _TEAM_OF_SLOT[None, :, None]
        in_range = (td < cfg.tower_radius) & enemy_tower & tower_alive[:, None, :]
        tower_flag = in_range.any(axis=2).astype(np.float64)
    else:
        tower_flag = np.zeros(pos.shape[:2])

    window_ticks = max(1, int(round(cfg.visibility_window / cfg.tick_interval)))
    vis_frac = _trailing_mean(visible, window_ticks)

    pre = (cfg.hazard_bias
           + cfg.hazard_enemies_near * (n_near / 5.0)
           + cfg.hazard_enemy_tower * tower_flag
           + cfg.hazard_visibility * vis_frac)
    rate = np.where(n_near == 0, cfg.regen, -cfg.damage_per_enemy * n_near)
    return pre, rate


def _roll_health(cfg, h, rate, dt):
    """One tick of the live-health recurrence (shared by sim and oracle)."""
    return np.clip(h + rate * dt, LIVE_HEALTH_FLOOR, cfg.max_health)


def _health_lam(cfg, pre, h):
    return _sigmoid(pre + cfg.hazard_low_health * (1.0 - h / cfg.max_health))


def _orbit_path(cfg, rng, n):
    """(n, 10, 2) positions of the orbital flow, whose velocity is a
    function of position alone."""
    dt = cfg.tick_interval
    center = cfg.map_size / 2.0
    r0 = rng.uniform(0.10 * cfg.map_size, 0.46 * cfg.map_size, size=md.N_HEROES)
    th0 = rng.uniform(0.0, 2.0 * np.pi, size=md.N_HEROES)
    pos = np.stack([center + r0 * np.cos(th0), center + r0 * np.sin(th0)], axis=1)
    r_lo, r_hi = 0.05 * cfg.map_size, 0.47 * cfg.map_size
    out = np.empty((n, md.N_HEROES, 2))
    for k in range(n):
        out[k] = pos
        rel = pos - center
        r = np.sqrt(rel[:, 0] ** 2 + rel[:, 1] ** 2)
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        theta = theta + cfg.move_speed / np.maximum(r, 1e-9) * dt
        r = np.clip(r + cfg.radial_amp * np.cos(cfg.wave_lobes * theta) * dt, r_lo, r_hi)
        pos = np.stack([center + r * np.cos(theta), center + r * np.sin(theta)], axis=1)
    return out


def _waypoint_path(cfg, rng, n):
    """(n, 10, 2) positions of heroes walking at move_speed to random
    waypoints, optionally dwelling at each for an exponential time.

    The walk runs in Python floats, tick by tick and hero by hero. A step
    is `d = sqrt(dx*dx + dy*dy)` then `p + step*dx/d`, which rounds the
    same as the same operations on arrays. At each tick the heroes whose
    dwell expired draw their next waypoints in one call, and then the
    heroes that arrived draw a dwell time (or a next waypoint) in one call,
    both in slot order.
    """
    h10, size, dt = md.N_HEROES, cfg.map_size, cfg.tick_interval
    hold_mean = cfg.waypoint_hold_mean
    step = cfg.move_speed * dt
    px, py = rng.uniform(0, size, size=(h10, 2)).T.tolist()
    wx, wy = rng.uniform(0, size, size=(h10, 2)).T.tolist()
    hold = [0.0] * h10
    dwelling = [False] * h10

    def walk_on(slots):
        draws = rng.uniform(0, size, size=(len(slots), 2)).tolist()
        for i, (x, y) in zip(slots, draws):
            wx[i], wy[i], dwelling[i] = x, y, False

    xs, ys = [], []
    for _ in range(n):
        xs += px
        ys += py
        if hold_mean > 0:
            expired = []
            for i in range(h10):
                if dwelling[i]:
                    hold[i] -= dt
                    if hold[i] <= 0:
                        expired.append(i)
            if expired:
                walk_on(expired)
        arrived = []
        for i in range(h10):
            if dwelling[i]:
                continue
            dx = wx[i] - px[i]
            dy = wy[i] - py[i]
            d = math.sqrt(dx * dx + dy * dy)
            if d <= step:
                px[i], py[i] = wx[i], wy[i]
                arrived.append(i)
            else:
                px[i] += step * dx / d
                py[i] += step * dy / d
        if arrived and hold_mean > 0:
            for i, t in zip(arrived, rng.exponential(hold_mean, size=len(arrived)).tolist()):
                hold[i], dwelling[i] = t, True
        elif arrived:
            walk_on(arrived)
    return np.stack([xs, ys], axis=-1).reshape(n, h10, 2)


def _life_and_death(cfg, pre, rate, rng):
    """(alive, recorded health, [(tick, slot) of each death]) of every hero.

    Tick order: respawn draw (dead heroes, full health on success), record
    the snapshot, death coin for alive heroes, then evolve live health.
    Both coin streams are pre-drawn so they never depend on outcomes, so no
    hero depends on another: each runs alone, one alive stretch at a time.
    A stretch starts at full health (tick 0 or a respawn), rolls live
    health in Python floats as `min(max(h + rate*dt, floor), max_health)`,
    which is `_roll_health`, takes its hazard in one `_health_lam` call,
    and ends at the first death coin under the hazard before the final
    tick. The next stretch starts at the first respawn coin under p_r
    after that death.
    """
    n, h10 = pre.shape
    dt = cfg.tick_interval
    u = rng.random((n, h10))  # death coins
    v = rng.random((n, h10))  # respawn coins
    p_r = _respawn_prob(cfg, dt)
    top = cfg.max_health
    alive = np.zeros((n, h10), dtype=bool)
    health = np.zeros((n, h10))
    deaths = []
    for s in range(h10):
        drift = (rate[:, s] * dt).tolist()
        respawns = np.flatnonzero(v[:, s] < p_r)
        a = 0
        while True:
            h = top
            hs = [h]
            for k in range(a, n - 1):
                h += drift[k]
                if h < LIVE_HEALTH_FLOOR:
                    h = LIVE_HEALTH_FLOOR
                elif h > top:
                    h = top
                hs.append(h)
            hs = np.array(hs)
            hits = np.flatnonzero(u[a:n - 1, s] < _health_lam(cfg, pre[a:n - 1, s], hs[:-1]))
            last = a + int(hits[0]) if hits.size else n - 1  # last alive tick
            alive[a:last + 1, s] = True
            health[a:last + 1, s] = hs[:last + 1 - a]
            if not hits.size:
                break
            deaths.append((last, s))
            j = int(np.searchsorted(respawns, last, side="right"))
            if j == len(respawns):
                break
            a = int(respawns[j])
    return alive, health, deaths


def _held(template, n):
    """A column that never changes over time: a read-only (n, ...) view
    that repeats one frame's template with stride 0."""
    return np.broadcast_to(template, (n, *template.shape))


def generate_match(cfg: SynthConfig, match_seed) -> md.MatchRecord:
    """Simulate one match; deterministic for a fixed (cfg, match_seed).

    The time-constant columns (abilities, item_cooldown, item_owned,
    max_health, max_mana) are read-only zero-stride views of one frame,
    unless pauses are spliced in.
    """
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
    item_owned = np.zeros((h10, md.N_TRACKED_ITEMS), dtype=bool)
    for s in range(h10):
        owned = rng_misc.choice(md.N_TRACKED_ITEMS, size=item_counts[s], replace=False)
        item_owned[s, owned] = True
    gold_rate = rng_misc.uniform(4.0, 8.0, size=h10)  # gold per second
    xp_rate = rng_misc.uniform(6.0, 12.0, size=h10)
    mana_phase = rng_misc.uniform(0.0, 2 * np.pi, size=h10)

    # --- movement: never reacts to deaths ---
    walk = _orbit_path if cfg.movement == "orbit" else _waypoint_path
    pos = walk(cfg, rng_move, n)
    dist = _pairwise_dist(pos)
    visible = ((dist < cfg.sight_radius) & _ENEMY).any(axis=2)
    tower_alive = times[:, None] < tower_death_time[None, :]
    pre, rate = _drivers(cfg, pos, dist, visible, tower_team, tower_pos, tower_alive)

    # --- health + death + respawn process ---
    alive, health, deaths = _life_and_death(cfg, pre, rate, rng_death)
    ks = np.array([k for k, _ in deaths], dtype=np.int64)
    ss = np.array([s for _, s in deaths], dtype=np.int64)
    death_time = times[ks] + dt / 2.0
    order = np.lexsort((ss, death_time))
    death_slot = ss.astype(np.int8)[order]
    death_time = death_time[order]

    # --- assemble record fields ---
    # the killer is the dying hero's nearest enemy; counts start a tick later
    killers = np.where(_ENEMY[ss], dist[ks, ss], np.inf).argmin(axis=1)
    deaths_cum = np.zeros((n, h10))
    kills_cum = np.zeros((n, h10))
    np.add.at(deaths_cum, (ks + 1, ss), 1.0)
    np.add.at(kills_cum, (ks + 1, killers), 1.0)
    deaths_cum = np.cumsum(deaths_cum, axis=0)
    kills_cum = np.cumsum(kills_cum, axis=0)

    mana = 300.0 * (0.5 + 0.5 * np.sin(2 * np.pi * times[:, None] / 45.0 + mana_phase))

    state = np.zeros((n, h10, md.N_STATE_ATTRS))
    state[:, :, 0:8] = base_attrs[None]
    state[:, :, 8] = mana
    state[:, :, 9] = 300.0
    state[:, :, 12] = 1.0 + np.floor(times[:, None] / 60.0)
    state[:, :, 13] = primary_attr[None]
    state[:, :, 14] = cfg.move_speed
    state[:, :, 15] = health
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

    abilities = np.zeros((h10, md.N_ABILITY_SLOTS, md.N_ABILITY_ATTRS))
    abilities[:, :4, 0] = 1.0

    cols = dict(
        tick=np.arange(n, dtype=np.int64), game_time=times,
        paused=np.zeros(n, dtype=bool),
        alive=alive, health=health, max_health=_held(np.full(h10, cfg.max_health), n),
        mana=mana, max_mana=_held(np.full(h10, 300.0), n), pos=pos, visible=visible,
        state=state, stats=stats, item_owned=_held(item_owned, n),
        item_cooldown=_held(np.zeros((h10, md.N_TRACKED_ITEMS)), n),
        abilities=_held(abilities, n), ability_count=np.full((n, h10), 4, dtype=np.int8),
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
    starts = rng.integers(1, n - 1, size=cfg.pause_count)
    copies = 1 + np.bincount(starts, minlength=n) * cfg.pause_length_ticks
    src = np.repeat(np.arange(n), copies)
    paused = np.ones(len(src), dtype=bool)
    paused[np.cumsum(copies) - copies] = False  # each frame's first copy
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
    return _drivers(cfg, m.pos, _pairwise_dist(m.pos), m.visible,
                    m.tower_team, m.tower_pos, m.tower_alive)


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
