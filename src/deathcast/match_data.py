"""Match time-series records and their line-delimited interchange format.

A match is one header line, one JSON object per tick frame, and a final
deaths line (see FORMAT below). Records are stored column-wise in numpy
arrays so feature extraction can run vectorized over frames; `TickFrame`
and `HeroSnapshot` are object views over those arrays.

FORMAT (UTF-8 text, one JSON object per line, optionally gzip-compressed):

    line 1   {"match_id": str, "tick_interval": float, "roster_size": int,
              "hero_ids": [10 ints]}
    line 2.. {"tick": int, "game_time": float, "paused": bool,
              "heroes": [10 hero objects], "towers": [tower objects]?}
    last     {"deaths": [{"slot": int, "time": float}, ...]}

    hero     {"slot", "hero_id", "alive", "health", "max_health", "mana",
              "max_mana", "pos_x", "pos_y", "visible_to_enemy",
              "state_attrs": [21 floats], "stat_attrs": [17 floats],
              "items": [[item_id, cooldown], ...], "abilities": [[6 floats] x k<=8]}
    tower    {"team": 0|1, "x": float, "y": float, "alive": bool}

The `towers` section is optional but must appear in every frame or in none,
and tower count/team/position must not change across frames (only `alive`
may). Death times are full-resolution seconds, independent of frame times.

STORE RECORD (binary, framed by util.seal without a variant code): the
header below, then every column as a little-endian array in `_COLUMNS`
order, then the match id in UTF-8. `ingest` writes one per match so later
stages decode columns instead of parsing text; `load_match` tells the two
forms apart by their leading magic bytes.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ChecksumMismatch, EmptyMatch, MalformedRecord, SchemaViolation
from .util import seal, unseal, write_atomic

N_HEROES = 10
TEAM_A_SLOTS = (0, 1, 2, 3, 4)
TEAM_B_SLOTS = (5, 6, 7, 8, 9)

DEFAULT_TICK_INTERVAL = 1.0 / 30.0
DEFAULT_ROSTER_SIZE = 130

# Per-hero state attributes carried as an opaque ordered vector.
STATE_ATTR_NAMES = (
    "agility",
    "agility_total",
    "intellect",
    "intellect_total",
    "strength",
    "strength_total",
    "magical_resistance",
    "physical_armor",
    "mana",
    "max_mana",
    "taunt_cooldown",
    "bkb_charges_used",
    "ability_points",
    "primary_attribute",
    "move_speed",
    "health",
    "max_health",
    "damage_max",
    "damage_min",
    "life_state",
    "visible_by_enemy_team",
)

# Cumulative per-hero match statistics, also opaque to the parser.
STAT_ATTR_NAMES = (
    "first_blood_claimed",
    "team_fight_participation",
    "level",
    "kills",
    "deaths",
    "assists",
    "observer_wards_placed",
    "sentry_wards_placed",
    "creeps_stacked",
    "camps_stacked",
    "rune_pickups",
    "tower_kills",
    "roshan_kills",
    "total_earned_gold",
    "last_hit_count",
    "total_earned_xp",
    "stuns",
)
GOLD_STAT_INDEX = STAT_ATTR_NAMES.index("total_earned_gold")

# The tracked activatable items; an item id is an index into this tuple.
TRACKED_ITEM_NAMES = (
    "blink_dagger",
    "black_king_bar",
    "magic_wand",
    "quelling_blade",
    "power_treads",
    "hand_of_midas",
    "hurricane_pike",
    "force_staff",
    "abyssal_blade",
    "mask_of_madness",
    "nullifier",
    "travel_boots",
    "dagon_5",
    "lotus_orb",
    "tp_scroll",
    "smoke_of_deceit",
    "clarity",
)

ABILITY_ATTR_NAMES = ("level", "cast_range", "mana_cost", "cooldown", "activated", "toggle_state")

N_STATE_ATTRS = len(STATE_ATTR_NAMES)
N_STAT_ATTRS = len(STAT_ATTR_NAMES)
N_TRACKED_ITEMS = len(TRACKED_ITEM_NAMES)
N_ABILITY_SLOTS = 8
N_ABILITY_ATTRS = len(ABILITY_ATTR_NAMES)


@dataclass(frozen=True)
class HeroSnapshot:
    """One hero's attributes at one tick (an object view, not the storage)."""

    slot: int
    hero_id: int
    alive: bool
    health: float
    max_health: float
    mana: float
    max_mana: float
    pos_x: float
    pos_y: float
    visible_to_enemy: bool
    state_attrs: tuple
    stat_attrs: tuple
    items: tuple  # ((item_id, cooldown_remaining), ...) sorted by item_id
    abilities: tuple  # up to 8 entries of 6 attributes each


@dataclass(frozen=True)
class Tower:
    team: int
    x: float
    y: float
    alive: bool


@dataclass(frozen=True)
class TickFrame:
    tick: int
    game_time: float
    paused: bool
    heroes: tuple  # exactly one HeroSnapshot per slot, slot order
    towers: tuple | None = None


@dataclass(frozen=True)
class DeathEvent:
    slot: int
    time: float


@dataclass(frozen=True)
class Violation:
    location: str
    message: str

    def __str__(self):
        return f"{self.location}: {self.message}"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, location, message):
        self.violations.append(Violation(location, message))

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


class MatchRecord:
    """One match: column-wise frame arrays plus exact death events.

    Immutable by convention after construction; nothing in the package
    mutates a record in place, so instances are safe to share between
    threads.
    """

    def __init__(self, match_id, tick_interval, roster_size, hero_ids,
                 tick, game_time, paused,
                 alive, health, max_health, mana, max_mana, pos, visible,
                 state, stats, item_owned, item_cooldown, abilities, ability_count,
                 tower_team, tower_pos, tower_alive,
                 death_slot, death_time):
        self.match_id = str(match_id)
        self.tick_interval = float(tick_interval)
        self.roster_size = int(roster_size)
        self.hero_ids = np.asarray(hero_ids, dtype=np.int32)
        self.tick = np.asarray(tick, dtype=np.int64)
        self.game_time = np.asarray(game_time, dtype=np.float64)
        self.paused = np.asarray(paused, dtype=bool)
        self.alive = np.asarray(alive, dtype=bool)
        self.health = np.asarray(health, dtype=np.float64)
        self.max_health = np.asarray(max_health, dtype=np.float64)
        self.mana = np.asarray(mana, dtype=np.float64)
        self.max_mana = np.asarray(max_mana, dtype=np.float64)
        self.pos = np.asarray(pos, dtype=np.float64)
        self.visible = np.asarray(visible, dtype=bool)
        self.state = np.asarray(state, dtype=np.float64)
        self.stats = np.asarray(stats, dtype=np.float64)
        self.item_owned = np.asarray(item_owned, dtype=bool)
        self.item_cooldown = np.asarray(item_cooldown, dtype=np.float64)
        self.abilities = np.asarray(abilities, dtype=np.float64)
        self.ability_count = np.asarray(ability_count, dtype=np.int8)
        self.tower_team = None if tower_team is None else np.asarray(tower_team, dtype=np.int8)
        self.tower_pos = None if tower_pos is None else np.asarray(tower_pos, dtype=np.float64)
        self.tower_alive = None if tower_alive is None else np.asarray(tower_alive, dtype=bool)
        self.death_slot = np.asarray(death_slot, dtype=np.int8)
        self.death_time = np.asarray(death_time, dtype=np.float64)

    @property
    def n_frames(self):
        return int(self.tick.shape[0])

    @property
    def has_towers(self):
        return self.tower_team is not None

    @property
    def deaths(self):
        return tuple(DeathEvent(int(s), float(t))
                     for s, t in zip(self.death_slot, self.death_time))

    def deaths_for_slot(self, slot):
        """Death times of one slot, in record order (chronological)."""
        return self.death_time[self.death_slot == slot]

    def frame(self, i):
        """Materialize frame i as a TickFrame of HeroSnapshots."""
        n = self.n_frames
        if not 0 <= i < n:
            raise IndexError(f"frame index {i} out of range (0..{n - 1})")
        heroes = []
        for s in range(N_HEROES):
            owned = np.flatnonzero(self.item_owned[i, s])
            items = tuple((int(j), float(self.item_cooldown[i, s, j])) for j in owned)
            k = int(self.ability_count[i, s])
            abil = tuple(tuple(float(v) for v in self.abilities[i, s, a]) for a in range(k))
            heroes.append(HeroSnapshot(
                slot=s,
                hero_id=int(self.hero_ids[s]),
                alive=bool(self.alive[i, s]),
                health=float(self.health[i, s]),
                max_health=float(self.max_health[i, s]),
                mana=float(self.mana[i, s]),
                max_mana=float(self.max_mana[i, s]),
                pos_x=float(self.pos[i, s, 0]),
                pos_y=float(self.pos[i, s, 1]),
                visible_to_enemy=bool(self.visible[i, s]),
                state_attrs=tuple(float(v) for v in self.state[i, s]),
                stat_attrs=tuple(float(v) for v in self.stats[i, s]),
                items=items,
                abilities=abil,
            ))
        towers = None
        if self.has_towers:
            towers = tuple(Tower(int(t), float(p[0]), float(p[1]), bool(a))
                           for t, p, a in zip(self.tower_team, self.tower_pos, self.tower_alive[i]))
        return TickFrame(tick=int(self.tick[i]), game_time=float(self.game_time[i]),
                         paused=bool(self.paused[i]), heroes=tuple(heroes), towers=towers)

    def __eq__(self, other):
        if not isinstance(other, MatchRecord):
            return NotImplemented
        if (self.match_id, self.tick_interval, self.roster_size) != \
           (other.match_id, other.tick_interval, other.roster_size):
            return False
        if self.has_towers != other.has_towers:
            return False
        pairs = [
            (self.hero_ids, other.hero_ids), (self.tick, other.tick),
            (self.game_time, other.game_time), (self.paused, other.paused),
            (self.alive, other.alive), (self.health, other.health),
            (self.max_health, other.max_health), (self.mana, other.mana),
            (self.max_mana, other.max_mana), (self.pos, other.pos),
            (self.visible, other.visible), (self.state, other.state),
            (self.stats, other.stats), (self.item_owned, other.item_owned),
            (self.item_cooldown, other.item_cooldown), (self.abilities, other.abilities),
            (self.ability_count, other.ability_count),
            (self.death_slot, other.death_slot), (self.death_time, other.death_time),
        ]
        if self.has_towers:
            pairs += [(self.tower_team, other.tower_team), (self.tower_pos, other.tower_pos),
                      (self.tower_alive, other.tower_alive)]
        return all(np.array_equal(a, b) for a, b in pairs)

    __hash__ = None

    @classmethod
    def from_frames(cls, match_id, frames, deaths=(),
                    tick_interval=DEFAULT_TICK_INTERVAL, roster_size=DEFAULT_ROSTER_SIZE):
        """Build the column store from TickFrame objects (test/demo path)."""
        frames = list(frames)
        if not frames:
            raise EmptyMatch(f"match {match_id}: zero frames")
        n = len(frames)
        cols = _empty_columns(n)
        hero_ids = None
        towers0 = frames[0].towers
        has_towers = towers0 is not None
        tower_team = tower_pos = tower_alive = None
        if has_towers:
            tower_team = np.array([t.team for t in towers0], dtype=np.int8)
            tower_pos = np.array([[t.x, t.y] for t in towers0], dtype=np.float64)
            tower_alive = np.zeros((n, len(towers0)), dtype=bool)
        for i, fr in enumerate(frames):
            if len(fr.heroes) != N_HEROES:
                raise SchemaViolation(f"frame {i}: expected {N_HEROES} heroes, got {len(fr.heroes)}")
            slots = sorted(h.slot for h in fr.heroes)
            if slots != list(range(N_HEROES)):
                raise SchemaViolation(f"frame {i}: hero slots are not a permutation of 0..9")
            if (fr.towers is not None) != has_towers:
                raise SchemaViolation(f"frame {i}: towers section must be present in all frames or none")
            cols["tick"][i] = fr.tick
            cols["game_time"][i] = fr.game_time
            cols["paused"][i] = fr.paused
            ids = np.zeros(N_HEROES, dtype=np.int32)
            for h in fr.heroes:
                _fill_hero(cols, i, h, ids)
            if hero_ids is None:
                hero_ids = ids
            elif not np.array_equal(hero_ids, ids):
                raise SchemaViolation(f"frame {i}: hero_id changed for a slot mid-match")
            if has_towers:
                if len(fr.towers) != len(towers0):
                    raise SchemaViolation(f"frame {i}: tower count changed mid-match")
                for j, tw in enumerate(fr.towers):
                    if tw.team != int(tower_team[j]) or (tw.x, tw.y) != (float(tower_pos[j, 0]), float(tower_pos[j, 1])):
                        raise SchemaViolation(f"frame {i}: tower {j} identity changed mid-match")
                    tower_alive[i, j] = tw.alive
        deaths = list(deaths)
        return cls(
            match_id=match_id, tick_interval=tick_interval, roster_size=roster_size,
            hero_ids=hero_ids,
            tick=cols["tick"], game_time=cols["game_time"], paused=cols["paused"],
            alive=cols["alive"], health=cols["health"], max_health=cols["max_health"],
            mana=cols["mana"], max_mana=cols["max_mana"], pos=cols["pos"], visible=cols["visible"],
            state=cols["state"], stats=cols["stats"],
            item_owned=cols["item_owned"], item_cooldown=cols["item_cooldown"],
            abilities=cols["abilities"], ability_count=cols["ability_count"],
            tower_team=tower_team, tower_pos=tower_pos, tower_alive=tower_alive,
            death_slot=np.array([d.slot for d in deaths], dtype=np.int8),
            death_time=np.array([d.time for d in deaths], dtype=np.float64),
        )


def _empty_columns(n):
    return {
        "tick": np.zeros(n, dtype=np.int64),
        "game_time": np.zeros(n, dtype=np.float64),
        "paused": np.zeros(n, dtype=bool),
        "alive": np.zeros((n, N_HEROES), dtype=bool),
        "health": np.zeros((n, N_HEROES), dtype=np.float64),
        "max_health": np.zeros((n, N_HEROES), dtype=np.float64),
        "mana": np.zeros((n, N_HEROES), dtype=np.float64),
        "max_mana": np.zeros((n, N_HEROES), dtype=np.float64),
        "pos": np.zeros((n, N_HEROES, 2), dtype=np.float64),
        "visible": np.zeros((n, N_HEROES), dtype=bool),
        "state": np.zeros((n, N_HEROES, N_STATE_ATTRS), dtype=np.float64),
        "stats": np.zeros((n, N_HEROES, N_STAT_ATTRS), dtype=np.float64),
        "item_owned": np.zeros((n, N_HEROES, N_TRACKED_ITEMS), dtype=bool),
        "item_cooldown": np.zeros((n, N_HEROES, N_TRACKED_ITEMS), dtype=np.float64),
        "abilities": np.zeros((n, N_HEROES, N_ABILITY_SLOTS, N_ABILITY_ATTRS), dtype=np.float64),
        "ability_count": np.zeros((n, N_HEROES), dtype=np.int8),
    }


def _fill_hero(cols, i, h, ids):
    s = h.slot
    ids[s] = h.hero_id
    cols["alive"][i, s] = h.alive
    cols["health"][i, s] = h.health
    cols["max_health"][i, s] = h.max_health
    cols["mana"][i, s] = h.mana
    cols["max_mana"][i, s] = h.max_mana
    cols["pos"][i, s, 0] = h.pos_x
    cols["pos"][i, s, 1] = h.pos_y
    cols["visible"][i, s] = h.visible_to_enemy
    if len(h.state_attrs) != N_STATE_ATTRS:
        raise SchemaViolation(f"frame {i}: slot {s}: state_attrs must have {N_STATE_ATTRS} entries")
    if len(h.stat_attrs) != N_STAT_ATTRS:
        raise SchemaViolation(f"frame {i}: slot {s}: stat_attrs must have {N_STAT_ATTRS} entries")
    cols["state"][i, s] = h.state_attrs
    cols["stats"][i, s] = h.stat_attrs
    seen = set()
    for item_id, cd in h.items:
        if not 0 <= item_id < N_TRACKED_ITEMS:
            raise SchemaViolation(f"frame {i}: slot {s}: unknown item id {item_id}")
        if item_id in seen:
            raise SchemaViolation(f"frame {i}: slot {s}: duplicate item id {item_id}")
        seen.add(item_id)
        cols["item_owned"][i, s, item_id] = True
        cols["item_cooldown"][i, s, item_id] = cd
    if len(h.abilities) > N_ABILITY_SLOTS:
        raise SchemaViolation(f"frame {i}: slot {s}: more than {N_ABILITY_SLOTS} abilities")
    cols["ability_count"][i, s] = len(h.abilities)
    for a, attrs in enumerate(h.abilities):
        if len(attrs) != N_ABILITY_ATTRS:
            raise SchemaViolation(f"frame {i}: slot {s}: ability {a} must have {N_ABILITY_ATTRS} attributes")
        cols["abilities"][i, s, a] = attrs


# ---------------------------------------------------------------------------
# Parsing


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token!r} is not allowed")


def _loads(line, line_no):
    try:
        return json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        raise MalformedRecord(line_no, str(exc)) from None


def _want(obj, key, kinds, where):
    if key not in obj:
        raise SchemaViolation(f"{where}: missing field {key!r}")
    val = obj[key]
    if kinds is bool:
        if not isinstance(val, bool):
            raise SchemaViolation(f"{where}: field {key!r} must be a boolean")
        return val
    if kinds is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise SchemaViolation(f"{where}: field {key!r} must be an integer")
        return val
    if kinds is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise SchemaViolation(f"{where}: field {key!r} must be a number")
        return float(val)
    if kinds is list:
        if not isinstance(val, list):
            raise SchemaViolation(f"{where}: field {key!r} must be an array")
        return val
    if kinds is str:
        if not isinstance(val, str):
            raise SchemaViolation(f"{where}: field {key!r} must be a string")
        return val
    raise AssertionError(kinds)


def _float_vector(val, length, where):
    if not isinstance(val, list) or len(val) != length:
        raise SchemaViolation(f"{where}: expected {length} numbers")
    out = []
    for v in val:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaViolation(f"{where}: expected numbers only")
        out.append(float(v))
    return out


def parse_match(source) -> MatchRecord:
    """Parse one match from bytes / a binary stream (gzip accepted).

    Raises MalformedRecord for broken lines, SchemaViolation for contract
    breaches, EmptyMatch when no frames are present. The returned record
    satisfies every type invariant (validate_match on it is empty).
    """
    data = source.read() if hasattr(source, "read") else source
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_match wants bytes or a binary stream")
    data = bytes(data)
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except OSError as exc:
            raise MalformedRecord(0, f"bad gzip stream: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(0, f"not valid UTF-8: {exc}") from None

    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(lines) < 2:
        raise MalformedRecord(len(lines), "expected a header line and a deaths line")

    head_no, head_ln = lines[0]
    head = _loads(head_ln, head_no)
    if not isinstance(head, dict) or set(head) != {"match_id", "tick_interval", "roster_size", "hero_ids"}:
        raise SchemaViolation("header: expected exactly match_id, tick_interval, roster_size, hero_ids")
    match_id = _want(head, "match_id", str, "header")
    tick_interval = _want(head, "tick_interval", float, "header")
    roster_size = _want(head, "roster_size", int, "header")
    hero_ids_raw = _want(head, "hero_ids", list, "header")
    if len(hero_ids_raw) != N_HEROES:
        raise SchemaViolation("header: hero_ids must list 10 ids")
    hero_ids = np.zeros(N_HEROES, dtype=np.int32)
    for s, v in enumerate(hero_ids_raw):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaViolation("header: hero_ids must be integers")
        hero_ids[s] = v

    tail_no, tail_ln = lines[-1]
    tail = _loads(tail_ln, tail_no)
    if not isinstance(tail, dict) or set(tail) != {"deaths"}:
        raise SchemaViolation("deaths line: expected exactly one field 'deaths'")
    deaths_raw = _want(tail, "deaths", list, "deaths line")
    death_slot = np.zeros(len(deaths_raw), dtype=np.int8)
    death_time = np.zeros(len(deaths_raw), dtype=np.float64)
    for j, d in enumerate(deaths_raw):
        if not isinstance(d, dict) or set(d) != {"slot", "time"}:
            raise SchemaViolation(f"death {j}: expected exactly slot, time")
        death_slot[j] = _want(d, "slot", int, f"death {j}")
        death_time[j] = _want(d, "time", float, f"death {j}")
        if not 0 <= death_slot[j] < N_HEROES:
            raise SchemaViolation(f"death {j}: slot out of range")

    frame_lines = lines[1:-1]
    n = len(frame_lines)
    if n == 0:
        raise EmptyMatch(f"match {match_id}: zero frames")

    cols = _empty_columns(n)
    tower_team = tower_pos = tower_alive = None
    has_towers = None
    frame_keys = {"tick", "game_time", "paused", "heroes"}
    hero_keys = {"slot", "hero_id", "alive", "health", "max_health", "mana", "max_mana",
                 "pos_x", "pos_y", "visible_to_enemy", "state_attrs", "stat_attrs",
                 "items", "abilities"}
    scratch_ids = np.zeros(N_HEROES, dtype=np.int32)
    for i, (line_no, ln) in enumerate(frame_lines):
        obj = _loads(ln, line_no)
        where = f"frame {i}"
        if not isinstance(obj, dict):
            raise SchemaViolation(f"{where}: expected an object")
        extra = set(obj) - frame_keys - {"towers"}
        if extra or not frame_keys <= set(obj):
            raise SchemaViolation(f"{where}: fields must be tick, game_time, paused, heroes[, towers]")
        cols["tick"][i] = _want(obj, "tick", int, where)
        cols["game_time"][i] = _want(obj, "game_time", float, where)
        cols["paused"][i] = _want(obj, "paused", bool, where)
        heroes = _want(obj, "heroes", list, where)
        if len(heroes) != N_HEROES:
            raise SchemaViolation(f"{where}: expected {N_HEROES} heroes, got {len(heroes)}")
        seen_slots = set()
        for h in heroes:
            if not isinstance(h, dict):
                raise SchemaViolation(f"{where}: hero entries must be objects")
            if set(h) != hero_keys:
                missing = hero_keys - set(h)
                extra = set(h) - hero_keys
                parts = []
                if missing:
                    parts.append(f"missing {sorted(missing)}")
                if extra:
                    parts.append(f"unknown {sorted(extra)}")
                raise SchemaViolation(f"{where}: hero object fields: {'; '.join(parts)}")
            s = _want(h, "slot", int, where)
            if not 0 <= s < N_HEROES or s in seen_slots:
                raise SchemaViolation(f"{where}: hero slots are not a permutation of 0..9")
            seen_slots.add(s)
            hw = f"{where}: slot {s}"
            hid = _want(h, "hero_id", int, hw)
            if hid != int(hero_ids[s]):
                raise SchemaViolation(f"{hw}: hero_id {hid} differs from header {int(hero_ids[s])}")
            items_raw = _want(h, "items", list, hw)
            items = []
            for entry in items_raw:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SchemaViolation(f"{hw}: item entries must be [id, cooldown] pairs")
                iid, cd = entry
                if isinstance(iid, bool) or not isinstance(iid, int):
                    raise SchemaViolation(f"{hw}: item id must be an integer")
                if isinstance(cd, bool) or not isinstance(cd, (int, float)):
                    raise SchemaViolation(f"{hw}: item cooldown must be a number")
                items.append((iid, float(cd)))
            abil_raw = _want(h, "abilities", list, hw)
            abil = tuple(_float_vector(a, N_ABILITY_ATTRS, f"{hw}: ability {k}")
                         for k, a in enumerate(abil_raw))
            snap = HeroSnapshot(
                slot=s, hero_id=hid,
                alive=_want(h, "alive", bool, hw),
                health=_want(h, "health", float, hw),
                max_health=_want(h, "max_health", float, hw),
                mana=_want(h, "mana", float, hw),
                max_mana=_want(h, "max_mana", float, hw),
                pos_x=_want(h, "pos_x", float, hw),
                pos_y=_want(h, "pos_y", float, hw),
                visible_to_enemy=_want(h, "visible_to_enemy", bool, hw),
                state_attrs=tuple(_float_vector(h["state_attrs"], N_STATE_ATTRS, f"{hw}: state_attrs")),
                stat_attrs=tuple(_float_vector(h["stat_attrs"], N_STAT_ATTRS, f"{hw}: stat_attrs")),
                items=tuple(items), abilities=abil,
            )
            _fill_hero(cols, i, snap, scratch_ids)
        frame_towers = obj.get("towers")
        if has_towers is None:
            has_towers = frame_towers is not None
            if has_towers:
                tower_team = np.zeros(len(frame_towers), dtype=np.int8)
                tower_pos = np.zeros((len(frame_towers), 2), dtype=np.float64)
                tower_alive = np.zeros((n, len(frame_towers)), dtype=bool)
        if (frame_towers is not None) != has_towers:
            raise SchemaViolation(f"{where}: towers section must be present in all frames or none")
        if has_towers:
            if len(frame_towers) != len(tower_team):
                raise SchemaViolation(f"{where}: tower count changed mid-match")
            for j, tw in enumerate(frame_towers):
                if not isinstance(tw, dict) or set(tw) != {"team", "x", "y", "alive"}:
                    raise SchemaViolation(f"{where}: tower {j}: expected team, x, y, alive")
                team = _want(tw, "team", int, f"{where}: tower {j}")
                x = _want(tw, "x", float, f"{where}: tower {j}")
                y = _want(tw, "y", float, f"{where}: tower {j}")
                al = _want(tw, "alive", bool, f"{where}: tower {j}")
                if team not in (0, 1):
                    raise SchemaViolation(f"{where}: tower {j}: team must be 0 or 1")
                if i == 0:
                    tower_team[j] = team
                    tower_pos[j] = (x, y)
                elif team != int(tower_team[j]) or (x, y) != (float(tower_pos[j, 0]), float(tower_pos[j, 1])):
                    raise SchemaViolation(f"{where}: tower {j} identity changed mid-match")
                tower_alive[i, j] = al

    m = MatchRecord(
        match_id=match_id, tick_interval=tick_interval, roster_size=roster_size,
        hero_ids=hero_ids,
        tick=cols["tick"], game_time=cols["game_time"], paused=cols["paused"],
        alive=cols["alive"], health=cols["health"], max_health=cols["max_health"],
        mana=cols["mana"], max_mana=cols["max_mana"], pos=cols["pos"], visible=cols["visible"],
        state=cols["state"], stats=cols["stats"],
        item_owned=cols["item_owned"], item_cooldown=cols["item_cooldown"],
        abilities=cols["abilities"], ability_count=cols["ability_count"],
        tower_team=tower_team, tower_pos=tower_pos, tower_alive=tower_alive,
        death_slot=death_slot, death_time=death_time,
    )
    return _validated(m)


def _validated(m):
    report = validate_match(m)
    if not report.ok:
        raise SchemaViolation(f"invariant breach: {report.violations[0]}")
    return m


# ---------------------------------------------------------------------------
# Writing


def _hero_obj(m, i, s):
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


def write_match(m: MatchRecord) -> bytes:
    """Serialize a record to the canonical line-delimited byte form.

    Deterministic: two writes of the same record are byte-identical, and
    parse_match(write_match(m)) == m field for field.
    """
    out = io.StringIO()
    # json.dumps runs the C encoder; json.dump streams through the Python one
    dump = lambda obj: out.write(json.dumps(obj, separators=(",", ":")))  # noqa: E731
    dump({"match_id": m.match_id, "tick_interval": m.tick_interval,
          "roster_size": m.roster_size, "hero_ids": m.hero_ids.tolist()})
    out.write("\n")
    for i in range(m.n_frames):
        obj = {
            "tick": int(m.tick[i]),
            "game_time": float(m.game_time[i]),
            "paused": bool(m.paused[i]),
            "heroes": [_hero_obj(m, i, s) for s in range(N_HEROES)],
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


def save_match(m: MatchRecord, path, compress=None):
    """Write to a file; compress defaults to the path's .gz suffix.

    The gzip stream is written with mtime=0 so output stays byte-stable.
    """
    path = str(path)
    if compress is None:
        compress = path.endswith(".gz")
    raw = write_match(m)
    if compress:
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
            gz.write(raw)
        raw = buf.getvalue()
    write_atomic(path, raw)


# ---------------------------------------------------------------------------
# Store records

MATCH_MAGIC = b"DMR1"
MATCH_VERSION = 1
# magic, version, has_towers, pad, match id bytes, frames, deaths, towers,
# roster_size, tick_interval
_HEADER = struct.Struct("<4sHBBIIIIqd")

# (attribute, dtype, shape): a string in a shape is a header count. The
# 8-byte columns come first so that every column after the 40-byte header
# starts aligned.
_COLUMNS = (
    ("game_time", "<f8", ("frames",)),
    ("health", "<f8", ("frames", N_HEROES)),
    ("max_health", "<f8", ("frames", N_HEROES)),
    ("mana", "<f8", ("frames", N_HEROES)),
    ("max_mana", "<f8", ("frames", N_HEROES)),
    ("pos", "<f8", ("frames", N_HEROES, 2)),
    ("state", "<f8", ("frames", N_HEROES, N_STATE_ATTRS)),
    ("stats", "<f8", ("frames", N_HEROES, N_STAT_ATTRS)),
    ("item_cooldown", "<f8", ("frames", N_HEROES, N_TRACKED_ITEMS)),
    ("abilities", "<f8", ("frames", N_HEROES, N_ABILITY_SLOTS, N_ABILITY_ATTRS)),
    ("tower_pos", "<f8", ("towers", 2)),
    ("death_time", "<f8", ("deaths",)),
    ("tick", "<i8", ("frames",)),
    ("hero_ids", "<i4", (N_HEROES,)),
    ("paused", "|b1", ("frames",)),
    ("alive", "|b1", ("frames", N_HEROES)),
    ("visible", "|b1", ("frames", N_HEROES)),
    ("item_owned", "|b1", ("frames", N_HEROES, N_TRACKED_ITEMS)),
    ("ability_count", "|i1", ("frames", N_HEROES)),
    ("tower_team", "|i1", ("towers",)),
    ("tower_alive", "|b1", ("frames", "towers")),
    ("death_slot", "|i1", ("deaths",)),
)


def encode_match(m: MatchRecord) -> bytes:
    """The match as a sealed store record; decode_match inverts it exactly."""
    try:
        match_id = m.match_id.encode("utf-8")
        n_towers = len(m.tower_team) if m.has_towers else 0
        header = (m.has_towers, 0, len(match_id), m.n_frames, len(m.death_slot), n_towers,
                  m.roster_size, m.tick_interval)
        columns = [np.ascontiguousarray(getattr(m, name), dtype=dtype)
                   for name, dtype, _ in _COLUMNS if getattr(m, name) is not None]
        return seal(_HEADER, MATCH_MAGIC, MATCH_VERSION, None, *header,
                    body=[*columns, match_id])
    except (UnicodeEncodeError, struct.error) as exc:
        raise SchemaViolation(f"match {m.match_id!r} does not fit a store record: {exc}") \
            from None


def decode_match(blob) -> MatchRecord:
    """A store record back to its MatchRecord, with parse_match's guarantees.

    Every header count is checked against the bytes present before any
    column is read; the columns are read-only views of the blob.
    """
    _, header, framed = unseal(blob, _HEADER, MATCH_MAGIC, MATCH_VERSION, "match record",
                               has_variant=False)
    has_towers, pad, id_len, *counts, roster_size, tick_interval = header
    counts = dict(zip(("frames", "deaths", "towers"), counts))
    if pad != 0 or has_towers > 1 or (counts["towers"] and not has_towers):
        raise ChecksumMismatch(f"match record header flags {has_towers}/{pad} are corrupt")
    layout = [(name, np.dtype(dtype), tuple(counts.get(d, d) for d in shape))
              for name, dtype, shape in _COLUMNS if has_towers or not name.startswith("tower")]
    expected = _HEADER.size + id_len + sum(math.prod(shape) * dtype.itemsize
                                           for _, dtype, shape in layout)
    if len(framed) != expected:
        raise ChecksumMismatch(f"match record body is {len(framed)} bytes, expected {expected}")
    cols = dict.fromkeys(("tower_team", "tower_pos", "tower_alive"))
    at = _HEADER.size
    for name, dtype, shape in layout:
        cols[name] = np.frombuffer(framed, dtype, math.prod(shape), at).reshape(shape)
        at += cols[name].nbytes
    try:
        match_id = bytes(framed[at:]).decode("utf-8")
    except UnicodeDecodeError:
        raise SchemaViolation("match record id is not UTF-8") from None
    _check_expressible(cols)
    return _validated(MatchRecord(match_id=match_id, tick_interval=tick_interval,
                                  roster_size=roster_size, **cols))


def _check_expressible(cols):
    """Refuse column values that the line format has no way to write, so a
    store record holds only what a parsed file can hold."""
    flags = (cols[name].view(np.uint8) for name, dtype, _ in _COLUMNS
             if dtype == "|b1" and cols[name] is not None)
    if any((f > 1).any() for f in flags):
        raise SchemaViolation("match record has a boolean byte other than 0 or 1")
    count = cols["ability_count"]
    if ((count < 0) | (count > N_ABILITY_SLOTS)).any():
        raise SchemaViolation(f"match record has an ability count outside 0..{N_ABILITY_SLOTS}")
    if cols["abilities"][np.arange(N_ABILITY_SLOTS) >= count[..., None]].any():
        raise SchemaViolation("match record has ability attributes past the ability count")
    if cols["item_cooldown"][~cols["item_owned"]].any():
        raise SchemaViolation("match record has a cooldown on an item not owned")
    if ((cols["death_slot"] < 0) | (cols["death_slot"] >= N_HEROES)).any():
        raise SchemaViolation("match record has a death slot outside 0..9")
    if not np.isfinite(cols["game_time"]).all():
        raise SchemaViolation("match record has a non-finite game_time")


def load_match(path) -> MatchRecord:
    """A match from a store record or a line-format file (gzip accepted),
    told apart by the file's leading magic bytes."""
    with open(path, "rb") as f:
        data = f.read()
    return decode_match(data) if data[:4] == MATCH_MAGIC else parse_match(data)


# ---------------------------------------------------------------------------
# Operations


def strip_pauses(m: MatchRecord) -> MatchRecord:
    """Drop every paused frame, keeping order; deaths are untouched."""
    keep = ~m.paused
    if not keep.any():
        raise EmptyMatch(f"match {m.match_id}: all frames paused")
    if keep.all():
        return m
    return MatchRecord(
        match_id=m.match_id, tick_interval=m.tick_interval, roster_size=m.roster_size,
        hero_ids=m.hero_ids,
        tick=m.tick[keep], game_time=m.game_time[keep], paused=m.paused[keep],
        alive=m.alive[keep], health=m.health[keep], max_health=m.max_health[keep],
        mana=m.mana[keep], max_mana=m.max_mana[keep], pos=m.pos[keep], visible=m.visible[keep],
        state=m.state[keep], stats=m.stats[keep],
        item_owned=m.item_owned[keep], item_cooldown=m.item_cooldown[keep],
        abilities=m.abilities[keep], ability_count=m.ability_count[keep],
        tower_team=m.tower_team, tower_pos=m.tower_pos,
        tower_alive=None if m.tower_alive is None else m.tower_alive[keep],
        death_slot=m.death_slot, death_time=m.death_time,
    )


def validate_match(m: MatchRecord) -> ValidationReport:
    """Report every invariant violation with its location; empty iff usable."""
    rep = ValidationReport()
    n = m.n_frames
    if n == 0:
        rep.add("match", "no frames")
        return rep
    if m.tick_interval <= 0 or not math.isfinite(m.tick_interval):
        rep.add("header", f"tick_interval must be positive and finite, got {m.tick_interval}")
    if m.roster_size < 1:
        rep.add("header", f"roster_size must be >= 1, got {m.roster_size}")
    for s, hid in enumerate(m.hero_ids):
        if not 0 <= hid < m.roster_size:
            rep.add("header", f"slot {s}: hero_id {int(hid)} outside roster 0..{m.roster_size - 1}")

    if (m.tick < 0).any():
        i = int(np.flatnonzero(m.tick < 0)[0])
        rep.add(f"frame {i}", f"negative tick {int(m.tick[i])}")
    dec = np.flatnonzero(np.diff(m.game_time) < 0)
    if dec.size:
        i = int(dec[0]) + 1
        rep.add(f"frame {i}", "game_time decreases")

    for name, arr in (("health", m.health), ("max_health", m.max_health),
                      ("mana", m.mana), ("max_mana", m.max_mana),
                      ("pos", m.pos), ("state_attrs", m.state), ("stat_attrs", m.stats),
                      ("item_cooldown", m.item_cooldown), ("abilities", m.abilities)):
        bad = ~np.isfinite(arr)
        if bad.any():
            idx = np.argwhere(bad)[0]
            rep.add(f"frame {int(idx[0])}: slot {int(idx[1])}", f"non-finite value in {name}")

    for name, arr in (("health", m.health), ("mana", m.mana)):
        neg = arr < 0
        if neg.any():
            i, s = (int(v) for v in np.argwhere(neg)[0])
            rep.add(f"frame {i}: slot {s}", f"negative {name}")
    over = m.health > m.max_health
    if over.any():
        i, s = (int(v) for v in np.argwhere(over)[0])
        rep.add(f"frame {i}: slot {s}",
                f"health {m.health[i, s]:g} exceeds max_health {m.max_health[i, s]:g}")
    over = m.mana > m.max_mana
    if over.any():
        i, s = (int(v) for v in np.argwhere(over)[0])
        rep.add(f"frame {i}: slot {s}",
                f"mana {m.mana[i, s]:g} exceeds max_mana {m.max_mana[i, s]:g}")

    bad_cd = m.item_owned & (m.item_cooldown < 0)
    if bad_cd.any():
        i, s, j = (int(v) for v in np.argwhere(bad_cd)[0])
        rep.add(f"frame {i}: slot {s}", f"item {TRACKED_ITEM_NAMES[j]} has negative cooldown")

    if m.has_towers:
        if not np.isin(m.tower_team, (0, 1)).all():
            rep.add("towers", "tower team must be 0 or 1")
        if not np.isfinite(m.tower_pos).all():
            rep.add("towers", "non-finite tower position")

    t0, t1 = float(m.game_time[0]), float(m.game_time[-1])
    last_per_slot = {}
    for j, (s, t) in enumerate(zip(m.death_slot, m.death_time)):
        s, t = int(s), float(t)
        if not t0 <= t <= t1:
            rep.add(f"death {j}", f"time {t:g} outside frame span [{t0:g}, {t1:g}]")
        if s in last_per_slot and t <= last_per_slot[s]:
            rep.add(f"death {j}", f"slot {s} death times not strictly increasing")
        last_per_slot[s] = t
    return rep
