"""Match time-series records and their line-delimited interchange format.

A match is one header line, one JSON object per tick frame, and a final
deaths line (see FORMAT below). Records are stored column-wise in numpy
arrays so feature extraction can run vectorized over frames. `parse_match`
fills those columns directly, checking each field across a block of frames
at once. `_COLUMNS` declares every column's name, dtype and shape once.

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
order, the match id in UTF-8 and, from version 2 on, the 16-byte blake2b
of the match text the record was encoded from (zero without one).
`ingest` writes one per match so later stages decode columns instead of
parsing text; `load_match` tells the two forms apart by their leading
magic bytes, and takes a match file's record in place of its text when
that digest says they hold the same match.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import io
import json
import math
import struct
import sys
import zlib
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import (ChecksumMismatch, DeathcastError, EmptyMatch, MalformedRecord,
                     SchemaViolation)
from .util import seal, unseal, write_atomic

N_HEROES = 10
TEAM_A_SLOTS = (0, 1, 2, 3, 4)
TEAM_B_SLOTS = (5, 6, 7, 8, 9)

DEFAULT_ROSTER_SIZE = 130
GZIP_MAGIC = b"\x1f\x8b"

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


# The record's columns, the one declaration of its layout: (attribute,
# dtype, shape), where a string in a shape is a count ("frames", "towers",
# "deaths"). This is also the store record's on-disk order: the 8-byte
# columns come first so that every column after the 40-byte header starts
# aligned.
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
_COLUMN_DTYPES = {name: dtype for name, dtype, _ in _COLUMNS}
# None in a match without a towers section
_TOWER_COLUMNS = frozenset(name for name, _, shape in _COLUMNS if "towers" in shape)


class MatchRecord:
    """One match: column-wise frame arrays plus exact death events.

    The columns are those of `_COLUMNS`, each coerced to its dtype; the
    tower columns are all None for a match without a towers section.
    Immutable by convention after construction; nothing in the package
    mutates a record in place, so instances are safe to share between
    threads. Columns may be read-only views: a decoded record's views of
    its blob, and a generated record's time-constant columns, which repeat
    one frame with stride 0. Copy a column before writing to it.
    """

    def __init__(self, match_id, tick_interval, roster_size, **columns):
        if columns.keys() != _COLUMN_DTYPES.keys():
            raise TypeError(f"MatchRecord wants the columns {list(_COLUMN_DTYPES)}, "
                            f"got {list(columns)}")
        self.match_id = str(match_id)
        self.tick_interval = float(tick_interval)
        self.roster_size = int(roster_size)
        for name, dtype in _COLUMN_DTYPES.items():
            value = columns[name]
            if value is not None or name not in _TOWER_COLUMNS:
                value = np.asarray(value, dtype=dtype)
            setattr(self, name, value)

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

    def replace(self, **fields):
        """A copy with the named columns (or header fields) swapped; the
        other columns are shared, not copied."""
        kept = {name: getattr(self, name)
                for name in ("match_id", "tick_interval", "roster_size", *_COLUMN_DTYPES)}
        return MatchRecord(**{**kept, **fields})

    def __eq__(self, other):
        if not isinstance(other, MatchRecord):
            return NotImplemented
        # array_equal counts two absent (None) tower columns equal
        return ((self.match_id, self.tick_interval, self.roster_size)
                == (other.match_id, other.tick_interval, other.roster_size)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _COLUMN_DTYPES))

    __hash__ = None


def _empty_columns(n):
    """Zeroed per-frame columns for n frames; tower_alive is left out, its
    width is the tower count."""
    return {name: np.zeros((n, *shape[1:]), dtype) for name, dtype, shape in _COLUMNS
            if shape[0] == "frames" and name not in _TOWER_COLUMNS}


# ---------------------------------------------------------------------------
# Parsing


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token!r} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _loads(line, line_no):
    try:
        return _DECODER.decode(line)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(line_no, str(exc)) from None


def gunzip(data):
    """data, decompressed when it starts with the gzip magic bytes."""
    if data[:2] != GZIP_MAGIC:
        return data
    try:
        return gzip.decompress(data)
    except (OSError, EOFError, zlib.error) as exc:
        raise MalformedRecord(0, f"bad gzip stream: {exc}") from None


# Frame lines are decoded and checked this many at a time. Blocks of 32
# parsed no faster but held twice the decoded objects, which raised the
# text-io benchmark's peak RSS by 2%.
_FRAME_BLOCK = 16

_HEADER_FIELDS = ("match_id", "tick_interval", "roster_size", "hero_ids")
# A frame's, a hero's and a tower's object as write_match renders them: JSON
# in which a string names the column of a value, a tuple is a list element
# written only while its item is owned or its ability present, and None is
# filled in by _line_layout (the slot, the hero list)
_FRAME_LINE = {"tick": "tick", "game_time": "game_time", "paused": "paused", "heroes": None}
_HERO_LINE = {
    "slot": None, "hero_id": "hero_ids", "alive": "alive", "health": "health",
    "max_health": "max_health", "mana": "mana", "max_mana": "max_mana", "pos_x": "pos",
    "pos_y": "pos", "visible_to_enemy": "visible", "state_attrs": ["state"] * N_STATE_ATTRS,
    "stat_attrs": ["stats"] * N_STAT_ATTRS,
    "items": [(j, "item_cooldown") for j in range(N_TRACKED_ITEMS)],
    "abilities": [("abilities",) * N_ABILITY_ATTRS] * N_ABILITY_SLOTS}
_TOWER_LINE = {"team": "tower_team", "x": "tower_pos", "y": "tower_pos", "alive": "tower_alive"}
_FRAME_FIELDS, _HERO_FIELDS, _TOWER_FIELDS = map(tuple, (_FRAME_LINE, _HERO_LINE, _TOWER_LINE))
_FRAME_KEYS = frozenset(_FRAME_FIELDS)
_FRAME_KEYS_TOWERS = _FRAME_KEYS | {"towers"}

# The JSON types a field may take; a bool is never a number.
_STR, _INT, _NUMBER, _BOOL, _ARRAY, _OBJECT = (
    frozenset(kinds) for kinds in ((str,), (int,), (int, float), (bool,), (list,), (dict,)))
_KIND_NAMES = {_STR: "a string", _INT: "an integer", _NUMBER: "a number",
               _BOOL: "a boolean", _ARRAY: "an array"}
_INT64 = (-2**63, 2**63)
_SLOTS = np.arange(N_HEROES)


def _first(flags):
    """Index of the first true flag (the caller knows there is one)."""
    return next(k for k, flag in enumerate(flags) if flag)


def _shape_error(obj, keys, where):
    if type(obj) is not dict:
        return SchemaViolation(f"{where}: expected an object")
    parts = [f"{label} {sorted(names)}" for label, names in
             (("missing", keys - obj.keys()), ("unknown", obj.keys() - keys)) if names]
    return SchemaViolation(f"{where}: fields: {'; '.join(parts)}")


def _fields(objs, names, where):
    """One tuple per named field across objects that must have exactly
    those keys; where(k) locates object k in an error."""
    if not objs:
        return [()] * len(names)
    if set(map(type, objs)) == _OBJECT and set(map(len, objs)) == {len(names)}:
        get = itemgetter(*names) if len(names) > 1 else lambda o: (o[names[0]],)
        try:
            return list(zip(*map(get, objs)))
        except KeyError:
            pass
    keys = frozenset(names)
    k = _first(type(o) is not dict or o.keys() != keys for o in objs)
    raise _shape_error(objs[k], keys, where(k))


def _typed(values, kind, what, where):
    if not set(map(type, values)) <= kind:
        k = _first(type(v) not in kind for v in values)
        raise SchemaViolation(f"{where(k)}: field {what!r} must be {_KIND_NAMES[kind]}")
    return values


def _bools(values, what, where):
    return np.array(_typed(values, _BOOL, what, where), dtype=bool)


def _ints(values, what, where, lo=_INT64[0], hi=_INT64[1]):
    """Integers in lo..hi-1 as int64, range-checked before they are stored."""
    _typed(values, _INT, what, where)
    if values and (min(values) < lo or max(values) >= hi):
        k = _first(not lo <= v < hi for v in values)
        raise SchemaViolation(f"{where(k)}: field {what!r} must be in {lo}..{hi - 1}")
    return np.array(values, dtype=np.int64)


def _floats(values, what, where):
    _typed(values, _NUMBER, what, where)
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        k = _first(type(v) is int and abs(v) > sys.float_info.max for v in values)
        raise SchemaViolation(f"{where(k)}: field {what!r} is beyond the float range") from None


def _float_rows(values, width, what, where):
    """Arrays of exactly width numbers as a (len(values), width) array."""
    _typed(values, _ARRAY, what, where)
    if set(map(len, values)) != {width}:
        k = _first(len(v) != width for v in values)
        raise SchemaViolation(f"{where(k)}: field {what!r} must hold {width} numbers")
    flat = list(chain.from_iterable(values))
    return _floats(flat, what, lambda j: where(j // width)).reshape(-1, width)


def parse_match(source) -> MatchRecord:
    """Parse one match from bytes / a binary stream (gzip accepted).

    Raises MalformedRecord for broken lines, SchemaViolation for contract
    breaches (an integer too wide for its column included), EmptyMatch when
    no frames are present. Errors inside frames name the frame index. The
    returned record satisfies every type invariant (validate_match on it is
    empty).
    """
    data = source.read() if hasattr(source, "read") else source
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_match wants bytes or a binary stream")
    return _parse_text(gunzip(bytes(data)))


def _parse_text(data) -> MatchRecord:
    """parse_match of match text that is not gzip-compressed."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(0, f"not valid UTF-8: {exc}") from None

    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln and not ln.isspace()]
    del text  # the lines are a copy; keep one while frames are decoded
    if len(lines) < 2:
        raise MalformedRecord(len(lines), "expected a header line and a deaths line")

    header = lambda _: "header"  # noqa: E731
    (match_id,), (tick_interval,), (roster_size,), (hero_ids,) = _fields(
        [_loads(lines[0][1], lines[0][0])], _HEADER_FIELDS, header)
    _typed((match_id,), _STR, "match_id", header)
    tick_interval = float(_floats((tick_interval,), "tick_interval", header)[0])
    _typed((roster_size,), _INT, "roster_size", header)
    _typed((hero_ids,), _ARRAY, "hero_ids", header)
    if len(hero_ids) != N_HEROES:
        raise SchemaViolation(f"header: hero_ids must list {N_HEROES} ids")
    hero_ids = _ints(hero_ids, "hero_ids", header, -2**31, 2**31).astype(np.int32)

    deaths_line = lambda _: "deaths line"  # noqa: E731
    (deaths,), = _fields([_loads(lines[-1][1], lines[-1][0])], ("deaths",), deaths_line)
    _typed((deaths,), _ARRAY, "deaths", deaths_line)
    death = lambda j: f"death {j}"  # noqa: E731
    death_slot, death_time = _fields(deaths, ("slot", "time"), death)
    death_slot = _ints(death_slot, "slot", death, 0, N_HEROES).astype(np.int8)
    death_time = _floats(death_time, "time", death)

    frame_lines = lines[1:-1]
    n = len(frame_lines)
    if n == 0:
        raise EmptyMatch(f"match {match_id}: zero frames")
    cols = _empty_columns(n)
    cols.update(dict.fromkeys(_TOWER_COLUMNS))
    for start in range(0, n, _FRAME_BLOCK):
        block = [_loads(ln, no) for no, ln in frame_lines[start:start + _FRAME_BLOCK]]
        _parse_frames(cols, start, block, hero_ids)
    return _validated(MatchRecord(
        match_id=match_id, tick_interval=tick_interval, roster_size=roster_size,
        hero_ids=hero_ids, death_slot=death_slot, death_time=death_time, **cols))


def _parse_frames(cols, start, objs, hero_ids):
    """Check a block of decoded frame objects field by field and write them
    into rows start.. of cols; errors name the absolute frame index."""
    b = len(objs)
    rows = slice(start, start + b)
    frame = lambda k: f"frame {start + k}"  # noqa: E731
    for k, obj in enumerate(objs):
        if type(obj) is not dict or not _FRAME_KEYS <= obj.keys() <= _FRAME_KEYS_TOWERS:
            keys = _FRAME_KEYS_TOWERS if type(obj) is dict and "towers" in obj else _FRAME_KEYS
            raise _shape_error(obj, keys, frame(k))
    tick, game_time, paused, hero_lists = zip(*map(itemgetter(*_FRAME_FIELDS), objs))
    cols["tick"][rows] = _ints(tick, "tick", frame)
    cols["game_time"][rows] = _floats(game_time, "game_time", frame)
    cols["paused"][rows] = _bools(paused, "paused", frame)

    _typed(hero_lists, _ARRAY, "heroes", frame)
    if set(map(len, hero_lists)) != {N_HEROES}:
        k = _first(len(h) != N_HEROES for h in hero_lists)
        raise SchemaViolation(f"{frame(k)}: expected {N_HEROES} heroes, got {len(hero_lists[k])}")
    listed = lambda k: f"frame {start + k // N_HEROES}: hero {k % N_HEROES}"  # noqa: E731
    f = dict(zip(_HERO_FIELDS, _fields(list(chain.from_iterable(hero_lists)),
                                       _HERO_FIELDS, listed)))

    slot = _typed(f["slot"], _INT, "slot", listed)
    not_permutation = "hero slots are not a permutation of 0..9"
    if not (0 <= min(slot) and max(slot) < N_HEROES):
        k = _first(not 0 <= s < N_HEROES for s in slot) // N_HEROES
        raise SchemaViolation(f"{frame(k)}: {not_permutation}")
    slots = np.array(slot, dtype=np.intp).reshape(b, N_HEROES)
    order = None
    if (slots != _SLOTS).any():
        order = np.argsort(slots, axis=1)
        bad = (np.take_along_axis(slots, order, 1) != _SLOTS).any(axis=1)
        if bad.any():
            raise SchemaViolation(f"{frame(int(np.argmax(bad)))}: {not_permutation}")
    hero = lambda k: f"frame {start + k // N_HEROES}: slot {slot[k]}"  # noqa: E731

    def place(values):
        """Per listed hero -> (b, N_HEROES, ...) in slot order."""
        values = values.reshape(b, N_HEROES, *values.shape[1:])
        return values if order is None else values[np.arange(b)[:, None], order]

    # flat (frame, slot) index of each listed hero, for scattered fields
    dest = (np.arange(start, start + b)[:, None] * N_HEROES + slots).ravel()

    hero_id = _ints(f["hero_id"], "hero_id", hero)
    want = hero_ids[slots.ravel()]
    if (hero_id != want).any():
        k = int(np.argmax(hero_id != want))
        raise SchemaViolation(f"{hero(k)}: hero_id {hero_id[k]} differs from header {want[k]}")
    cols["alive"][rows] = place(_bools(f["alive"], "alive", hero))
    cols["visible"][rows] = place(_bools(f["visible_to_enemy"], "visible_to_enemy", hero))
    for name in ("health", "max_health", "mana", "max_mana"):
        cols[name][rows] = place(_floats(f[name], name, hero))
    cols["pos"][rows] = place(np.stack([_floats(f["pos_x"], "pos_x", hero),
                                        _floats(f["pos_y"], "pos_y", hero)], axis=1))
    cols["state"][rows] = place(_float_rows(f["state_attrs"], N_STATE_ATTRS, "state_attrs", hero))
    cols["stats"][rows] = place(_float_rows(f["stat_attrs"], N_STAT_ATTRS, "stat_attrs", hero))

    items = _typed(f["items"], _ARRAY, "items", hero)
    pairs = list(chain.from_iterable(items))
    if pairs:
        owner = np.repeat(np.arange(len(items)), list(map(len, items)))
        item = lambda p: hero(owner[p])  # noqa: E731
        if set(map(type, pairs)) != _ARRAY or set(map(len, pairs)) != {2}:
            k = _first(type(e) is not list or len(e) != 2 for e in pairs)
            raise SchemaViolation(f"{item(k)}: item entries must be [id, cooldown] pairs")
        ids, cooldowns = zip(*pairs)
        key = dest[owner] * N_TRACKED_ITEMS + _ints(ids, "item id", item, 0, N_TRACKED_ITEMS)
        unique, first = np.unique(key, return_index=True)
        if unique.size != key.size:
            again = np.ones(key.size, dtype=bool)
            again[first] = False
            k = int(np.argmax(again))
            raise SchemaViolation(f"{item(k)}: duplicate item id {ids[k]}")
        cols["item_owned"].reshape(-1)[key] = True
        cols["item_cooldown"].reshape(-1)[key] = _floats(cooldowns, "item cooldown", item)

    abilities = _typed(f["abilities"], _ARRAY, "abilities", hero)
    count = np.array(list(map(len, abilities)))
    if count.max() > N_ABILITY_SLOTS:
        k = int(np.argmax(count > N_ABILITY_SLOTS))
        raise SchemaViolation(f"{hero(k)}: more than {N_ABILITY_SLOTS} abilities")
    cols["ability_count"][rows] = place(count)
    listed_abilities = list(chain.from_iterable(abilities))
    if listed_abilities:
        owner = np.repeat(np.arange(len(abilities)), count)
        index = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        values = _float_rows(listed_abilities, N_ABILITY_ATTRS, "abilities",
                             lambda a: f"{hero(owner[a])}: ability {index[a]}")
        cols["abilities"].reshape(-1, N_ABILITY_ATTRS)[dest[owner] * N_ABILITY_SLOTS + index] = values

    towers = [obj.get("towers") for obj in objs]
    has_towers = towers[0] is not None if start == 0 else cols["tower_alive"] is not None
    if any((t is not None) != has_towers for t in towers):
        k = _first((t is not None) != has_towers for t in towers)
        raise SchemaViolation(f"{frame(k)}: towers section must be present in all frames or none")
    if has_towers:
        _parse_towers(cols, start, towers)


def _parse_towers(cols, start, towers):
    """Tower columns of a block; only `alive` may change after frame 0."""
    b = len(towers)
    frame = lambda k: f"frame {start + k}"  # noqa: E731
    _typed(towers, _ARRAY, "towers", frame)
    if cols["tower_alive"] is None:
        cols["tower_alive"] = np.zeros((cols["tick"].size, len(towers[0])), dtype=bool)
    n_towers = cols["tower_alive"].shape[1]
    if set(map(len, towers)) != {n_towers}:
        raise SchemaViolation(f"{frame(_first(len(t) != n_towers for t in towers))}: "
                              "tower count changed mid-match")
    tower = lambda p: f"frame {start + p // n_towers}: tower {p % n_towers}"  # noqa: E731
    team, x, y, alive = _fields(list(chain.from_iterable(towers)), _TOWER_FIELDS, tower)
    team = _ints(team, "team", tower, 0, 2).reshape(b, n_towers)
    pos = np.stack([_floats(x, "x", tower), _floats(y, "y", tower)], axis=1).reshape(b, n_towers, 2)
    if cols["tower_team"] is None:
        cols["tower_team"], cols["tower_pos"] = team[0], pos[0]
    changed = (team != cols["tower_team"]) | (pos != cols["tower_pos"]).any(axis=2)
    if changed.any():
        k, j = np.argwhere(changed)[0]
        raise SchemaViolation(f"{frame(k)}: tower {j} identity changed mid-match")
    cols["tower_alive"][start:start + b] = _bools(alive, "alive", tower).reshape(b, n_towers)


def _validated(m):
    report = validate_match(m)
    if not report.ok:
        raise SchemaViolation(f"invariant breach: {report.violations[0]}")
    return m


# ---------------------------------------------------------------------------
# Writing


@functools.lru_cache(maxsize=16)
def _line_layout(n_towers):
    """A frame line with every item owned and every ability present (no
    towers section when n_towers is None) as (text, condition, piece,
    columns): pieces of text, with "%s" for each value and a comma before
    every list element, each written when flags[condition] holds (flag 0
    always, then per hero one per item owned and one per ability present);
    the piece of each value, in line order; each column's values' numbers.
    """
    frame = {**_FRAME_LINE, "heroes": [{**_HERO_LINE, "slot": s} for s in range(N_HEROES)]}
    if n_towers is not None:
        frame["towers"] = [_TOWER_LINE] * n_towers
    text, cond, piece, where = [""], [0], [], {}

    def add(part, flag, column=None):
        if cond[-1] != flag:
            text.append("")
            cond.append(flag)
        text[-1] += part
        if column is not None:
            where.setdefault(column, []).append(len(piece))
            piece.append(len(text) - 1)

    def emit(node, lead="", flag=0):
        if type(node) is tuple:
            node, flag = list(node), max(cond) + 1
        if type(node) is dict:
            for i, (key, value) in enumerate(node.items()):
                emit(value, (lead + "{" if i == 0 else ",") + f'"{key}":', flag)
            add("}", flag)
        elif type(node) is list:
            add(lead + "[", flag)
            for value in node:
                emit(value, ",", flag)
            add("]", flag)
        else:
            add(lead + ("%s" if type(node) is str else str(node)), flag,
                node if type(node) is str else None)

    emit(frame)
    add("\n", 0)
    columns = [(name, np.array(numbers)) for name, numbers in where.items()]
    return np.array(text, dtype=object), np.array(cond), np.array(piece), columns


def write_match(m: MatchRecord) -> bytes:
    """Serialize a record to the canonical line-delimited byte form: each
    line is json.dumps(obj, separators=(",", ":")) of its object (compact,
    fields in FORMAT order, _HERO_FIELDS for a hero, Python's float repr,
    lower-case booleans). Only a record that validate_match accepts is
    written (SchemaViolation otherwise), so parse_match(write_match(m)) == m.
    A run of frames that own the same items and abilities has one line
    template, with each value bitwise-equal in all its frames rendered once.
    """
    _validated(m)
    out = io.StringIO()
    # json.dumps runs the C encoder; json.dump streams through the Python one
    dump = lambda obj: out.write(json.dumps(obj, separators=(",", ":")) + "\n")  # noqa: E731
    dump({"match_id": m.match_id, "tick_interval": m.tick_interval,
          "roster_size": m.roster_size, "hero_ids": m.hero_ids.tolist()})
    n, owned, count = m.n_frames, m.item_owned, m.ability_count
    text, cond, piece, layout = _line_layout(len(m.tower_team) if m.has_towers else None)
    cut = (owned[1:] != owned[:-1]).any(axis=(1, 2)) | (count[1:] != count[:-1]).any(axis=1)
    starts = np.flatnonzero(np.r_[True, cut])
    head = np.repeat(starts, np.diff(np.r_[starts, n]))  # each frame's run's first frame
    # per run: always, then per hero whether each item is owned, each ability present
    flags = np.concatenate([owned[starts], np.arange(N_ABILITY_SLOTS) < count[starts, :, None]],
                           axis=2).reshape(len(starts), -1)
    flags = np.c_[np.ones(len(starts), dtype=bool), flags]
    # per run and value, whether all the run's frames hold it bit for bit
    fixed, columns = np.empty((len(starts), len(piece)), dtype=bool), []
    for name, where in layout:
        col = getattr(m, name)
        if name in ("hero_ids", "tower_team", "tower_pos"):  # the same in every frame
            col = np.broadcast_to(col, (n, *col.shape))
        col = col.reshape(n, -1)
        bits = col.view(f"u{col.itemsize}")
        fixed[:, where] = np.logical_and.reduceat(bits == bits[head], starts)
        columns.append((np.array(["false", "true"], dtype=object)[bits]
                        if col.dtype == bool else col, where))
    block = np.empty((_FRAME_BLOCK, len(piece)), dtype=object)
    run = {a: r for r, a in enumerate(starts.tolist())}
    edges = np.union1d(starts, [*range(0, n, _FRAME_BLOCK), n]).tolist()
    for x, y in zip(edges, edges[1:]):
        i = x % _FRAME_BLOCK
        if i == 0:  # the next block of frames: every value, as "%s" spells it
            for col, where in columns:
                block[:min(n - x, _FRAME_BLOCK), where] = col[x:x + _FRAME_BLOCK]
        if x in run:  # a run starts: its template, with the fixed values rendered
            written = flags[run[x], cond]
            shown = written[piece]
            values = np.where(fixed[run[x]], block[i], "%s")[shown]
            template = "".join(text[written].tolist()).replace("[,", "[") % tuple(values.tolist())
            slots = np.flatnonzero(shown & ~fixed[run[x]])
        rows = block[i:i + y - x, slots].tolist()
        out.write("".join([template % tuple(row) for row in rows]))
    dump({"deaths": [{"slot": s, "time": t}
                     for s, t in zip(m.death_slot.tolist(), m.death_time.tolist())]})
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
MATCH_VERSION = 2
# magic, version, has_towers, pad, match id bytes, frames, deaths, towers,
# roster_size, tick_interval
_HEADER = struct.Struct("<4sHBBIIIIqd")
# A version 2 body ends with the digest of its source text. Version 1
# records, which end at the match id, are still read.
_DIGEST_SIZE = 16
_VERSION_BYTES = {v: struct.pack("<H", v) for v in (1, MATCH_VERSION)}


def _text_digest(text) -> bytes:
    """The 16-byte blake2b of match text that a store record keeps."""
    return hashlib.blake2b(text, digest_size=_DIGEST_SIZE).digest()


def encode_match(m: MatchRecord, source=None) -> bytes:
    """The match as a sealed store record; decode_match inverts it exactly.

    source is the match text (uncompressed bytes) that m was parsed from.
    The record ends with its 16-byte blake2b, or with 16 zero bytes when
    there is no source, and load_match takes the record in place of
    exactly that text.
    """
    try:
        match_id = m.match_id.encode("utf-8")
        n_towers = len(m.tower_team) if m.has_towers else 0
        header = (m.has_towers, 0, len(match_id), m.n_frames, len(m.death_slot), n_towers,
                  m.roster_size, m.tick_interval)
        columns = [np.ascontiguousarray(getattr(m, name), dtype=dtype)
                   for name, dtype, _ in _COLUMNS if getattr(m, name) is not None]
        digest = bytes(_DIGEST_SIZE) if source is None else _text_digest(source)
        return seal(_HEADER, MATCH_MAGIC, MATCH_VERSION, None, *header,
                    body=[*columns, match_id, digest])
    except (UnicodeEncodeError, struct.error) as exc:
        raise SchemaViolation(f"match {m.match_id!r} does not fit a store record: {exc}") \
            from None


def decode_match(blob) -> MatchRecord:
    """A store record back to its MatchRecord, with parse_match's guarantees.

    Every header count is checked against the bytes present before any
    column is read; the columns are read-only views of the blob. Version 1
    records (no source digest) decode too.
    """
    version = 1 if blob[4:6] == _VERSION_BYTES[1] else MATCH_VERSION
    _, header, framed = unseal(blob, _HEADER, MATCH_MAGIC, version, "match record",
                               has_variant=False)
    has_towers, pad, id_len, *counts, roster_size, tick_interval = header
    counts = dict(zip(("frames", "deaths", "towers"), counts))
    if pad != 0 or has_towers > 1 or (counts["towers"] and not has_towers):
        raise ChecksumMismatch(f"match record header flags {has_towers}/{pad} are corrupt")
    layout = [(name, np.dtype(dtype), tuple(counts.get(d, d) for d in shape))
              for name, dtype, shape in _COLUMNS if has_towers or name not in _TOWER_COLUMNS]
    expected = (_HEADER.size + id_len + (_DIGEST_SIZE if version > 1 else 0)
                + sum(math.prod(shape) * dtype.itemsize for _, dtype, shape in layout))
    if len(framed) != expected:
        raise ChecksumMismatch(f"match record body is {len(framed)} bytes, expected {expected}")
    cols = dict.fromkeys(_TOWER_COLUMNS)
    at = _HEADER.size
    for name, dtype, shape in layout:
        cols[name] = np.frombuffer(framed, dtype, math.prod(shape), at).reshape(shape)
        at += cols[name].nbytes
    try:
        match_id = bytes(framed[at:at + id_len]).decode("utf-8")
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


def load_match(path) -> MatchRecord:
    """A match from a store record or a line-format file (gzip accepted),
    told apart by the file's leading magic bytes.

    A `<id>.jsonl` file whose sibling `<id>.dmatch` is a version 2 record
    of exactly the bytes read (its source digest equals theirs, as ingest
    writes the pair) is served by decoding that record, which is
    checksummed and validated, instead of parsing the text; the result is
    equal, with read-only columns as every decoded record has. A sibling
    that is missing, unreadable, version 1, of other text or corrupt
    leaves the text to be parsed.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] == MATCH_MAGIC:
        return decode_match(data)
    path = str(path)
    if path.endswith(".jsonl"):
        record = _record_of_text(path[:-len(".jsonl")] + ".dmatch", data)
        if record is not None:
            return record
    return parse_match(data)


def _record_of_text(path, text):
    """The store record at path if it was encoded from text, else None."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError:
        return None
    if (blob[4:6] != _VERSION_BYTES[MATCH_VERSION]
            or blob[-8 - _DIGEST_SIZE:-8] != _text_digest(text)):
        return None
    try:
        return decode_match(blob)
    except DeathcastError:
        return None


# ---------------------------------------------------------------------------
# Operations


def strip_pauses(m: MatchRecord) -> MatchRecord:
    """Drop every paused frame, keeping order; deaths are untouched."""
    keep = ~m.paused
    if not keep.any():
        raise EmptyMatch(f"match {m.match_id}: all frames paused")
    if keep.all():
        return m
    return m.replace(**{name: getattr(m, name)[keep] for name, _, shape in _COLUMNS
                        if shape[0] == "frames" and getattr(m, name) is not None})


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
    if not np.isfinite(m.game_time).all():
        i = int(np.flatnonzero(~np.isfinite(m.game_time))[0])
        rep.add(f"frame {i}", f"non-finite game_time {m.game_time[i]}")
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
