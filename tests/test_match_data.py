import gzip
import hashlib
import json
import re

import numpy as np
import pytest

from deathcast import match_data as md
from deathcast import synth as sy
from deathcast.errors import (ChecksumMismatch, DeathcastError, EmptyMatch, MalformedRecord,
                              SchemaViolation, VersionMismatch)

from conftest import header_mutations, random_match, reseal
from oracles import reference_encode_match_v1, reference_write_match


def minimal_lines(n_frames=1, deaths=()):
    """Hand-built file lines for parser edge cases."""
    hero_ids = list(range(10))
    head = {"match_id": "m1", "tick_interval": 1 / 30, "roster_size": 130,
            "hero_ids": hero_ids}
    lines = [json.dumps(head)]
    for i in range(n_frames):
        heroes = []
        for s in range(10):
            heroes.append({
                "slot": s, "hero_id": s, "alive": True,
                "health": 500.0, "max_health": 1000.0,
                "mana": 100.0, "max_mana": 300.0,
                "pos_x": float(s), "pos_y": float(10 - s),
                "visible_to_enemy": False,
                "state_attrs": [0.0] * md.N_STATE_ATTRS,
                "stat_attrs": [0.0] * md.N_STAT_ATTRS,
                "items": [], "abilities": [],
            })
        lines.append(json.dumps({"tick": i, "game_time": i / 30, "paused": False,
                                 "heroes": heroes}))
    lines.append(json.dumps({"deaths": [{"slot": s, "time": t} for s, t in deaths]}))
    return lines


def to_bytes(lines):
    return ("\n".join(lines) + "\n").encode()


def edited(lines, index, edit):
    """lines with line `index` decoded, changed in place by edit, re-encoded."""
    index %= len(lines)
    obj = json.loads(lines[index])
    edit(obj)
    return [*lines[:index], json.dumps(obj), *lines[index + 1:]]


def permuted_lines(m, rng):
    """m's file lines with the heroes of every frame listed in a seeded order."""
    lines = md.write_match(m).decode().splitlines()
    for i in range(1, len(lines) - 1):
        lines[i] = edited(lines, i, lambda fr: fr.update(
            heroes=[fr["heroes"][s] for s in rng.permutation(md.N_HEROES)]))[i]
    return lines


class TestParse:
    def test_minimal_single_frame(self):
        m = md.parse_match(to_bytes(minimal_lines()))
        assert m.n_frames == 1
        assert len(m.deaths) == 0
        assert m.match_id == "m1"

    def test_nine_heroes_names_frame_index(self):
        lines = minimal_lines(n_frames=2)
        frame = json.loads(lines[2])
        frame["heroes"] = frame["heroes"][:9]
        lines[2] = json.dumps(frame)
        with pytest.raises(SchemaViolation, match="frame 1"):
            md.parse_match(to_bytes(lines))

    def test_empty_match(self):
        with pytest.raises(EmptyMatch):
            md.parse_match(to_bytes(minimal_lines(0)))

    def test_bad_json_reports_line(self):
        lines = minimal_lines(2)
        lines[1] = "{not json"
        with pytest.raises(MalformedRecord) as err:
            md.parse_match(to_bytes(lines))
        assert err.value.line_no == 2

    def test_missing_field(self):
        lines = minimal_lines(1)
        frame = json.loads(lines[1])
        del frame["heroes"][3]["health"]
        lines[1] = json.dumps(frame)
        with pytest.raises(SchemaViolation, match="health"):
            md.parse_match(to_bytes(lines))

    def test_nan_rejected(self):
        lines = minimal_lines(1)
        lines[1] = lines[1].replace('"game_time": 0.0', '"game_time": NaN')
        with pytest.raises(MalformedRecord):
            md.parse_match(to_bytes(lines))

    def test_health_above_max_rejected(self):
        lines = minimal_lines(1)
        frame = json.loads(lines[1])
        frame["heroes"][0]["health"] = 2000.0
        lines[1] = json.dumps(frame)
        with pytest.raises(SchemaViolation, match="health"):
            md.parse_match(to_bytes(lines))

    def test_hero_id_differs_from_header(self):
        lines = minimal_lines(1)
        frame = json.loads(lines[1])
        frame["heroes"][2]["hero_id"] = 99
        lines[1] = json.dumps(frame)
        with pytest.raises(SchemaViolation, match="hero_id"):
            md.parse_match(to_bytes(lines))

    def test_duplicate_slot_rejected(self):
        lines = minimal_lines(1)
        frame = json.loads(lines[1])
        frame["heroes"][4]["slot"] = 3
        frame["heroes"][4]["hero_id"] = 3
        lines[1] = json.dumps(frame)
        with pytest.raises(SchemaViolation, match="permutation"):
            md.parse_match(to_bytes(lines))

    def test_gzip_accepted(self, rng):
        m = random_match(rng)
        raw = md.write_match(m)
        assert md.parse_match(gzip.compress(raw)) == m

    def test_permuted_heroes_over_several_blocks(self, rng):
        m = random_match(rng, n_frames=2 * md._FRAME_BLOCK + 5, with_towers=True)
        raw = to_bytes(permuted_lines(m, rng))
        assert md.parse_match(raw) == m
        assert md.parse_match(gzip.compress(raw)) == m

    @pytest.mark.parametrize("index,edit", [
        (1, lambda o: o.update(tick=2**70)),
        (0, lambda o: o["hero_ids"].__setitem__(0, 2**40)),
        (-1, lambda o: o.update(deaths=[{"slot": 300, "time": 0.0}])),
        (1, lambda o: o["heroes"][0].update(health=10**400)),
        (0, lambda o: o.update(tick_interval=10**400)),
    ], ids=["tick", "header hero id", "death slot", "hero float", "tick_interval"])
    def test_oversized_number_is_typed_error(self, index, edit):
        with pytest.raises(SchemaViolation):
            md.parse_match(to_bytes(edited(minimal_lines(1), index, edit)))

    def test_infinite_game_time_rejected(self):
        lines = minimal_lines(2)
        lines[2] = re.sub(r'"game_time": [^,]+', '"game_time": 1e999', lines[2])
        with pytest.raises(SchemaViolation, match="frame 1: non-finite game_time"):
            md.parse_match(to_bytes(lines))

    def test_broken_gzip_and_deep_nesting_are_malformed(self, rng):
        packed = gzip.compress(md.write_match(random_match(rng)))
        corrupt = bytearray(packed)
        corrupt[len(packed) // 2] ^= 0xFF
        head, _, deaths = minimal_lines(1)
        deep = to_bytes([head, "[" * 100_000, deaths])
        for bad in (packed[:len(packed) // 2], bytes(corrupt), deep):
            with pytest.raises(MalformedRecord):
                md.parse_match(bad)


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _hero(fr, rng, having=None):
    """A random hero of a decoded frame, optionally one whose `having` list
    is not empty."""
    return _pick(rng, [h for h in fr["heroes"] if having is None or h[having]])


def _tower(fr, rng):
    return _pick(rng, fr["towers"])


def _duplicate_slot(fr, rng):
    a, b = rng.choice(md.N_HEROES, size=2, replace=False)
    fr["heroes"][a].update(slot=fr["heroes"][b]["slot"], hero_id=fr["heroes"][b]["hero_id"])


def _move_tower(fr, rng):
    tower = _tower(fr, rng)
    if rng.random() < 0.5:
        tower["team"] = 1 - tower["team"]
    else:
        tower[_pick(rng, ("x", "y"))] += 1.0


_NUMBERS = ("health", "max_health", "mana", "max_mana", "pos_x", "pos_y")
_FLAGS = ("alive", "visible_to_enemy")

# (name, edit): each edit breaks exactly one field of a decoded frame line
FRAME_CORRUPTIONS = [
    ("bool tick", lambda fr, r: fr.update(tick=True)),
    ("bool game_time", lambda fr, r: fr.update(game_time=False)),
    ("bool hero number", lambda fr, r: _hero(fr, r).update({_pick(r, _NUMBERS): True})),
    ("bool hero integer", lambda fr, r: _hero(fr, r).update({_pick(r, ("slot", "hero_id")): False})),
    ("bool state attr", lambda fr, r: _hero(fr, r)["state_attrs"].__setitem__(
        int(r.integers(md.N_STATE_ATTRS)), True)),
    ("bool item id", lambda fr, r: _hero(fr, r, "items")["items"][0].__setitem__(0, True)),
    ("bool cooldown", lambda fr, r: _hero(fr, r, "items")["items"][0].__setitem__(1, False)),
    ("bool ability attr", lambda fr, r: _hero(fr, r, "abilities")["abilities"][0].__setitem__(
        int(r.integers(md.N_ABILITY_ATTRS)), True)),
    ("bool tower position", lambda fr, r: _tower(fr, r).update({_pick(r, ("x", "y")): True})),
    ("number paused", lambda fr, r: fr.update(paused=0)),
    ("number hero flag", lambda fr, r: _hero(fr, r).update({_pick(r, _FLAGS): _pick(r, (0, 1.0))})),
    ("number tower alive", lambda fr, r: _tower(fr, r).update(alive=1)),
    ("missing frame key", lambda fr, r: fr.pop(_pick(r, (*md._FRAME_FIELDS, "towers")))),
    ("missing hero key", lambda fr, r: _hero(fr, r).pop(_pick(r, md._HERO_FIELDS))),
    ("missing tower key", lambda fr, r: _tower(fr, r).pop(_pick(r, md._TOWER_FIELDS))),
    ("extra frame key", lambda fr, r: fr.update(extra=0)),
    ("extra hero key", lambda fr, r: _hero(fr, r).update(extra=0)),
    ("extra tower key", lambda fr, r: _tower(fr, r).update(extra=0)),
    ("long state_attrs", lambda fr, r: _hero(fr, r)["state_attrs"].append(0.0)),
    ("short stat_attrs", lambda fr, r: _hero(fr, r)["stat_attrs"].pop()),
    ("long ability", lambda fr, r: _hero(fr, r, "abilities")["abilities"][0].append(0.0)),
    ("short ability", lambda fr, r: _hero(fr, r, "abilities")["abilities"][0].pop()),
    ("too many abilities", lambda fr, r: _hero(fr, r).update(
        abilities=[[0.0] * md.N_ABILITY_ATTRS] * (md.N_ABILITY_SLOTS + 1))),
    ("item triple", lambda fr, r: _hero(fr, r, "items")["items"][0].append(0.0)),
    ("nine heroes", lambda fr, r: fr["heroes"].pop(int(r.integers(md.N_HEROES)))),
    ("eleven heroes", lambda fr, r: fr["heroes"].append(dict(fr["heroes"][0]))),
    ("tower count", lambda fr, r: fr["towers"].pop()),
    ("slot out of range", lambda fr, r: _hero(fr, r).update(slot=_pick(r, (10, -1, 2**70)))),
    ("huge hero_id", lambda fr, r: _hero(fr, r).update(hero_id=_pick(r, (2**31, 2**64)))),
    ("huge tick", lambda fr, r: fr.update(tick=_pick(r, (2**63, 2**70)))),
    ("item id out of range", lambda fr, r: _hero(fr, r, "items")["items"][0].__setitem__(
        0, _pick(r, (md.N_TRACKED_ITEMS, -1, 2**80)))),
    ("tower team out of range", lambda fr, r: _tower(fr, r).update(team=_pick(r, (2, -1, 2**70)))),
    ("number beyond float", lambda fr, r: _hero(fr, r).update({_pick(r, _NUMBERS): 10**400})),
    ("duplicate slot", _duplicate_slot),
    ("duplicate item", lambda fr, r: (lambda h: h["items"].append(list(h["items"][0])))(
        _hero(fr, r, "items"))),
    ("tower identity", _move_tower),
]

# (name, line index, edit) for the header and deaths lines
EDGE_CORRUPTIONS = [
    ("header bool tick_interval", 0, lambda o, r: o.update(tick_interval=True)),
    ("header float roster_size", 0, lambda o, r: o.update(roster_size=130.0)),
    ("header huge hero id", 0, lambda o, r: o["hero_ids"].__setitem__(0, 2**40)),
    ("header bool hero id", 0, lambda o, r: o["hero_ids"].__setitem__(0, True)),
    ("header eleven hero ids", 0, lambda o, r: o["hero_ids"].append(0)),
    ("header missing key", 0, lambda o, r: o.pop(_pick(r, md._HEADER_FIELDS))),
    ("header extra key", 0, lambda o, r: o.update(extra=0)),
    ("death slot out of range", -1, lambda o, r: o["deaths"][0].update(slot=_pick(r, (10, 300)))),
    ("death bool slot", -1, lambda o, r: o["deaths"][0].update(slot=True)),
    ("death bool time", -1, lambda o, r: o["deaths"][0].update(time=False)),
    ("death missing key", -1, lambda o, r: o["deaths"][0].pop(_pick(r, ("slot", "time")))),
    ("death extra key", -1, lambda o, r: o["deaths"][0].update(extra=0)),
]


class TestParserMutations:
    """Seeded single-field corruptions of one valid file with towers, items,
    abilities and heroes out of slot order: every one is a typed error, and
    one inside a frame names that frame."""

    def test_every_corruption_is_a_typed_error(self, rng):
        m = random_match(np.random.default_rng(20261101), n_frames=md._FRAME_BLOCK + 8,
                         with_towers=True)
        lines = permuted_lines(m, rng)
        assert md.parse_match(to_bytes(lines)) == m
        assert json.loads(lines[-1])["deaths"]
        for line in lines[1:-1]:
            heroes = json.loads(line)["heroes"]
            assert any(h["items"] for h in heroes) and any(h["abilities"] for h in heroes)
        n = m.n_frames
        used = set()
        for _ in range(300):
            if rng.random() < 0.8:
                name, edit = _pick(rng, FRAME_CORRUPTIONS)
                low = md._FRAME_BLOCK if name == "tower identity" else 1
                index = int(rng.integers(low, n)) + 1
                expect = rf"frame {index - 1}\b"
            else:
                name, index, edit = _pick(rng, EDGE_CORRUPTIONS)
                expect = None
            used.add(name)
            bad = to_bytes(edited(lines, index, lambda obj: edit(obj, rng)))
            with pytest.raises(DeathcastError, match=expect):
                md.parse_match(bad)
        assert used == {c[0] for c in FRAME_CORRUPTIONS + EDGE_CORRUPTIONS}


class TestRoundTrip:
    def test_random_round_trips(self, rng):
        for _ in range(50):
            m = random_match(rng)
            raw = md.write_match(m)
            m2 = md.parse_match(raw)
            assert m2 == m
            assert md.write_match(m2) == raw

    def test_writer_matches_per_element_reference(self, rng):
        cases = []
        for towers in (True, False):
            for pauses in (True, False):
                m = random_match(rng, n_frames=40, with_towers=towers, with_pauses=pauses)
                shape = m.ability_count.shape
                cases += [m,
                          m.replace(ability_count=np.zeros(shape),
                                    item_owned=np.zeros_like(m.item_owned)),
                          m.replace(ability_count=np.full(shape, md.N_ABILITY_SLOTS),
                                    death_slot=[], death_time=[])]
        cfg = sy.SynthConfig(n_frames=90, seed=4, pause_count=2, pause_length_ticks=10)
        cases += [sy.generate_match(cfg, i) for i in range(2)]
        # one run of structure: constancy is bitwise, so a lone -0.0 among
        # 0.0 (and the reverse) is formatted per frame, not baked in
        m = sy.generate_match(sy.SynthConfig(n_frames=50, seed=5), 0)
        for usual, odd in ((0.0, -0.0), (-0.0, 0.0)):
            health = m.health.copy()
            health[:, 2] = usual
            health[17, 2] = odd
            cases.append(m.replace(health=health))
        # reprs in exponent notation, fixed across frames and changing
        state, stats = m.state.copy(), m.stats.copy()
        extremes = [1e-05, 1e+16, 5e-324, 1.7976931348623157e+308]
        state[:, 1, :4] = stats[:, 1, :4] = extremes
        stats[::2, 1, :4] = np.negative(extremes)
        cases.append(m.replace(state=state, stats=stats))
        # one frame, with and without towers, and a towers section of none
        one = np.arange(m.n_frames) < 1
        frame0 = m.replace(**{name: getattr(m, name)[one] for name, _, shape in md._COLUMNS
                              if shape[0] == "frames" and getattr(m, name) is not None},
                           death_slot=[], death_time=[])
        cases += [random_match(rng, n_frames=1, with_towers=True),
                  random_match(rng, n_frames=1, with_towers=False), frame0,
                  frame0.replace(tower_team=None, tower_pos=None, tower_alive=None),
                  m.replace(tower_team=[], tower_pos=np.zeros((0, 2)),
                            tower_alive=np.zeros((m.n_frames, 0), dtype=bool))]
        # longer than two frame blocks; hero 3 gains an item and an ability
        # mid-match, which starts a run with a template of its own
        assert m.n_frames > 2 * md._FRAME_BLOCK
        owned, cooldown = m.item_owned.copy(), m.item_cooldown.copy()
        item = int(np.flatnonzero(~owned[0, 3])[0])
        owned[20:, 3, item] = True
        cooldown[20:, 3, item] = np.linspace(9.0, 0.0, m.n_frames - 20)
        count, abilities = m.ability_count.copy(), m.abilities.copy()
        count[40:, 3] += 1
        abilities[40:, 3, count[0, 3]] = [2.0, 600.0, 75.0, 12.5, 0.0, 1.0]
        cases.append(m.replace(item_owned=owned, item_cooldown=cooldown,
                               ability_count=count, abilities=abilities))
        # the random records of acceptance criterion 10 (its rng fixture)
        crit10 = np.random.default_rng(20260808)
        cases += [random_match(crit10) for _ in range(40)]
        for m in cases:
            assert md.write_match(m) == reference_write_match(m)

    @pytest.mark.parametrize("edit,message", [
        (lambda m: {"health": np.where(np.arange(10) == 4, np.nan, m.health)}, "non-finite"),
        (lambda m: {"pos": np.where(np.arange(2) == 1, np.inf, m.pos)}, "non-finite"),
        (lambda m: {"health": m.max_health + 1.0}, "exceeds max_health"),
    ], ids=["nan health", "inf position", "health above max_health"])
    def test_invalid_record_is_not_written(self, rng, tmp_path, edit, message):
        m = random_match(rng, n_frames=6)
        bad = m.replace(**edit(m))
        with pytest.raises(SchemaViolation, match=message):
            md.write_match(bad)
        with pytest.raises(SchemaViolation, match=message):
            md.save_match(bad, tmp_path / "m.jsonl.gz")
        assert list(tmp_path.iterdir()) == []

    def test_writes_are_deterministic(self, rng):
        m = random_match(rng)
        assert md.write_match(m) == md.write_match(m)

    def test_no_deaths_gives_empty_deaths_section(self, rng):
        m = random_match(rng)
        raw = md.write_match(m.replace(death_slot=[], death_time=[]))
        assert raw.rstrip(b"\n").rsplit(b"\n", 1)[1] == b'{"deaths":[]}'

    def test_replace_swaps_named_fields_and_shares_the_rest(self, rng):
        m = random_match(rng)
        assert m.replace() == m
        m2 = m.replace(match_id="other", death_slot=[], death_time=[])
        assert m2.match_id == "other" and m2.death_slot.size == 0
        assert m2.health is m.health and m2.tower_team is m.tower_team
        with pytest.raises(TypeError):
            m.replace(helth=m.health)

    def test_save_load_gzip_stable(self, rng, tmp_path):
        m = random_match(rng)
        p = tmp_path / "m.jsonl.gz"
        md.save_match(m, p)
        md.save_match(md.load_match(p), tmp_path / "m2.jsonl.gz")
        assert p.read_bytes() == (tmp_path / "m2.jsonl.gz").read_bytes()


class TestStripPauses:
    def test_keeps_unpaused_in_order(self, rng):
        src = random_match(rng, n_frames=5)
        m = src.replace(paused=np.isin(np.arange(5), (2, 3)))
        out = md.strip_pauses(m)
        assert out.n_frames == 3
        assert list(out.tick) == [0, 1, 4]
        assert np.array_equal(out.death_time, m.death_time)

    def test_identity_when_no_pauses(self, rng):
        m = random_match(rng, with_pauses=False)
        assert md.strip_pauses(m) is m

    def test_all_paused_raises(self, rng):
        m = random_match(rng, n_frames=3)
        with pytest.raises(EmptyMatch):
            md.strip_pauses(m.replace(paused=np.ones(3, dtype=bool)))

    def test_random_mask_count_oracle(self, rng):
        for _ in range(20):
            m = random_match(rng, n_frames=int(rng.integers(3, 30)), with_pauses=True)
            expected = int((~m.paused).sum())
            if expected == 0:
                continue
            assert md.strip_pauses(m).n_frames == expected

    def test_idempotent(self, rng):
        m = random_match(rng, n_frames=10, with_pauses=True)
        once = md.strip_pauses(m)
        assert md.strip_pauses(once) == once


class TestValidate:
    def test_well_formed_is_empty(self, rng):
        for _ in range(10):
            assert md.validate_match(random_match(rng)).ok

    def test_health_over_max_flagged(self, rng):
        m = random_match(rng, n_frames=3)
        m.health[1, 4] = m.max_health[1, 4] + 1
        rep = md.validate_match(m)
        assert not rep.ok
        assert any("frame 1" in v.location and "slot 4" in v.location
                   for v in rep.violations)

    def test_death_beyond_last_frame_flagged(self, rng):
        m = random_match(rng, n_frames=3)
        bad = m.replace(death_slot=[0], death_time=[float(m.game_time[-1]) + 100.0])
        rep = md.validate_match(bad)
        assert any("death 0" in v.location for v in rep.violations)

    def test_validated_match_survives_write_parse(self, rng):
        for _ in range(10):
            m = random_match(rng)
            assert md.validate_match(m).ok
            md.parse_match(md.write_match(m))  # must not raise


class TestStoreRecord:
    def test_random_round_trips(self, rng):
        for _ in range(30):
            m = random_match(rng)
            blob = md.encode_match(m)
            m2 = md.decode_match(blob)
            assert m2 == m
            assert m2.match_id == m.match_id and m2.has_towers == m.has_towers
            assert md.encode_match(m2) == blob

    def test_towers_section_without_towers_round_trips(self, rng):
        m = random_match(rng, with_towers=False)
        m = m.replace(tower_team=np.zeros(0), tower_pos=np.zeros((0, 2)),
                     tower_alive=np.zeros((m.n_frames, 0), dtype=bool))
        assert md.decode_match(md.encode_match(m)).has_towers

    def test_load_match_picks_decoder_by_magic(self, rng, tmp_path):
        m = random_match(rng)
        md.save_match(m, tmp_path / "m.jsonl")
        (tmp_path / "m.dmatch").write_bytes(md.encode_match(m))
        assert md.load_match(tmp_path / "m.jsonl") == m
        assert md.load_match(tmp_path / "m.dmatch") == m

    def test_version_1_records_decode(self, rng):
        for _ in range(40):
            m = random_match(rng)
            assert md.decode_match(reference_encode_match_v1(m)) == m

    def test_corrupted_byte(self, rng):
        blob = bytearray(md.encode_match(random_match(rng)))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ChecksumMismatch):
            md.decode_match(bytes(blob))

    def test_bad_version_is_typed_error(self, rng):
        blob = bytearray(md.encode_match(random_match(rng)))
        blob[4:6] = (md.MATCH_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(VersionMismatch):
            md.decode_match(reseal(blob))

    def test_resealed_header_mutations_raise_or_validate(self, rng):
        m = random_match(rng, n_frames=6, with_towers=True)
        blob = md.encode_match(m)
        raised = 0
        for bad in header_mutations(blob, md._HEADER.size, 400, seed=20261019):
            try:
                decoded = md.decode_match(bad)
            except DeathcastError:
                raised += 1
            else:
                assert md.validate_match(decoded).ok
        assert raised > 200

    @pytest.mark.parametrize("field,at", [("frames", 12), ("deaths", 16), ("towers", 20)])
    def test_resealed_huge_count_is_typed_error(self, rng, field, at):
        blob = bytearray(md.encode_match(random_match(rng, with_towers=True)))
        blob[at:at + 4] = (2**32 - 1).to_bytes(4, "little")
        with pytest.raises(ChecksumMismatch, match="expected"):
            md.decode_match(reseal(blob))

    def test_non_utf8_match_id_is_typed_error(self, rng):
        m = random_match(rng, match_id="abcd")
        blob = bytearray(md.encode_match(m))
        blob[-28:-24] = b"\xff\xfe\xfd\xfc"  # the id, before the source digest and checksum
        with pytest.raises(SchemaViolation, match="UTF-8"):
            md.decode_match(reseal(blob))

    def test_invariant_breach_is_refused(self, rng):
        m = random_match(rng, n_frames=3)
        health = m.health.copy()
        health[1, 4] = m.max_health[1, 4] + 1
        with pytest.raises(SchemaViolation, match="invariant breach"):
            md.decode_match(md.encode_match(m.replace(health=health)))

    def test_values_the_line_format_cannot_hold_are_refused(self, rng):
        m = random_match(rng, n_frames=3)
        alive = m.alive.copy()
        alive.view(np.uint8)[0, 0] = 2
        count = m.ability_count.copy()
        count[0, 0] = 0
        abilities = m.abilities.copy()
        abilities[0, 0, 0, 0] = 1.0
        owned = m.item_owned.copy()
        owned[0, 0, 0] = False
        cooldown = m.item_cooldown.copy()
        cooldown[0, 0, 0] = 3.0
        game_time = m.game_time.copy()
        game_time[1] = np.nan
        for bad in (dict(alive=alive),
                    dict(ability_count=np.full_like(count, md.N_ABILITY_SLOTS + 1)),
                    dict(ability_count=count, abilities=abilities),
                    dict(item_owned=owned, item_cooldown=cooldown),
                    dict(death_slot=[md.N_HEROES], death_time=[float(m.game_time[0])]),
                    dict(game_time=game_time)):
            with pytest.raises(SchemaViolation):
                md.decode_match(md.encode_match(m.replace(**bad)))

    def test_unencodable_match_is_typed_error(self, rng):
        m = random_match(rng)
        with pytest.raises(SchemaViolation):
            md.encode_match(m.replace(roster_size=2**70))
        with pytest.raises(SchemaViolation):
            md.encode_match(m.replace(match_id="\ud800"))


class TestLoadMatchReusesRecord:
    """load_match on <id>.jsonl decodes the <id>.dmatch beside it when that
    record holds the digest of exactly the text read, and parses the text
    otherwise."""

    @pytest.fixture
    def stored(self, rng, tmp_path):
        m = random_match(rng, n_frames=6)
        text = md.write_match(m)
        (tmp_path / "m.jsonl").write_bytes(text)
        (tmp_path / "m.dmatch").write_bytes(md.encode_match(m, source=text))
        return m, text, tmp_path

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The inputs of every parse_match call."""
        calls = []
        parse = md.parse_match

        def counted(data):
            calls.append(data)
            return parse(data)

        monkeypatch.setattr(md, "parse_match", counted)
        return calls

    def test_record_of_the_same_text_is_decoded(self, stored, parsed):
        m, text, d = stored
        got = md.load_match(d / "m.jsonl")
        assert got == m and parsed == []
        assert not got.health.flags.writeable
        blob = (d / "m.dmatch").read_bytes()
        assert blob[-24:-8] == hashlib.blake2b(text, digest_size=16).digest()
        assert md.encode_match(m)[-24:-8] == bytes(16)

    @pytest.mark.parametrize("case", ["edited digit", "other match", "version 1",
                                      "body byte flipped", "missing", "unreadable"])
    def test_any_other_sibling_leaves_the_text_parsed(self, rng, stored, parsed, case):
        m, text, d = stored
        sibling = d / "m.dmatch"
        if case == "edited digit":  # same length, still a valid match
            at = text.index(b'"pos_x":') + len(b'"pos_x":')
            text = text[:at] + str((int(chr(text[at])) + 1) % 10).encode() + text[at + 1:]
            (d / "m.jsonl").write_bytes(text)
        elif case == "other match":
            other = random_match(rng)
            sibling.write_bytes(md.encode_match(other, source=md.write_match(other)))
        elif case == "version 1":
            sibling.write_bytes(reference_encode_match_v1(m))
        elif case == "body byte flipped":  # not resealed, so the checksum fails
            blob = bytearray(sibling.read_bytes())
            blob[md._HEADER.size] ^= 0xFF
            sibling.write_bytes(bytes(blob))
        elif case == "missing":
            sibling.unlink()
        else:
            sibling.unlink()
            sibling.mkdir()
        got = md.load_match(d / "m.jsonl")
        assert parsed == [text]
        assert got == md.parse_match(text)
        assert (got == m) == (case != "edited digit")

    def test_gzip_path_is_parsed(self, stored, parsed):
        m, text, d = stored
        packed = gzip.compress(text, mtime=0)
        (d / "m.jsonl.gz").write_bytes(packed)
        for name in ("m.dmatch", "m.jsonl.dmatch"):
            (d / name).write_bytes(md.encode_match(m, source=packed))
        assert md.load_match(d / "m.jsonl.gz") == m
        assert parsed == [packed]
