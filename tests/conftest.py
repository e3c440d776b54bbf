import hashlib

import numpy as np
import pytest

from deathcast import match_data as md


def _fill_random_hero(rng, cols, i, s):
    """Draw hero s of frame i into the columns."""
    max_health = rng.uniform(500, 1500)
    max_mana = rng.uniform(200, 600)
    n_items = int(rng.integers(0, 5))
    item_ids = np.sort(rng.choice(md.N_TRACKED_ITEMS, size=n_items, replace=False))
    n_abil = int(rng.integers(0, md.N_ABILITY_SLOTS + 1))
    cols["alive"][i, s] = rng.random() > 0.1
    cols["health"][i, s] = rng.uniform(0, max_health)
    cols["max_health"][i, s] = max_health
    cols["mana"][i, s] = rng.uniform(0, max_mana)
    cols["max_mana"][i, s] = max_mana
    cols["pos"][i, s] = rng.uniform(0, 200, 2)
    cols["visible"][i, s] = rng.random() > 0.5
    cols["state"][i, s] = rng.uniform(0, 50, md.N_STATE_ATTRS)
    cols["stats"][i, s] = rng.uniform(0, 50, md.N_STAT_ATTRS)
    cols["item_owned"][i, s, item_ids] = True
    cols["item_cooldown"][i, s, item_ids] = rng.uniform(0, 90, n_items)
    cols["ability_count"][i, s] = n_abil
    cols["abilities"][i, s, :n_abil] = rng.uniform(0, 10, (n_abil, md.N_ABILITY_ATTRS))


def random_match(rng, n_frames=None, with_towers=None, with_pauses=False,
                 match_id=None, roster_size=130):
    """A structurally valid random match for round-trip style tests."""
    n_frames = int(rng.integers(2, 12)) if n_frames is None else n_frames
    with_towers = bool(rng.random() > 0.5) if with_towers is None else with_towers
    hero_ids = rng.choice(roster_size, size=md.N_HEROES, replace=False)
    tick_interval = 1.0 / 30.0
    cols = md._empty_columns(n_frames)
    cols.update(tower_team=None, tower_pos=None, tower_alive=None)
    if with_towers:
        n_t = int(rng.integers(1, 5))
        towers = [(rng.integers(0, 2), rng.uniform(0, 200), rng.uniform(0, 200))
                  for _ in range(n_t)]
        cols["tower_team"] = [team for team, _, _ in towers]
        cols["tower_pos"] = [[x, y] for _, x, y in towers]
        cols["tower_alive"] = np.zeros((n_frames, n_t), dtype=bool)
    t = 0.0
    for i in range(n_frames):
        paused = with_pauses and bool(rng.random() < 0.25) and 0 < i < n_frames - 1
        cols["tick"][i], cols["game_time"][i], cols["paused"][i] = i, t, paused
        if with_towers:
            cols["tower_alive"][i] = rng.random(n_t) > 0.3
        for s in range(md.N_HEROES):
            _fill_random_hero(rng, cols, i, s)
        if not paused:
            t += tick_interval
    deaths = []
    t_last = float(cols["game_time"][-1])
    for s in range(md.N_HEROES):
        # unique: strictly increasing per slot
        times = np.unique(rng.uniform(0, max(t_last, 1e-6), size=int(rng.integers(0, 3))))
        deaths.extend((float(x), s) for x in times if 0 <= x <= t_last)
    deaths.sort()
    if match_id is None:
        match_id = f"rand-{rng.integers(1 << 30)}"
    return md.MatchRecord(match_id=match_id, tick_interval=tick_interval,
                          roster_size=roster_size, hero_ids=hero_ids,
                          death_slot=[s for _, s in deaths], death_time=[x for x, _ in deaths],
                          **cols)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def reseal(blob):
    """Replace a binary artifact's trailing 8-byte blake2b checksum so a
    corrupted header reaches the decoder's content checks."""
    body = bytes(blob[:-8])
    return body + hashlib.blake2b(body, digest_size=8).digest()


def header_mutations(blob, n_bytes, count, seed):
    """`count` seeded copies of blob, each with one of its first n_bytes
    replaced by a random byte or one aligned 4-byte field by a random
    uint32, re-sealed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        out = bytearray(blob)
        if rng.random() < 0.5:
            out[int(rng.integers(n_bytes))] = int(rng.integers(256))
        else:
            at = 4 * int(rng.integers(n_bytes // 4))
            out[at:at + 4] = int(rng.integers(1 << 32)).to_bytes(4, "little")
        yield reseal(out)


@pytest.fixture
def bounded_schema(monkeypatch):
    """Make the schema builder fail fast when it would name a roster above
    10,000 (one hero_id feature per entry), so a decoder that builds a
    schema from a corrupt roster fails its test instead of exhausting
    memory. A roster the schema has no names for is not limited."""
    from deathcast import features as ft
    real = ft._full_blocks

    def guarded(roster_size):
        assert roster_size <= 10_000, f"schema names built for roster {roster_size}"
        return real(roster_size)

    monkeypatch.setattr(ft, "_full_blocks", guarded)
