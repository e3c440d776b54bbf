import hashlib

import numpy as np
import pytest

from deathcast import match_data as md


def random_hero(rng, slot, hero_id, roster_size=130):
    max_health = float(rng.uniform(500, 1500))
    max_mana = float(rng.uniform(200, 600))
    n_items = int(rng.integers(0, 5))
    item_ids = rng.choice(md.N_TRACKED_ITEMS, size=n_items, replace=False)
    n_abil = int(rng.integers(0, md.N_ABILITY_SLOTS + 1))
    return md.HeroSnapshot(
        slot=slot,
        hero_id=hero_id,
        alive=bool(rng.random() > 0.1),
        health=float(rng.uniform(0, max_health)),
        max_health=max_health,
        mana=float(rng.uniform(0, max_mana)),
        max_mana=max_mana,
        pos_x=float(rng.uniform(0, 200)),
        pos_y=float(rng.uniform(0, 200)),
        visible_to_enemy=bool(rng.random() > 0.5),
        state_attrs=tuple(float(v) for v in rng.uniform(0, 50, md.N_STATE_ATTRS)),
        stat_attrs=tuple(float(v) for v in rng.uniform(0, 50, md.N_STAT_ATTRS)),
        items=tuple((int(i), float(rng.uniform(0, 90))) for i in sorted(item_ids)),
        abilities=tuple(tuple(float(v) for v in rng.uniform(0, 10, md.N_ABILITY_ATTRS))
                        for _ in range(n_abil)),
    )


def random_match(rng, n_frames=None, with_towers=None, with_pauses=False,
                 match_id=None, roster_size=130):
    """A structurally valid random match for round-trip style tests."""
    n_frames = int(rng.integers(2, 12)) if n_frames is None else n_frames
    with_towers = bool(rng.random() > 0.5) if with_towers is None else with_towers
    hero_ids = rng.choice(roster_size, size=md.N_HEROES, replace=False)
    tick_interval = 1.0 / 30.0
    towers_base = None
    if with_towers:
        n_t = int(rng.integers(1, 5))
        towers_base = [(int(rng.integers(0, 2)), float(rng.uniform(0, 200)),
                        float(rng.uniform(0, 200))) for _ in range(n_t)]
    frames = []
    t = 0.0
    for i in range(n_frames):
        paused = with_pauses and bool(rng.random() < 0.25) and 0 < i < n_frames - 1
        towers = None
        if with_towers:
            towers = tuple(md.Tower(team, x, y, bool(rng.random() > 0.3))
                           for team, x, y in towers_base)
        frames.append(md.TickFrame(
            tick=i,
            game_time=t,
            paused=paused,
            heroes=tuple(random_hero(rng, s, int(hero_ids[s]), roster_size)
                         for s in range(md.N_HEROES)),
            towers=towers,
        ))
        if not paused:
            t += tick_interval
    deaths = []
    t_last = frames[-1].game_time
    for s in range(md.N_HEROES):
        times = np.sort(rng.uniform(0, max(t_last, 1e-6), size=int(rng.integers(0, 3))))
        # strictly increasing per slot
        times = np.unique(times)
        deaths.extend(md.DeathEvent(s, float(x)) for x in times if 0 <= x <= t_last)
    deaths.sort(key=lambda d: (d.time, d.slot))
    if match_id is None:
        match_id = f"rand-{rng.integers(1 << 30)}"
    return md.MatchRecord.from_frames(match_id, frames, deaths,
                                      tick_interval=tick_interval, roster_size=roster_size)


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
