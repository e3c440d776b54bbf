import hashlib

import numpy as np
import pytest

from deathcast import features as ft
from deathcast import match_data as md
from deathcast.errors import DeathcastError, EmptyStream, SchemaMismatch

from conftest import random_match
from oracles import extract_frame, fresh_history


def extract_sequential(m, schema, indices):
    hist = fresh_history()
    out = []
    for i in indices:
        f, hist = extract_frame(m, int(i), schema, hist)
        out.append(f.per_hero)
    return np.stack(out) if out else np.zeros((0, 10, schema.per_hero_count))


def extract_one(m, schema, i):
    """Frame i's (10, F) features, extracted as a match's only sample."""
    return ft.extract_match(m, schema, [i])[0][0]


class TestSchema:
    @pytest.mark.parametrize("variant,count", [("minimal", 15), ("medium", 109), ("full", 287)])
    def test_per_hero_counts(self, variant, count):
        schema = ft.feature_schema(variant)
        assert schema.per_hero_count == count
        assert len(schema.names) == len(schema.categories) == count

    def test_full_frame_width(self):
        assert 10 * ft.feature_schema("full").per_hero_count == 2870

    def test_dump_lists_every_feature(self):
        schema = ft.feature_schema("full")
        lines = ft.dump_schema(schema).splitlines()
        assert len(lines) == 287
        assert lines[0].endswith("time")

    def test_medium_drops_onehot_and_abilities(self):
        schema = ft.feature_schema("medium")
        assert not any(c in ("hero_id", "abilities") for c in schema.categories)

    @pytest.mark.parametrize("variant,names_digest,categories_digest", [
        ("minimal", "2ca439c0d81812dd", "d6cac76393951ccc"),
        ("medium", "a425680b00392a91", "24a6b65b74534f9d"),
        ("full", "ac95b1b4803fcb41", "a9951b24fd4b3ed4"),
    ])
    def test_feature_order_is_pinned(self, variant, names_digest, categories_digest):
        # the oracle looks features up by name, so only this catches a reorder
        # that moves the schema and the extraction together
        schema = ft.feature_schema(variant, roster_size=130)

        def digest(xs):
            return hashlib.blake2b("\n".join(xs).encode(), digest_size=8).hexdigest()
        assert digest(schema.names) == names_digest
        assert digest(schema.categories) == categories_digest

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ft.feature_schema("huge")


class TestExtract:
    def test_three_four_five_triangle(self, rng):
        m = random_match(rng, n_frames=1, with_towers=False)
        m.pos[:] = 100.0  # stack everyone far away
        m.pos[0, 0] = (0.0, 0.0)  # slot 0, team A
        m.pos[0, 5] = (3.0, 4.0)  # slot 5, team B
        schema = ft.feature_schema("minimal")
        f = extract_one(m, schema, 0)
        enemy_cols = slice(schema.index_of("enemy_proximity_1"), schema.index_of("enemy_proximity_5") + 1)
        assert 5.0 in f[0, enemy_cols]
        assert 5.0 in f[5, enemy_cols]

    def test_first_frame_changes_are_zero(self, rng):
        m = random_match(rng, n_frames=3)
        schema = ft.feature_schema("full")
        f = extract_one(m, schema, 0)
        for name in schema.names:
            if name.endswith("_change"):
                assert (f[:, schema.index_of(name)] == 0).all()

    def test_change_is_per_second_difference(self, rng):
        m = random_match(rng, n_frames=2, with_towers=False)
        schema = ft.feature_schema("full")
        feats, _ = ft.extract_match(m, schema, [0, 1])
        dt = m.game_time[1] - m.game_time[0]
        expect = (m.pos[1, :, 0] - m.pos[0, :, 0]) / dt
        got = feats[1, :, schema.index_of("pos_x_change")]
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("variant", ft.VARIANTS)
    def test_no_indices_gives_empty_block(self, rng, variant):
        schema = ft.feature_schema(variant)
        feats, gt = ft.extract_match(random_match(rng, n_frames=5), schema, [])
        assert feats.shape == (0, 10, schema.per_hero_count)
        assert gt.shape == (0,)

    def test_onehot_single_bit(self, rng):
        m = random_match(rng, n_frames=1)
        schema = ft.feature_schema("full")
        f = extract_one(m, schema, 0)
        lo = schema.index_of("hero_id_0")
        block = f[:, lo:lo + schema.roster_size]
        assert (block.sum(axis=1) == 1).all()
        assert (block.argmax(axis=1) == m.hero_ids).all()

    def test_onehot_roster_mismatch(self, rng):
        m = random_match(rng, n_frames=1, roster_size=40)
        schema = ft.feature_schema("full", roster_size=130)
        with pytest.raises(SchemaMismatch):
            ft.extract_match(m, schema, [0])

    def test_ability_zero_padding(self, rng):
        m = random_match(rng, n_frames=1)
        m.ability_count[:] = 2
        m.abilities[:, :, 2:, :] = 0.0
        schema = ft.feature_schema("full")
        f = extract_one(m, schema, 0)
        lo = schema.index_of("ability3_level")
        assert (f[:, lo:lo + 6 * 6] == 0).all()

    def test_empty_tower_list_gives_zeros(self, rng):
        m = random_match(rng, n_frames=2, with_towers=False)
        m2 = m.replace(tower_team=np.zeros(0, dtype=np.int8), tower_pos=np.zeros((0, 2)),
                       tower_alive=np.zeros((2, 0), dtype=bool))
        schema = ft.feature_schema("minimal")
        f = extract_one(m2, schema, 0)
        assert (f[:, schema.index_of("ally_tower_proximity")] == 0).all()
        bulk, _ = ft.extract_match(m2, schema)
        assert (bulk[:, :, schema.index_of("enemy_tower_proximity")] == 0).all()

    def test_missing_towers_zero_and_warn(self, rng, caplog):
        m = random_match(rng, n_frames=2, with_towers=False)
        schema = ft.feature_schema("minimal")
        with caplog.at_level("WARNING"):
            f = extract_one(m, schema, 0)
        assert (f[:, schema.index_of("ally_tower_proximity")] == 0).all()
        assert any("tower" in r.message for r in caplog.records)

    def test_proximities_sorted_ascending(self, rng):
        m = random_match(rng, n_frames=1)
        schema = ft.feature_schema("minimal")
        f = extract_one(m, schema, 0)
        lo = schema.index_of("ally_proximity_1")
        ally = f[:, lo:lo + 4]
        assert (np.diff(ally, axis=1) >= 0).all()
        lo = schema.index_of("enemy_proximity_1")
        enemy = f[:, lo:lo + 5]
        assert (np.diff(enemy, axis=1) >= 0).all()


class TestSlotPermutation:
    def test_team_consistent_permutation_permutes_outputs(self, rng):
        m = random_match(rng, n_frames=1, with_towers=True)
        schema = ft.feature_schema("medium")
        f = extract_one(m, schema, 0)

        perm = np.r_[rng.permutation(5), 5 + rng.permutation(5)]
        # new slot k holds the hero of old slot perm[k]
        hero_columns = {name: getattr(m, name)[:, perm] for name, _, shape in md._COLUMNS
                        if shape[:2] == ("frames", md.N_HEROES)}
        m2 = m.replace(match_id="perm", hero_ids=m.hero_ids[perm],
                       death_slot=np.argsort(perm)[m.death_slot], **hero_columns)
        assert np.array_equal(extract_one(m2, schema, 0), f[perm])


class TestBulkEqualsSequential:
    @pytest.mark.parametrize("variant", ["minimal", "medium", "full"])
    def test_bulk_matches_sequential(self, rng, variant):
        schema = ft.feature_schema(variant)
        for _ in range(5):
            m = random_match(rng, n_frames=int(rng.integers(2, 40)))
            period = int(rng.integers(1, 5))
            idx = np.arange(m.n_frames)[::period]
            bulk, gt = ft.extract_match(m, schema, idx)
            seq = extract_sequential(m, schema, idx)
            assert np.array_equal(bulk, seq)
            assert np.array_equal(gt, m.game_time[idx])

    def test_visibility_history_long_match(self, rng):
        # long enough that the 10-second ring wraps several times
        m = random_match(rng, n_frames=800)
        schema = ft.feature_schema("full")
        idx = np.arange(0, 800, 4)
        bulk, _ = ft.extract_match(m, schema, idx)
        seq = extract_sequential(m, schema, idx)
        assert np.array_equal(bulk, seq)


class TestNormalization:
    def test_single_frame_constant(self):
        schema = ft.feature_schema("minimal")
        const = np.full((10, 15), 3.5)
        stats = ft.compute_norm_stats([const], schema=schema)
        assert (stats.mins == 3.5).all() and (stats.maxs == 3.5).all()

    def test_two_values(self):
        schema = ft.feature_schema("minimal")
        a = np.full((10, 15), 2.0)
        b = np.full((10, 15), 8.0)
        stats = ft.compute_norm_stats([a, b], schema=schema)
        assert (stats.mins == 2.0).all() and (stats.maxs == 8.0).all()

    def test_brute_force_oracle(self, rng):
        schema = ft.feature_schema("minimal")
        blocks = [rng.normal(size=(int(rng.integers(1, 7)), 10, 15)) for _ in range(8)]
        stats = ft.compute_norm_stats(blocks, schema=schema)
        flat = np.concatenate([b.reshape(-1, 15) for b in blocks])
        assert np.array_equal(stats.mins, flat.min(axis=0))
        assert np.array_equal(stats.maxs, flat.max(axis=0))

    def test_empty_stream(self):
        with pytest.raises(EmptyStream):
            ft.compute_norm_stats([], schema=ft.feature_schema("minimal"))

    def test_min_to_zero_max_to_one(self):
        schema = ft.feature_schema("minimal")
        stats = ft.NormalizationStats(schema, mins=np.zeros(15) + 2, maxs=np.zeros(15) + 10)
        x = np.full((10, 15), 2.0)
        assert (ft.normalize_array(x, stats) == 0).all()
        x = np.full((10, 15), 10.0)
        assert (ft.normalize_array(x, stats) == 1).all()

    def test_constant_feature_maps_to_zero(self):
        schema = ft.feature_schema("minimal")
        stats = ft.NormalizationStats(schema, mins=np.full(15, 5.0), maxs=np.full(15, 5.0))
        x = np.full((10, 15), 5.0)
        assert (ft.normalize_array(x, stats) == 0).all()

    def test_out_of_range_clamped(self):
        schema = ft.feature_schema("minimal")
        stats = ft.NormalizationStats(schema, mins=np.zeros(15), maxs=np.ones(15))
        x = np.full((10, 15), 4.0)
        assert (ft.normalize_array(x, stats) == 1).all()
        x = np.full((10, 15), -4.0)
        assert (ft.normalize_array(x, stats) == 0).all()

    def test_identity_stats_idempotent(self, rng):
        schema = ft.feature_schema("minimal")
        stats = ft.NormalizationStats(schema, mins=np.zeros(15), maxs=np.ones(15))
        x = rng.random((10, 15))
        once = ft.normalize_array(x, stats)
        assert np.array_equal(ft.normalize_array(once, stats), once)

    def test_normalized_training_data_in_unit_box(self, rng):
        schema = ft.feature_schema("medium")
        m = random_match(rng, n_frames=20)
        feats, _ = ft.extract_match(m, schema)
        stats = ft.compute_norm_stats([feats], schema=schema)
        out = ft.normalize_array(feats, stats)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_stats_file_round_trip(self, rng, tmp_path):
        schema = ft.feature_schema("medium")
        m = random_match(rng, n_frames=6)
        feats, _ = ft.extract_match(m, schema)
        stats = ft.compute_norm_stats([feats], schema=schema)
        path = tmp_path / "stats.tsv"
        ft.save_norm_stats(stats, path)
        loaded = ft.load_norm_stats(path)
        assert loaded.schema == stats.schema
        assert np.array_equal(loaded.mins, stats.mins)
        assert np.array_equal(loaded.maxs, stats.maxs)

    @pytest.mark.parametrize("edit", [
        lambda lines: [],
        lambda lines: ["schema\tminimal\tmany"] + lines[1:],
        lambda lines: ["schema\tbogus\t130"] + lines[1:],
        lambda lines: ["schema\tmedium\t4000000000"] + lines[1:],
        lambda lines: ["schema\tfull\t4000000000"] + lines[1:],
        lambda lines: lines[:1] + ["health\t0.0"] + lines[2:],
        lambda lines: lines[:1] + ["health\tlow\thigh"] + lines[2:],
        lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:],
        lambda lines: ["schema\tminimal\t\u00b2"] + lines[1:],
    ])
    def test_malformed_stats_file_is_typed_error(self, tmp_path, edit, bounded_schema):
        schema = ft.feature_schema("minimal")
        stats = ft.NormalizationStats(schema, mins=np.zeros(15), maxs=np.ones(15))
        path = tmp_path / "stats.tsv"
        ft.save_norm_stats(stats, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(DeathcastError):
            ft.load_norm_stats(path)

    @pytest.mark.parametrize("variant", ["minimal", "medium"])
    def test_roster_larger_than_stats_file_round_trips(self, tmp_path, variant,
                                                       bounded_schema):
        # these schemas have no per-roster feature, so any roster is valid
        schema = ft.feature_schema(variant, roster_size=4_000_000_000)
        n = schema.per_hero_count
        stats = ft.NormalizationStats(schema, mins=np.zeros(n), maxs=np.ones(n))
        path = tmp_path / "stats.tsv"
        ft.save_norm_stats(stats, path)
        assert path.stat().st_size < schema.roster_size
        loaded = ft.load_norm_stats(path)
        assert loaded.schema == schema
        assert np.array_equal(loaded.maxs, stats.maxs)
