import os

import numpy as np
import pytest

from deathcast import dataset as ds
from deathcast import features as ft
from deathcast import match_data as md
from deathcast import model as mo
from deathcast import synth as sy
from deathcast import train as tr
from deathcast.errors import (ChecksumMismatch, DeathcastError, InsufficientPositives,
                              NonPositiveWindow, SchemaMismatch, SchemaViolation)
from deathcast.util import hash64

from conftest import header_mutations, random_match, reseal
from oracles import brute_force_labels, reference_balanced_batch


class TestLabels:
    def test_death_inside_window(self, rng):
        m = random_match(rng, n_frames=2, with_pauses=False)
        m.game_time[0] = 5.5
        m.game_time[1] = 11.0
        m2 = _with_deaths(m, [(0, 10.0)])
        assert ds.label_frames(m2, 5.0)[0, 0]

    def test_death_outside_window(self, rng):
        m = random_match(rng, n_frames=2, with_pauses=False)
        m.game_time[0] = 4.9
        m.game_time[1] = 11.0
        m2 = _with_deaths(m, [(0, 10.0)])
        assert not ds.label_frames(m2, 5.0)[0, 0]

    def test_death_at_sample_time_is_past(self, rng):
        m = random_match(rng, n_frames=2, with_pauses=False)
        m.game_time[0] = 10.0
        m.game_time[1] = 12.0
        m2 = _with_deaths(m, [(3, 10.0)])
        assert not ds.label_frames(m2, 5.0)[0, 3]

    def test_window_boundary_inclusive(self, rng):
        m = random_match(rng, n_frames=2, with_pauses=False)
        m.game_time[0] = 5.0
        m.game_time[1] = 12.0
        m2 = _with_deaths(m, [(7, 10.0)])
        assert ds.label_frames(m2, 5.0)[0, 7]

    def test_nonpositive_window(self, rng):
        m = random_match(rng, with_pauses=False)
        with pytest.raises(NonPositiveWindow):
            ds.label_frames(m, 0.0)
        with pytest.raises(NonPositiveWindow):
            ds.label_frames(m, float("nan"))

    def test_requires_stripped(self, rng):
        m = random_match(rng, n_frames=20, with_pauses=True)
        if not m.paused.any():
            pytest.skip("no pause drawn")
        with pytest.raises(SchemaViolation):
            ds.label_frames(m)

    def test_brute_force_oracle_random_matches(self, rng):
        for _ in range(30):
            m = md.strip_pauses(random_match(rng, n_frames=int(rng.integers(2, 40))))
            w = float(rng.uniform(0.5, 8.0))
            assert np.array_equal(ds.label_frames(m, w), brute_force_labels(m, w))

    def test_brute_force_oracle_synth(self, rng):
        cfg = sy.SynthConfig(n_frames=300, seed=5)
        for i in range(5):
            m = sy.generate_match(cfg, i)
            assert np.array_equal(ds.label_frames(m, 5.0), brute_force_labels(m, 5.0))


def _with_deaths(m, deaths):
    return m.replace(death_slot=[s for s, _ in deaths], death_time=[t for _, t in deaths])


class TestDownsample:
    def test_twelve_ticks_period_four(self, rng):
        m = random_match(rng, n_frames=12)
        assert len(ds.downsample(m, 4)) == 3

    def test_period_one_identity(self, rng):
        m = random_match(rng, n_frames=7)
        assert np.array_equal(ds.downsample(m, 1), np.arange(7))

    def test_count_oracle_consecutive_ticks(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 200))
            p = int(rng.integers(1, 9))
            m = random_match(rng, n_frames=min(n, 50))
            n = m.n_frames
            assert len(ds.downsample(m, p)) == int(np.ceil(n / p))

    def test_bad_period(self, rng):
        with pytest.raises(ValueError):
            ds.downsample(random_match(rng), 0)


def make_columns(rng, n, per_hero=3, pos_prob=0.2):
    """(features, labels, match_keys, game_times) sample columns."""
    return (rng.random((n, md.N_HEROES, per_hero)).astype("<f4"),
            rng.random((n, md.N_HEROES)) < pos_prob,
            rng.integers(1 << 60, size=n).astype("<u8"),
            rng.uniform(0, 100, n).astype("<f4"))


def make_shard(rng, variant, n):
    feats, labels, keys, times = make_columns(rng, n)
    return ds.Shard(variant=variant, features=feats, labels=labels,
                    match_keys=keys, game_times=times)


class TestUndersample:
    def test_positives_always_kept(self, rng):
        labels = rng.random((200, md.N_HEROES)) < 0.9
        keep = ds.undersample_mask(labels, 0.9, seed=1)
        assert keep[labels.any(axis=1)].all()

    def test_drop_zero_is_identity(self, rng):
        labels = rng.random((50, md.N_HEROES)) < 0.2
        assert ds.undersample_mask(labels, 0.0, seed=1).all()

    def test_deterministic(self, rng):
        labels = rng.random((300, md.N_HEROES)) < 0.2
        a = ds.undersample_mask(labels, 0.5, seed=42)
        b = ds.undersample_mask(labels, 0.5, seed=42)
        assert np.array_equal(a, b)

    def test_kept_fraction_statistical(self):
        labels = np.zeros((100_000, md.N_HEROES), dtype=bool)
        keep = ds.undersample_mask(labels, 0.5, seed=20260808)
        assert abs(keep.mean() - 0.5) < 0.01


class TestShards:
    def test_chunking_9000(self, rng, tmp_path):
        paths = ds.write_shards(*make_columns(rng, 9000), tmp_path, "minimal")
        sizes = [len(ds.read_shard(p)) for p in paths]
        assert sizes == [4000, 4000, 1000]

    def test_round_trip(self, rng, tmp_path):
        for trial in range(10):
            cols = make_columns(rng, int(rng.integers(1, 50)), per_hero=15)
            paths = ds.write_shards(*cols, tmp_path, "minimal", prefix=f"t{trial}")
            shard = ds.read_shard(paths[0])
            blob1 = paths[0].read_bytes()
            assert ds.encode_shard(shard) == blob1
            feats, labels, keys, times = cols
            for i in range(len(shard)):
                assert np.array_equal(shard.features[i], feats[i])
                assert np.array_equal(shard.labels[i], labels[i])
                assert shard.match_keys[i] == keys[i]
                assert shard.game_times[i] == times[i]

    def test_corrupted_byte(self, rng, tmp_path):
        (path,) = ds.write_shards(*make_columns(rng, 10), tmp_path, "minimal")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            ds.read_shard(path)

    def test_variant_mismatch(self, rng, tmp_path):
        (path,) = ds.write_shards(*make_columns(rng, 5), tmp_path, "minimal")
        with pytest.raises(SchemaMismatch):
            ds.read_shard(path, expect_variant="full")

    def test_failed_write_keeps_existing_shard_and_checkpoint(self, rng, tmp_path, monkeypatch):
        (shard,) = ds.write_shards(*make_columns(rng, 10), tmp_path, "minimal")
        cfg = mo.small_check_config()
        schema = ft.feature_schema("minimal")
        stats = ft.NormalizationStats(schema, mins=np.zeros(schema.per_hero_count),
                                      maxs=np.ones(schema.per_hero_count))
        checkpoint = tmp_path / "c.dckpt"
        mo.save_checkpoint(mo.init_params(cfg, rng), stats, checkpoint)
        before = {p: p.read_bytes() for p in (shard, checkpoint)}

        def refuse(src, dst):
            raise OSError(f"refusing to rename {src}")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refusing"):
            ds.write_shards(*make_columns(rng, 10), tmp_path, "minimal")
        with pytest.raises(OSError, match="refusing"):
            mo.save_checkpoint(mo.init_params(cfg, rng), stats, checkpoint, step=1)
        assert {p: p.read_bytes() for p in before} == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_resealed_header_mutations_raise_typed_errors(self, rng):
        blob = ds.encode_shard(make_shard(rng, "medium", 20))
        raised = 0
        for bad in header_mutations(blob, 24, 300, seed=20261018):
            try:
                ds.decode_shard(bad)
            except DeathcastError:
                raised += 1
        assert raised > 100

    def test_resealed_pad_byte_is_typed_error(self, rng):
        blob = bytearray(ds.encode_shard(make_shard(rng, "medium", 20)))
        assert blob[7] == 0  # magic 4, version 2, variant 1, then the pad byte
        blob[7] = 0xAB
        with pytest.raises(ChecksumMismatch, match="pad"):
            ds.decode_shard(reseal(blob))

    @pytest.mark.parametrize("n", [0, 20])
    def test_resealed_huge_per_hero_is_typed_error(self, rng, n):
        for per_hero in (60_000_000, 2**32 - 1):
            blob = bytearray(ds.encode_shard(make_shard(rng, "medium", n)))
            blob[8:12] = per_hero.to_bytes(4, "little")
            blob[12:16] = (0).to_bytes(4, "little")  # sample count
            with pytest.raises(ChecksumMismatch):
                ds.decode_shard(reseal(blob))

    def test_capacity_enforced(self, rng):
        with pytest.raises(SchemaViolation):
            ds.Shard(variant="minimal",
                     features=np.zeros((4001, 10, 3), dtype="<f4"),
                     labels=np.zeros((4001, 10), dtype=bool),
                     match_keys=np.zeros(4001, dtype="<u8"),
                     game_times=np.zeros(4001, dtype="<f4"))


class TestSplit:
    def test_partition_and_fractions(self, rng):
        ids = [f"m{i}" for i in range(250)]
        split = ds.split_matches(ids, seed=3)
        assert len(split.train) == 200 and len(split.val) == 25 and len(split.test) == 25
        assert sorted(split.all_ids()) == sorted(ids)
        assert not (set(split.train) & set(split.val))
        assert not (set(split.train) & set(split.test))
        assert not (set(split.val) & set(split.test))

    def test_deterministic(self):
        ids = [f"m{i}" for i in range(40)]
        assert ds.split_matches(ids, seed=7) == ds.split_matches(ids, seed=7)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaViolation):
            ds.split_matches(["a", "a", "b"], seed=0)


def pool_from_labels(rng, labels, per_hero=3, shard_size=None):
    labels = np.asarray(labels, dtype=bool)
    n = len(labels)
    feats = rng.random((n, 10, per_hero)).astype("<f4")
    shard_size = shard_size or ds.SHARD_CAPACITY
    shards = [ds.Shard(variant="minimal", features=feats[i:i + shard_size],
                       labels=labels[i:i + shard_size],
                       match_keys=np.arange(i, min(n, i + shard_size), dtype="<u8"),
                       game_times=np.arange(i, min(n, i + shard_size), dtype="<f4"))
              for i in range(0, n, shard_size)]
    return ds.ShardPool(shards)


class TestBalancedBatch:
    def test_exact_half_positive(self, rng):
        labels = rng.random((2000, 10)) < 0.3
        pool = pool_from_labels(rng, labels, shard_size=400)
        for _ in range(20):
            batch = ds.sample_balanced_batch(pool, 128, rng)
            col = batch.labels[:, batch.selected_slot]
            assert col.sum() == 64 and (~col).sum() == 64

    def test_no_positives_anywhere(self, rng):
        labels = np.zeros((500, 10), dtype=bool)
        pool = pool_from_labels(rng, labels)
        with pytest.raises(InsufficientPositives):
            ds.sample_balanced_batch(pool, 128, rng)

    def test_top_up_across_shards(self, rng):
        # each shard holds only 8 positives for slot 0; a 128-batch needs 64
        labels = np.zeros((400, 10), dtype=bool)
        labels[::50, 0] = True
        pool = pool_from_labels(rng, labels, shard_size=50)
        batch = ds.sample_balanced_batch(pool, 16, rng)
        assert batch.labels[:, batch.selected_slot].sum() == 8

    def test_only_satisfiable_slots_selected(self, rng):
        labels = np.zeros((600, 10), dtype=bool)
        labels[:100, 4] = True  # only slot 4 has positives
        pool = pool_from_labels(rng, labels, shard_size=200)
        for _ in range(10):
            batch = ds.sample_balanced_batch(pool, 64, rng)
            assert batch.selected_slot == 4

    def test_mixed_variant_pool_rejected(self, rng):
        s1 = make_shard(rng, "minimal", 3)
        s2 = make_shard(rng, "full", 3)
        with pytest.raises(SchemaMismatch):
            ds.ShardPool([s1, s2])

    def test_mixed_per_hero_pool_rejected(self, rng):
        # two full-schema datasets with different rosters
        s1, s2 = (ds.Shard("full", *make_columns(rng, 3, per_hero=per_hero))
                  for per_hero in (287, 160))
        with pytest.raises(SchemaMismatch, match=r"\[160, 287\]"):
            ds.ShardPool([s1, s2])

    @pytest.mark.parametrize("batch_size", [2, 16, 128])
    @pytest.mark.parametrize("layout", ["uneven", "no-candidates", "top-up"])
    def test_batch_stream_matches_per_row_reference(self, layout, batch_size):
        shards = _stream_shards(layout)
        pool = ds.ShardPool(shards)
        rng_pool, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            batch = ds.sample_balanced_batch(pool, batch_size, rng_pool)
            features, labels, slot = reference_balanced_batch(shards, batch_size, rng_ref)
            assert batch.selected_slot == slot
            assert np.array_equal(batch.features, features)
            assert np.array_equal(batch.labels, labels)
        assert rng_pool.bit_generator.state == rng_ref.bit_generator.state


def _stream_shards(layout):
    """Shards whose draws exercise one path of the balanced sampler each."""
    rng = np.random.default_rng(20261018)
    if layout == "uneven":  # shard sizes from 5 to 1500 samples
        spec = [(700, 0.3), (37, 0.3), (1500, 0.3), (5, 0.3), (260, 0.3)]
    elif layout == "no-candidates":  # shards without positives or without negatives
        spec = [(300, 0.0), (90, 1.0), (0, 0.5), (500, 0.4), (60, 0.0)]
    else:  # about 3 positives per shard and slot: a half batch spans many shards
        spec = [(30, 0.1)] * 40
    return [ds.Shard("minimal", *make_columns(rng, n, per_hero=4, pos_prob=p))
            for n, p in spec]


class TestPoolMemory:
    @pytest.fixture(params=["from_paths", "from_shards"])
    def pool(self, request, rng, tmp_path):
        paths = ds.write_shards(*make_columns(rng, 9000), tmp_path, "minimal")
        if request.param == "from_paths":
            return ds.ShardPool.from_paths(paths, "val")
        return ds.ShardPool([ds.read_shard(p) for p in paths], "val")

    def test_shards_view_the_pool_arrays(self, pool):
        assert [len(s) for s in pool.shards] == [4000, 4000, 1000]
        for shard in pool.shards:
            assert np.shares_memory(shard.features, pool.all_features())
            assert np.shares_memory(shard.labels, pool.all_labels())
        assert np.array_equal(pool.all_features(),
                              np.concatenate([s.features for s in pool.shards]))

    def test_all_columns_are_not_copied(self, pool):
        assert np.shares_memory(pool.all_features(), pool.all_features())
        assert np.shares_memory(pool.all_labels(), pool.all_labels())

    @pytest.mark.parametrize("cap", [5000, 20000])
    def test_validation_arrays_are_views(self, pool, cap):
        feats, labels = tr._validation_arrays(pool, cap)
        assert len(feats) == len(labels) == min(cap, len(pool))
        assert np.shares_memory(feats, pool.all_features())
        assert np.shares_memory(labels, pool.all_labels())


class TestBuildDataset:
    def test_end_to_end_manifest(self, rng, tmp_path):
        cfg = sy.SynthConfig(n_frames=240, seed=9)
        schema = ft.feature_schema("minimal")

        def provider():
            return (sy.generate_match(cfg, i) for i in range(12))

        manifest = ds.build_dataset(provider, tmp_path, schema,
                                    split_seed=1, shuffle_seed=2, drop_seed=3)
        assert len(manifest.split.train) == 10
        assert len(manifest.split.val) == 1
        assert len(manifest.split.test) == 1
        assert manifest.shard_paths["test"] == []  # test split is never sharded
        loaded = ds.DatasetManifest.load(tmp_path / "manifest.tsv")
        assert loaded.split == manifest.split
        assert loaded.shard_paths == manifest.shard_paths
        assert loaded.counts == manifest.counts
        pool = ds.ShardPool.from_paths(manifest.shard_paths["train"], "train",
                                       expect_variant="minimal")
        assert len(pool) == manifest.counts["train"]
        stats = ft.load_norm_stats(manifest.stats_path)
        assert stats.schema.variant == "minimal"

    def test_moved_directory_still_loads(self, tmp_path):
        cfg = sy.SynthConfig(n_frames=150, seed=4)
        schema = ft.feature_schema("minimal")
        built = ds.build_dataset(lambda: (sy.generate_match(cfg, i) for i in range(6)),
                                 tmp_path / "a", schema, split_seed=1)
        (tmp_path / "a").rename(tmp_path / "b")
        moved = ds.DatasetManifest.load(tmp_path / "b" / "manifest.tsv")
        assert moved.counts == built.counts
        pool = ds.ShardPool.from_paths(moved.shard_paths["train"], expect_variant="minimal")
        assert len(pool) == built.counts["train"]
        assert ft.load_norm_stats(moved.stats_path).schema == schema

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("window\t", "window\tnot-a-number"),
        lambda text: text.replace("variant\t", "flavour\t"),
        lambda text: text + "m99\tholdout\n",
        lambda text: text + "just one field\n",
    ])
    def test_malformed_manifest_is_typed_error(self, tmp_path, edit):
        cfg = sy.SynthConfig(n_frames=150, seed=4)
        ds.build_dataset(lambda: (sy.generate_match(cfg, i) for i in range(6)), tmp_path,
                         ft.feature_schema("minimal"), split_seed=1)
        path = tmp_path / "manifest.tsv"
        path.write_text(edit(path.read_text()))
        with pytest.raises(SchemaViolation):
            ds.DatasetManifest.load(path)

    def test_deterministic_rebuild(self, rng, tmp_path):
        cfg = sy.SynthConfig(n_frames=150, seed=4)
        schema = ft.feature_schema("minimal")

        def provider():
            return (sy.generate_match(cfg, i) for i in range(6))

        m1 = ds.build_dataset(provider, tmp_path / "a", schema, split_seed=1,
                              shuffle_seed=2, drop_seed=3)
        m2 = ds.build_dataset(provider, tmp_path / "b", schema, split_seed=1,
                              shuffle_seed=2, drop_seed=3)
        for part in ("train", "val"):
            for pa, pb in zip(m1.shard_paths[part], m2.shard_paths[part]):
                from pathlib import Path
                assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_hash_key_matches_match_ids(self, rng, tmp_path):
        cfg = sy.SynthConfig(n_frames=150, seed=4)
        schema = ft.feature_schema("minimal")

        def provider():
            return (sy.generate_match(cfg, i) for i in range(6))

        manifest = ds.build_dataset(provider, tmp_path, schema, split_seed=1,
                                    shuffle_seed=2, drop_seed=3)
        pool = ds.ShardPool.from_paths(manifest.shard_paths["train"], "train")
        train_keys = {hash64(mid) for mid in manifest.split.train}
        seen = set()
        for shard in pool.shards:
            seen.update(int(k) for k in shard.match_keys)
        assert seen <= train_keys

    def test_split_from_match_ids_loads_no_test_match(self, tmp_path):
        cfg = sy.SynthConfig(n_frames=150, seed=4)
        matches = {m.match_id: m for m in (sy.generate_match(cfg, i) for i in range(10))}
        ids = list(matches)
        schema = ft.feature_schema("minimal")
        every = ds.build_dataset(lambda: iter(matches.values()), tmp_path / "every", schema,
                                 split_seed=1)
        asked = []

        def provider(wanted):
            asked.extend(wanted)
            return (matches[mid] for mid in wanted)

        chosen = ds.build_dataset(provider, tmp_path / "chosen", schema, split_seed=1,
                                  match_ids=ids)
        assert len(every.split.test) == 1
        assert asked == [mid for mid in ids if mid not in every.split.test]
        assert chosen.split == every.split
        names = sorted(p.name for p in (tmp_path / "every").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "chosen").iterdir())
        for name in names:
            assert ((tmp_path / "every" / name).read_bytes()
                    == (tmp_path / "chosen" / name).read_bytes())
        with pytest.raises(SchemaViolation, match="did not yield"):
            ds.build_dataset(lambda wanted: (matches[mid] for mid in reversed(wanted)),
                             tmp_path / "reversed", schema, split_seed=1, match_ids=ids)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_provider_call_and_one_extraction_per_match(self, tmp_path, monkeypatch,
                                                            threads):
        cfg = sy.SynthConfig(n_frames=150, seed=4)
        matches = [sy.generate_match(cfg, i) for i in range(6)]
        calls = {"provider": 0, "extract": []}
        extract = ft.extract_match

        def provider():
            calls["provider"] += 1
            return iter(matches)

        def counted_extract(m, *args, **kwargs):
            calls["extract"].append(m.match_id)
            return extract(m, *args, **kwargs)

        monkeypatch.setattr(ft, "extract_match", counted_extract)
        ds.build_dataset(provider, tmp_path, ft.feature_schema("minimal"), split_seed=1,
                         threads=threads)
        assert calls["provider"] == 1
        assert sorted(calls["extract"]) == sorted(m.match_id for m in matches)
