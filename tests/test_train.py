import numpy as np
import pytest

from deathcast import dataset as ds
from deathcast import features as ft
from deathcast import model as mo
from deathcast import synth as sy
from deathcast import train as tr
from deathcast.errors import SchemaViolation


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Shards + stats from a small synthetic corpus, shared by the module."""
    cfg = sy.SynthConfig(n_frames=1500, seed=31)
    schema = ft.feature_schema("minimal")
    out = tmp_path_factory.mktemp("corpus")

    def provider():
        return (sy.generate_match(cfg, i) for i in range(40))

    manifest = ds.build_dataset(provider, out, schema,
                                split_seed=1, shuffle_seed=2, drop_seed=3)
    train_pool = ds.ShardPool.from_paths(manifest.shard_paths["train"], "train")
    val_pool = ds.ShardPool.from_paths(manifest.shard_paths["val"], "val")
    stats = ft.load_norm_stats(manifest.stats_path)
    return cfg, manifest, train_pool, val_pool, stats


def small_model(seed=0, lr=1e-3):
    return mo.ModelConfig(variant="minimal", per_hero_count=15, shared_layers=(16, 8),
                          final_layers=(16,), learning_rate=lr, batch_size=128,
                          seed=seed, window=5.0)


class TestTrain:
    def test_zero_steps_returns_initial(self, small_corpus):
        _, _, train_pool, val_pool, stats = small_corpus
        cfg = tr.TrainRunConfig(model=small_model(), max_steps=0, val_interval=10)
        result = tr.train(cfg, train_pool, val_pool, stats=stats)
        assert result.history == []
        fresh = mo.init_params(small_model())
        for (_, a), (_, b) in zip(result.best_params.arrays(), fresh.arrays()):
            assert np.array_equal(a, b)

    def test_determinism(self, small_corpus):
        _, _, train_pool, val_pool, stats = small_corpus
        runs = []
        for _ in range(2):
            cfg = tr.TrainRunConfig(model=small_model(seed=4), max_steps=300,
                                    val_interval=100, batch_seed=9)
            runs.append(tr.train(cfg, train_pool, val_pool, stats=stats))
        assert runs[0].history == runs[1].history
        for (_, a), (_, b) in zip(runs[0].best_params.arrays(), runs[1].best_params.arrays()):
            assert np.array_equal(a, b)

    def test_learns_above_no_skill(self, small_corpus):
        _, _, train_pool, val_pool, stats = small_corpus
        cfg = tr.TrainRunConfig(model=small_model(), max_steps=4000, val_interval=500,
                                batch_seed=5)
        result = tr.train(cfg, train_pool, val_pool, stats=stats)
        pos_rate = val_pool.all_labels().mean()
        assert result.best_val_ap >= pos_rate + 0.3

    def test_best_ap_is_running_max(self, small_corpus):
        _, _, train_pool, val_pool, stats = small_corpus
        cfg = tr.TrainRunConfig(model=small_model(), max_steps=600, val_interval=200,
                                batch_seed=6)
        result = tr.train(cfg, train_pool, val_pool, stats=stats)
        aps = [ap for _, _, ap in result.history]
        assert result.best_val_ap == max(aps)

    def test_best_params_keep_their_own_buffer(self, small_corpus):
        # at this learning rate the best checkpoint comes before the last step, so
        # the later updates must not reach it
        _, _, train_pool, val_pool, stats = small_corpus
        cfg = tr.TrainRunConfig(model=small_model(lr=3e-2), max_steps=600, val_interval=100,
                                batch_seed=6)
        result = tr.train(cfg, train_pool, val_pool, stats=stats)
        assert result.best_step < cfg.max_steps
        val_feats, val_labels = tr._validation_arrays(val_pool, cfg.val_max_samples)
        assert tr.validation_ap(result.best_params, val_feats, val_labels) == result.best_val_ap

    def test_refuses_test_pool(self, small_corpus):
        _, _, train_pool, val_pool, stats = small_corpus
        test_pool = ds.ShardPool(val_pool.shards, split="test")
        cfg = tr.TrainRunConfig(model=small_model(), max_steps=1, val_interval=1)
        with pytest.raises(SchemaViolation):
            tr.train(cfg, train_pool, test_pool, stats=stats)
        with pytest.raises(SchemaViolation):
            tr.train(cfg, test_pool, val_pool, stats=stats)

    def test_metrics_log_format(self, small_corpus, tmp_path):
        _, _, train_pool, val_pool, stats = small_corpus
        cfg = tr.TrainRunConfig(model=small_model(), max_steps=200, val_interval=100)
        result = tr.train(cfg, train_pool, val_pool, stats=stats)
        path = tmp_path / "metrics.tsv"
        tr.save_metrics_log(result.history, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.history)
        step, loss, ap = lines[0].split("\t")
        assert int(step) == 100
        float(loss), float(ap)

    def test_checkpoint_written(self, small_corpus, tmp_path):
        _, _, train_pool, val_pool, stats = small_corpus
        path = tmp_path / "best.dckpt"
        cfg = tr.TrainRunConfig(model=small_model(), max_steps=100, val_interval=50,
                                checkpoint_path=str(path))
        result = tr.train(cfg, train_pool, val_pool, stats=stats)
        params, stats2, step = mo.load_checkpoint(path)
        assert step == result.best_step
        for (_, a), (_, b) in zip(params.arrays(), result.best_params.arrays()):
            assert np.array_equal(a, b)


class TestFullSchemaSmoke:
    def test_full_schema_pipeline_runs(self, tmp_path):
        # the 287-wide path end to end: build, train a little, evaluate
        cfg = sy.SynthConfig(n_frames=1200, seed=8)
        schema = ft.feature_schema("full")

        def provider():
            return (sy.generate_match(cfg, i) for i in range(10))

        manifest = ds.build_dataset(provider, tmp_path, schema,
                                    split_seed=1, shuffle_seed=2, drop_seed=3)
        train_pool = ds.ShardPool.from_paths(manifest.shard_paths["train"], "train")
        val_pool = ds.ShardPool.from_paths(manifest.shard_paths["val"], "val")
        stats = ft.load_norm_stats(manifest.stats_path)
        assert train_pool.shards[0].per_hero_count == 287
        model_cfg = mo.ModelConfig(variant="full", per_hero_count=287,
                                   shared_layers=(32, 16), final_layers=(32,),
                                   learning_rate=1e-3, batch_size=32, seed=0)
        run = tr.TrainRunConfig(model=model_cfg, max_steps=40, val_interval=20)
        result = tr.train(run, train_pool, val_pool, stats=stats)
        assert len(result.history) == 2
        from deathcast.evaluation import evaluate_test
        test = [sy.generate_match(cfg, int(mid.rsplit("-", 1)[1]))
                for mid in manifest.split.test]
        rep = evaluate_test(result.best_params, stats, test, window=5.0)
        assert rep.n_samples == sum(int(np.ceil(m.n_frames / 4)) * 10 for m in test)


class TestRandomSearch:
    def test_budget_one_returns_that_config(self, small_corpus):
        _, _, train_pool, val_pool, _ = small_corpus
        space = tr.SearchSpace(variant="minimal", budget=1, seed=3,
                               steps_per_trial=50, val_interval=25,
                               width_choices=(8, 16))
        result = tr.random_search(space, train_pool, val_pool)
        assert len(result.trials) == 1
        assert result.best_config == result.trials[0].config

    def test_single_point_space_identical_trials(self, small_corpus):
        _, _, train_pool, val_pool, _ = small_corpus
        space = tr.SearchSpace(variant="minimal", budget=3, seed=3,
                               n_shared_range=(2, 2), n_final_range=(1, 1),
                               width_choices=(8,), lr_log10_range=(-3.0, -3.0),
                               steps_per_trial=60, val_interval=30)
        result = tr.random_search(space, train_pool, val_pool)
        cfgs = {(t.config.shared_layers, t.config.final_layers, t.config.learning_rate)
                for t in result.trials}
        assert len(cfgs) == 1
        # per-trial seeds differ, so APs may differ slightly; ranking must
        # still prefer higher AP then fewer parameters then earlier index
        ranked = result.ranked
        keys = [(-t.val_ap, t.n_params, t.index) for t in ranked]
        assert keys == sorted(keys)

    def test_same_seed_same_sampled_configs(self, small_corpus):
        _, _, train_pool, val_pool, _ = small_corpus
        space = tr.SearchSpace(variant="minimal", budget=4, seed=11,
                               steps_per_trial=30, val_interval=30,
                               width_choices=(8, 16, 32))
        a = tr.random_search(space, train_pool, val_pool)
        b = tr.random_search(space, train_pool, val_pool)
        for ta, tb in zip(a.trials, b.trials):
            assert ta.config == tb.config
            assert ta.val_ap == tb.val_ap

    def test_best_of_eight_at_least_median(self, small_corpus):
        _, _, train_pool, val_pool, _ = small_corpus
        space = tr.SearchSpace(variant="minimal", budget=8, seed=2,
                               steps_per_trial=400, val_interval=200,
                               width_choices=(8, 16, 32),
                               lr_log10_range=(-4.0, -2.0))
        result = tr.random_search(space, train_pool, val_pool)
        aps = sorted(t.val_ap for t in result.trials)
        assert result.ranked[0].val_ap >= aps[len(aps) // 2]

    def test_budget_zero_rejected(self, small_corpus):
        _, _, train_pool, val_pool, _ = small_corpus
        with pytest.raises(ValueError):
            tr.random_search(tr.SearchSpace(variant="minimal", budget=0),
                             train_pool, val_pool)

    def test_trial_table_file(self, small_corpus, tmp_path):
        _, _, train_pool, val_pool, _ = small_corpus
        space = tr.SearchSpace(variant="minimal", budget=2, seed=1,
                               steps_per_trial=30, val_interval=30,
                               width_choices=(8,))
        result = tr.random_search(space, train_pool, val_pool)
        path = tmp_path / "trials.tsv"
        tr.save_trial_table(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("index\t")
