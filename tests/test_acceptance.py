"""Acceptance gate: every release criterion, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Criterion 8 trains a model end to end and takes a few
minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from deathcast import cli
from deathcast import dataset as ds
from deathcast import evaluation as ev
from deathcast import features as ft
from deathcast import match_data as md
from deathcast import model as mo
from deathcast import synth as sy
from deathcast import train as tr

from conftest import random_match
from oracles import brute_force_ap, brute_force_labels, brute_force_pr, brute_force_spearman_rho

SEED = 20260808


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print("\n" + line)
    assert ok, line


def test_01_gradient_verification():
    t0 = time.time()
    worst = 0.0
    for trial in range(10):
        cfg = mo.small_check_config(seed=trial)  # 15 features, (8,4)/(8), batch 4, f64
        rep = mo.gradient_check(cfg, tolerance=1e-4)
        worst = max(worst, rep.max_rel_error)
    elapsed = time.time() - t0
    report(1, "gradient verification", worst < 1e-4 and elapsed < 10.0,
           f"(max rel err {worst:.3e}, {elapsed:.1f}s)")


def test_02_schema_counts(capsys):
    ok = True
    detail = []
    for variant, expect in (("full", 287), ("medium", 109), ("minimal", 15)):
        assert cli.main(["schema-dump", "--schema", variant]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ok &= len(lines) == expect
        detail.append(f"{variant}={len(lines)}")
    cfg = mo.default_config("full")
    ok &= cfg.head_input_width == 640
    params = mo.init_params(cfg)
    ok &= params.head_w[0].shape[0] == 640
    detail.append(f"head_in={cfg.head_input_width}")
    report(2, "schema counts", ok, "(" + ", ".join(detail) + ")")


def test_03_label_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    cfg = sy.SynthConfig(n_frames=400, seed=1)
    for i in range(50):
        if i % 2 == 0:
            m = sy.generate_match(cfg, i)
        else:
            m = md.strip_pauses(random_match(rng, n_frames=int(rng.integers(2, 60))))
        w = float(rng.uniform(1.0, 8.0)) if i % 2 else 5.0
        mismatches += int((ds.label_frames(m, w) != brute_force_labels(m, w)).sum())
    elapsed = time.time() - t0
    report(3, "label oracle equivalence", mismatches == 0 and elapsed < 30.0,
           f"({mismatches} mismatches over 50 matches, {elapsed:.1f}s)")


def test_04_metric_oracles():
    rng = np.random.default_rng(SEED)
    worst_pr = worst_ap = worst_rho = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        scores = np.round(rng.random(n), 2)
        labels = rng.random(n) < rng.uniform(0.05, 0.6)
        if not labels.any():
            labels[int(rng.integers(n))] = True
        curve = ev.pr_curve(scores, labels)
        expect = brute_force_pr(list(scores), list(labels))
        assert len(curve.thresholds) == len(expect)
        for i, (th, p, r) in enumerate(expect):
            worst_pr = max(worst_pr, abs(curve.precision[i] - p), abs(curve.recall[i] - r))
        worst_ap = max(worst_ap, abs(ev.average_precision(curve)
                                     - brute_force_ap(list(scores), list(labels))))
        x = rng.integers(0, 8, n).astype(float)
        y = rng.integers(0, 8, n).astype(float)
        if (x == x[0]).all() or (y == y[0]).all():
            continue
        rho, _ = ev.spearman(x, y)
        worst_rho = max(worst_rho, abs(rho - brute_force_spearman_rho(list(x), list(y))))
    ok = worst_pr < 1e-12 and worst_ap < 1e-12 and worst_rho < 1e-12
    report(4, "metric oracles", ok,
           f"(pr {worst_pr:.2e}, ap {worst_ap:.2e}, rho {worst_rho:.2e}, 1000 instances)")


def test_05_balancing_invariants():
    rng = np.random.default_rng(SEED)
    # pool: 3 shards x 4000 samples, ~20% positive per slot
    shards = []
    for _ in range(3):
        labels = rng.random((4000, 10)) < 0.2
        feats = rng.random((4000, 10, 15)).astype("<f4")
        shards.append(ds.Shard(variant="minimal", features=feats, labels=labels,
                               match_keys=np.zeros(4000, dtype="<u8"),
                               game_times=np.zeros(4000, dtype="<f4")))
    pool = ds.ShardPool(shards)
    counts = np.zeros(10, dtype=int)
    exact = True
    for _ in range(10_000):
        batch = ds.sample_balanced_batch(pool, 128, rng)
        col = batch.labels[:, batch.selected_slot]
        if col.sum() != 64 or len(col) != 128:
            exact = False
        counts[batch.selected_slot] += 1
    sigma = np.sqrt(10_000 * 0.1 * 0.9)
    uniform = bool((np.abs(counts - 1000) <= 3 * sigma).all())

    all_neg = np.zeros((100_000, 10), dtype=bool)
    kept = ds.undersample_mask(all_neg, 0.5, seed=SEED).mean()
    drop_ok = abs(kept - 0.5) < 0.01
    report(5, "balancing invariants", exact and uniform and drop_ok,
           f"(64/64 exact={exact}, slot counts {counts.min()}..{counts.max()} "
           f"vs 1000+-{3 * sigma:.0f}, kept {kept:.4f})")


def test_06_masked_output_property():
    rng = np.random.default_rng(SEED)
    ok = True
    for trial in range(10):
        cfg = mo.small_check_config(seed=trial)
        params = mo.init_params(cfg)
        feats = rng.random((cfg.batch_size, 10, cfg.per_hero_count))
        labels = rng.random((cfg.batch_size, 10)) < 0.5
        slot = trial % 10
        from deathcast.dataset import BalancedBatch
        base = BalancedBatch(features=feats, labels=labels, selected_slot=slot)
        flipped = labels.copy()
        mask = np.ones(10, dtype=bool)
        mask[slot] = False
        flipped[:, mask] = ~flipped[:, mask]
        other = BalancedBatch(features=feats, labels=flipped, selected_slot=slot)
        l1, g1 = mo.loss_and_grad(params, base)
        l2, g2 = mo.loss_and_grad(params, other)
        ok &= l1 == l2
        ok &= all(np.array_equal(a, b) for (_, a), (_, b) in zip(g1.arrays(), g2.arrays()))
    report(6, "masked-output property", ok, "(10 trials, exact zero change)")


def test_07_encoder_slot_invariance():
    rng = np.random.default_rng(SEED)
    ok = True
    for variant in ("minimal", "medium", "full"):
        cfg = mo.default_config(variant, seed=1)
        params = mo.init_params(cfg)
        v = rng.random(cfg.per_hero_count).astype(np.float32)
        feats = rng.random((1, 10, cfg.per_hero_count)).astype(np.float32)
        reprs = []
        for slot in (0, 3, 9):
            x = feats.copy()
            x[0, slot] = v
            _, trace = mo.forward(params, x)
            enc = trace.encoder_act[-1].reshape(1, 10, -1)
            reprs.append(enc[0, slot].copy())
        ok &= np.array_equal(reprs[0], reprs[1]) and np.array_equal(reprs[0], reprs[2])
    report(7, "encoder slot-invariance", ok, "(bit-identical across slots, 3 variants)")


@pytest.fixture(scope="module")
def learnability_run(tmp_path_factory):
    """Criterion 8's end-to-end run; also reused by criterion 9's report check."""
    t0 = time.time()
    cfg = sy.SynthConfig()  # 250 matches: 200 train / 25 val / 25 test, 3000 frames
    schema = ft.feature_schema("minimal")
    out = tmp_path_factory.mktemp("learnability")

    def provider():
        return (sy.generate_match(cfg, i) for i in range(cfg.n_matches))

    manifest = ds.build_dataset(provider, out, schema, split_seed=11,
                                shuffle_seed=12, drop_seed=13, threads=2)
    train_pool = ds.ShardPool.from_paths(manifest.shard_paths["train"], "train")
    val_pool = ds.ShardPool.from_paths(manifest.shard_paths["val"], "val")
    stats = ft.load_norm_stats(manifest.stats_path)
    model_cfg = mo.ModelConfig(variant="minimal", per_hero_count=15,
                               shared_layers=(32, 16), final_layers=(32,),
                               learning_rate=1e-3, batch_size=128, seed=0, window=5.0)
    run_cfg = tr.TrainRunConfig(model=model_cfg, max_steps=15_000, val_interval=1000,
                                batch_seed=7)
    result = tr.train(run_cfg, train_pool, val_pool, stats=stats)
    test_matches = [sy.generate_match(cfg, int(mid.rsplit("-", 1)[1]))
                    for mid in manifest.split.test]
    rep = ev.evaluate_test(result.best_params, stats, test_matches, window=5.0)
    bayes = sy.bayes_ap(cfg, test_matches)
    elapsed = time.time() - t0
    return rep, bayes, result, elapsed


def test_08_synthetic_learnability(learnability_run):
    rep, bayes, result, elapsed = learnability_run
    ap = rep.average_precision
    need_rel = 0.8 * bayes
    need_abs = rep.positive_rate + 0.3
    ok = ap >= need_rel and ap >= need_abs and elapsed <= 900.0
    report(8, "synthetic learnability", ok,
           f"(test AP {ap:.4f} vs 0.8*bayes {need_rel:.4f} and pos+0.3 {need_abs:.4f}; "
           f"bayes {bayes:.4f}; {elapsed:.0f}s <= 900s; 15000 steps <= 50k)")


def test_08b_model_cannot_beat_oracle(learnability_run):
    # companion invariant: the trained model never beats the exact oracle
    rep, bayes, _, _ = learnability_run
    assert rep.average_precision <= bayes + 0.02


def _run_pipeline(root, threads="1"):
    raw, store, data, run, report_path = (root / "raw", root / "store", root / "data",
                                          root / "run", root / "report.tsv")
    assert cli.main(["synth", "--out", str(raw), "--matches", "12", "--frames", "1500",
                     "--seed", "5", "--threads", threads]) == 0
    assert cli.main(["ingest", "--matches", str(raw), "--out", str(store)]) == 0
    assert cli.main(["extract", "--store", str(store), "--out", str(data),
                     "--schema", "minimal", "--seed", "6", "--threads", threads]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--steps", "800",
                     "--val-interval", "400", "--seed", "7",
                     "--shared", "16,8", "--final", "16", "--lr", "1e-3"]) == 0
    assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                     "--data", str(data), "--store", str(store),
                     "--report", str(report_path), "--threads", threads]) == 0
    return root


def test_09_end_to_end_determinism(tmp_path):
    a = _run_pipeline(tmp_path / "a")
    b = _run_pipeline(tmp_path / "b")
    compared = 0
    ok = True
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        x = (a / rel).read_bytes()
        y = (b / rel).read_bytes()
        ok &= x == y
        compared += 1
    ok &= compared > 20
    report(9, "end-to-end determinism", ok,
           f"({compared} files byte-identical: shards, manifests, checkpoint, metrics, "
           "report, matches)")


def test_10_round_trips(tmp_path, rng):
    checked = 0
    ok = True
    # 40 match files
    for i in range(40):
        m = random_match(rng)
        raw1 = md.write_match(m)
        raw2 = md.write_match(md.parse_match(raw1))
        ok &= raw1 == raw2
        checked += 1
    # 40 binary match store records
    for i in range(40):
        m = random_match(rng)
        blob1 = md.encode_match(m)
        m2 = md.decode_match(blob1)
        blob2 = md.encode_match(m2)
        ok &= blob1 == blob2 and m2 == m
        checked += 1
    # 40 shards
    for i in range(40):
        n = int(rng.integers(1, 60))
        labels = rng.random((n, 10)) < 0.3
        shard = ds.Shard(variant="medium",
                         features=rng.random((n, 10, 109)).astype("<f4"),
                         labels=labels,
                         match_keys=rng.integers(0, 1 << 63, n).astype("<u8"),
                         game_times=rng.random(n).astype("<f4"))
        blob1 = ds.encode_shard(shard)
        blob2 = ds.encode_shard(ds.decode_shard(blob1))
        ok &= blob1 == blob2
        checked += 1
    # 20 checkpoints
    for i in range(20):
        cfg = mo.ModelConfig(variant="minimal", per_hero_count=15,
                             shared_layers=(int(rng.integers(2, 12)),),
                             final_layers=(int(rng.integers(2, 12)),),
                             learning_rate=float(rng.uniform(1e-5, 1e-2)),
                             seed=i, dtype="float32" if i % 2 else "float64")
        params = mo.init_params(cfg)
        schema = ft.feature_schema("minimal")
        lo = rng.random(15)
        stats = ft.NormalizationStats(schema, mins=lo, maxs=lo + rng.random(15))
        blob1 = mo.encode_checkpoint(params, stats, step=i)
        p2, s2, step = mo.decode_checkpoint(blob1)
        blob2 = mo.encode_checkpoint(p2, s2, step=step)
        ok &= blob1 == blob2
        checked += 1
    report(10, "round-trips", ok and checked == 140,
           f"({checked} instances: 40 match files, 40 match store records, 40 shards, "
           "20 checkpoints)")
