import numpy as np
import pytest

from deathcast import evaluation as ev
from deathcast import match_data as md
from deathcast import model as mo
from deathcast import synth as sy
from deathcast import features as ft
from deathcast.dataset import downsample
from deathcast.errors import ConstantInput, LengthMismatch, NoPositives

from oracles import brute_force_ap, brute_force_pr, brute_force_spearman_rho


class TestPRCurve:
    def test_two_points_perfect(self):
        curve = ev.pr_curve([0.9, 0.1], [True, False])
        assert (curve.precision == 1.0).any()
        assert curve.recall[-1] == 1.0

    def test_inverted_scores_precision_at_full_recall(self):
        labels = [True, True, False, False, False]
        scores = [0.1, 0.2, 0.8, 0.9, 0.7]
        curve = ev.pr_curve(scores, labels)
        assert curve.recall[-1] == 1.0
        assert curve.precision[-1] == pytest.approx(2 / 5)

    def test_monotone_structure(self, rng):
        scores = rng.random(300)
        labels = rng.random(300) < 0.3
        curve = ev.pr_curve(scores, labels)
        assert (np.diff(curve.thresholds) < 0).all()
        assert (np.diff(curve.recall) >= 0).all()

    def test_brute_force_recount(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 200))
            scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 0.9], size=n)
            labels = rng.random(n) < 0.4
            if not labels.any():
                labels[0] = True
            curve = ev.pr_curve(scores, labels)
            expected = brute_force_pr(list(scores), list(labels))
            assert len(curve.thresholds) == len(expected)
            for i, (th, p, r) in enumerate(expected):
                assert curve.thresholds[i] == th
                assert abs(curve.precision[i] - p) < 1e-12
                assert abs(curve.recall[i] - r) < 1e-12

    def test_errors(self):
        with pytest.raises(NoPositives):
            ev.pr_curve([0.5, 0.6], [False, False])
        with pytest.raises(LengthMismatch):
            ev.pr_curve([0.5], [True, False])


class TestAveragePrecision:
    def test_perfect_ranking_is_one(self, rng):
        labels = np.r_[np.ones(10, bool), np.zeros(50, bool)]
        scores = np.r_[rng.uniform(0.8, 1.0, 10), rng.uniform(0.0, 0.5, 50)]
        assert ev.average_precision(ev.pr_curve(scores, labels)) == pytest.approx(1.0)

    def test_constant_scores_equal_positive_rate(self, rng):
        labels = rng.random(100) < 0.23
        labels[0] = True
        scores = np.full(100, 0.5)
        ap = ev.average_precision(ev.pr_curve(scores, labels))
        assert ap == pytest.approx(labels.mean())

    def test_brute_force_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 200))
            scores = np.round(rng.random(n), 2)
            labels = rng.random(n) < 0.3
            if not labels.any():
                labels[int(rng.integers(n))] = True
            ap = ev.average_precision(ev.pr_curve(scores, labels))
            assert abs(ap - brute_force_ap(list(scores), list(labels))) < 1e-12

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.random(150)
        labels = rng.random(150) < 0.2
        labels[0] = True
        a = ev.average_precision(ev.pr_curve(scores, labels))
        b = ev.average_precision(ev.pr_curve(np.exp(3 * scores), labels))
        assert abs(a - b) < 1e-12


class TestThresholdMetrics:
    def test_threshold_zero(self, rng):
        scores = rng.random(50)
        labels = rng.random(50) < 0.3
        labels[0] = True
        tm = ev.threshold_metrics(scores, labels, 0.0)
        assert tm.recall == 1.0
        assert tm.precision == pytest.approx(labels.mean())

    def test_above_max_score_undefined(self, rng):
        scores = rng.random(20) * 0.5
        labels = np.zeros(20, bool)
        labels[3] = True
        tm = ev.threshold_metrics(scores, labels, 0.99)
        assert tm.undefined
        assert np.isnan(tm.precision)
        assert tm.recall == 0.0

    def test_boundary_inclusive(self):
        tm = ev.threshold_metrics([0.9, 0.5], [True, False], 0.9)
        assert tm.predicted_positives == 1
        assert tm.recall == 1.0


class TestSpearman:
    def test_monotone_increasing(self, rng):
        x = rng.random(30)
        rho, p = ev.spearman(x, np.exp(x))
        assert rho == pytest.approx(1.0)
        assert p < 1e-6

    def test_monotone_decreasing(self, rng):
        x = rng.random(30)
        rho, _ = ev.spearman(x, -x ** 3)
        assert rho == pytest.approx(-1.0)

    def test_tie_laden_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            if (x == x[0]).all() or (y == y[0]).all():
                continue
            rho, _ = ev.spearman(x, y)
            assert abs(rho - brute_force_spearman_rho(list(x), list(y))) < 1e-12

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            ev.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(LengthMismatch):
            ev.spearman([1.0, 2.0], [1.0, 2.0])


@pytest.fixture(scope="module")
def synth_setup():
    cfg = sy.SynthConfig(n_frames=600, seed=21)
    matches = [sy.generate_match(cfg, 500 + i) for i in range(4)]
    schema = ft.feature_schema("minimal")
    feats = [ft.extract_match(m, schema)[0] for m in matches]
    stats = ft.compute_norm_stats(feats, schema=schema)
    mcfg = mo.ModelConfig(variant="minimal", per_hero_count=15, shared_layers=(8, 4),
                          final_layers=(8,), learning_rate=1e-3, seed=3, window=5.0)
    params = mo.init_params(mcfg)
    return cfg, matches, stats, params


class TestEvaluateTest:
    def test_sample_count_and_no_balancing(self, synth_setup):
        cfg, matches, stats, params = synth_setup
        report = ev.evaluate_test(params, stats, matches, period_ticks=4)
        expected = sum(int(np.ceil(m.n_frames / 4)) * 10 for m in matches)
        assert report.n_samples == expected
        assert 0.0 <= report.average_precision <= 1.0
        assert 0.9 in report.operating_points

    def test_constant_model_ap_near_positive_rate(self, synth_setup, rng):
        cfg, matches, stats, params = synth_setup
        flat = params.copy()
        for _, arr in flat.arrays():
            arr[:] = 0
        report = ev.evaluate_test(flat, stats, matches, period_ticks=4)
        assert report.average_precision == pytest.approx(report.positive_rate, abs=1e-9)

    def test_report_file(self, synth_setup, tmp_path):
        cfg, matches, stats, params = synth_setup
        report = ev.evaluate_test(params, stats, matches, period_ticks=4)
        ev.save_eval_report(report, tmp_path / "report.tsv")
        text = (tmp_path / "report.tsv").read_text()
        assert text.startswith("average_precision\t")
        assert "[pr_curve]" in text

    def test_threads_do_not_change_result(self, synth_setup):
        cfg, matches, stats, params = synth_setup
        a = ev.evaluate_test(params, stats, matches, period_ticks=4, threads=1)
        b = ev.evaluate_test(params, stats, matches, period_ticks=4, threads=2)
        assert a.average_precision == b.average_precision
        assert np.array_equal(a.curve.thresholds, b.curve.thresholds)


class TestTimeToDeath:
    def test_population_conservation(self, synth_setup):
        cfg, matches, stats, params = synth_setup
        report = ev.evaluate_test(params, stats, matches, period_ticks=4)
        dist = ev.time_to_death_distribution(report.matches)
        total = sum(b.count for b in dist.bins)
        expected = sum(int(np.ceil(m.n_frames / 4)) * 10 for m in matches)
        assert total == expected
        assert dist.bins[-1].label == "no_death"

    def test_never_dying_hero_all_in_no_death(self, synth_setup):
        cfg, matches, stats, params = synth_setup
        m = matches[0]
        never = [s for s in range(10) if len(m.deaths_for_slot(s)) == 0]
        if not never:
            pytest.skip("every hero died in this draw")
        report = ev.evaluate_test(params, stats, matches, period_ticks=4)
        dist = ev.time_to_death_distribution(report.matches[:1])
        per_bin = sum(b.count for b in dist.bins[:-1])
        deaths_possible = sum(1 for s in range(10) if len(m.deaths_for_slot(s)))
        assert per_bin <= int(np.ceil(m.n_frames / 4)) * deaths_possible

    def test_writer(self, synth_setup, tmp_path):
        cfg, matches, stats, params = synth_setup
        report = ev.evaluate_test(params, stats, matches, period_ticks=4)
        dist = ev.time_to_death_distribution(report.matches[:1])
        ev.save_ttd_distribution(dist, tmp_path / "ttd.tsv")
        lines = (tmp_path / "ttd.tsv").read_text().splitlines()
        assert len(lines) == len(dist.bins)
        assert lines[0].split("\t")[0] == "0-1s"

    def test_bins_equal_a_rescoring_reference(self, synth_setup):
        # score each match again from its record, then bin every (sampled
        # frame, slot) by the time to that slot's next death, one at a time
        cfg, matches, stats, params = synth_setup
        report = ev.evaluate_test(params, stats, matches, period_ticks=4)
        dist = ev.time_to_death_distribution(report.matches, horizon=20.0)
        expected = [[] for _ in range(21)]
        for m in matches:
            clean = md.strip_pauses(m)
            feats, gt = ft.extract_match(clean, stats.schema, downsample(clean, 4))
            probs = ev.predict_probs(params,
                                     ft.normalize_array(feats, stats).astype(np.float32))
            for s in range(10):
                deaths = sorted(clean.deaths_for_slot(s))
                for i, t in enumerate(gt):
                    later = [d for d in deaths if d > t]
                    delta = later[0] - t if later else np.inf
                    b = min(max(int(np.ceil(delta)) - 1, 0), 19) if delta <= 20.0 else 20
                    expected[b].append(probs[i, s])
        assert [b.count for b in dist.bins] == [len(v) for v in expected]
        for got, want in zip(dist.bins, expected):
            assert np.array_equal(np.sort(got.probs), np.sort(want))
            if want:
                assert got.median == float(np.median(want))


class TestTimeline:
    def test_one_marker_per_death(self, synth_setup):
        cfg, matches, stats, params = synth_setup
        m = matches[0]
        tl = ev.export_timeline(params, stats, m, threshold=0.5, period_ticks=4)
        assert tl.death_flags.sum() == len(m.deaths)
        for s in range(10):
            assert tl.death_flags[:, s].sum() == len(m.deaths_for_slot(s))

    def test_series_lengths(self, synth_setup):
        cfg, matches, stats, params = synth_setup
        m = matches[1]
        tl = ev.export_timeline(params, stats, m, threshold=0.5, period_ticks=4)
        assert len(tl.game_times) == int(np.ceil(m.n_frames / 4))
        assert tl.probs.shape == (len(tl.game_times), 10)

    def test_writer_rows(self, synth_setup, tmp_path):
        cfg, matches, stats, params = synth_setup
        m = matches[1]
        tl = ev.export_timeline(params, stats, m, threshold=0.5, period_ticks=4)
        ev.save_timeline(tl, tmp_path / "tl.tsv")
        lines = (tmp_path / "tl.tsv").read_text().splitlines()
        assert len(lines) == 1 + len(tl.game_times) * 10


class TestMispredictions:
    def _timeline(self, gt, probs, deaths, threshold=0.5):
        import numpy as np
        k = len(gt)
        flags = np.zeros((k, 10), dtype=bool)
        return ev.PredictionTimeline(match_id="x", threshold=threshold,
                                     game_times=np.asarray(gt, float),
                                     probs=np.asarray(probs, float),
                                     deaths=tuple(tuple(d) for d in deaths),
                                     death_flags=flags)

    def test_perfect_predictions_zero_counts(self):
        gt = [0.0, 1.0, 2.0]
        probs = np.zeros((3, 10))
        labels = np.zeros((3, 10), bool)
        tl = self._timeline(gt, probs, [()] * 10)
        counts = ev.classify_mispredictions(tl, labels)
        assert counts.total == 0

    def test_alarm_seven_seconds_early_is_near(self):
        gt = [0.0]
        probs = np.zeros((1, 10))
        probs[0, 2] = 0.95
        labels = np.zeros((1, 10), bool)  # death at 7s > window 5
        deaths = [()] * 10
        deaths[2] = (7.0,)
        tl = self._timeline(gt, probs, deaths, threshold=0.9)
        counts = ev.classify_mispredictions(tl, labels, window=5.0, near_window=20.0)
        assert counts.near_false_positives == 1
        assert counts.far_false_positives == 0

    def test_far_false_positive_and_false_negative(self):
        gt = [0.0, 1.0]
        probs = np.zeros((2, 10))
        probs[0, 1] = 0.99  # alarm with no death anywhere
        labels = np.zeros((2, 10), bool)
        labels[1, 4] = True  # miss: model silent
        tl = self._timeline(gt, probs, [()] * 10, threshold=0.9)
        counts = ev.classify_mispredictions(tl, labels)
        assert counts.far_false_positives == 1
        assert counts.false_negatives == 1

    def test_counts_sum_equals_brute_force(self, rng, synth_setup):
        cfg, matches, stats, params = synth_setup
        from deathcast.dataset import downsample, label_frames
        m = matches[2]
        tl = ev.export_timeline(params, stats, m, threshold=0.5, period_ticks=4)
        labels = label_frames(m, 5.0)[downsample(m, 4)]
        counts = ev.classify_mispredictions(tl, labels, window=5.0)
        pred = tl.probs >= 0.5
        brute = int((labels & ~pred).sum() + (pred & ~labels).sum())
        assert counts.total == brute
