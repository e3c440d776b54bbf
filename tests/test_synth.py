import tracemalloc

import numpy as np
import pytest

from deathcast import dataset as ds
from deathcast import match_data as md
from deathcast import synth as sy
from deathcast.errors import ForeignMatch, InvalidConfig, NoPositives
from deathcast.evaluation import average_precision, pr_curve
from deathcast.synth import (_health_lam, _match_drivers, _respawn_prob, _roll_health)

from oracles import (bayes_probability, expected_death_count, reference_generate_match,
                     reference_match_drivers)


def small_cfg(**kw):
    base = dict(n_frames=500, seed=17)
    base.update(kw)
    return sy.SynthConfig(**base)


class TestGenerate:
    def test_deterministic(self):
        cfg = small_cfg()
        assert sy.generate_match(cfg, 3) == sy.generate_match(cfg, 3)

    def test_different_seeds_differ(self):
        cfg = small_cfg()
        assert sy.generate_match(cfg, 3) != sy.generate_match(cfg, 4)

    def test_zero_hazard_zero_deaths(self):
        cfg = small_cfg(hazard_bias=-60.0, hazard_low_health=0.0,
                        hazard_enemies_near=0.0, hazard_enemy_tower=0.0,
                        hazard_visibility=0.0)
        m = sy.generate_match(cfg, 0)
        assert len(m.deaths) == 0
        assert m.alive.all()

    def test_validates_clean(self):
        cfg = small_cfg()
        for i in range(5):
            report = md.validate_match(sy.generate_match(cfg, i))
            assert report.ok, str(report)

    def test_pause_injection_survives_pipeline(self):
        cfg = small_cfg(pause_count=3, pause_length_ticks=20)
        m = sy.generate_match(cfg, 1)
        assert m.paused.any()
        report = md.validate_match(m)
        assert report.ok, str(report)
        clean = md.strip_pauses(m)
        assert clean.n_frames == cfg.n_frames
        raw = md.write_match(m)
        assert md.parse_match(raw) == m

    def test_invalid_hazard_rejected(self):
        with pytest.raises(InvalidConfig):
            sy.validate_config(small_cfg(hazard_bias=0.0))

    def test_invalid_movement_rejected(self):
        with pytest.raises(InvalidConfig):
            sy.validate_config(small_cfg(movement="teleport"))

    def test_pauses_on_two_frames_rejected(self):
        # a pause follows a frame strictly inside the match; two frames have none
        with pytest.raises(InvalidConfig):
            sy.validate_config(small_cfg(n_frames=2, pause_count=1, pause_length_ticks=5))
        sy.validate_config(small_cfg(n_frames=3, pause_count=1, pause_length_ticks=5))
        sy.validate_config(small_cfg(n_frames=2, pause_count=1, pause_length_ticks=0))

    def test_dead_heroes_show_zero_health(self):
        cfg = small_cfg(n_frames=1200)
        m = sy.generate_match(cfg, 2)
        if not (~m.alive).any():
            pytest.skip("no deaths in this draw")
        assert (m.health[~m.alive] == 0).all()
        assert (m.health[m.alive] >= sy.LIVE_HEALTH_FLOOR).all()

    def test_orbit_mode_runs(self):
        cfg = small_cfg(movement="orbit", move_speed=8.0)
        m = sy.generate_match(cfg, 0)
        assert md.validate_match(m).ok

    def test_death_count_matches_analytic_expectation(self):
        # pooled realized deaths vs the exact forward DP, Poisson-style band
        cfg = small_cfg(n_frames=900)
        total = 0
        expected = 0.0
        for i in range(25):
            m = sy.generate_match(cfg, 1000 + i)
            total += len(m.deaths)
            expected += expected_death_count(cfg, m)
        sigma = np.sqrt(expected)
        assert abs(total - expected) <= 3 * sigma, (total, expected)


# The configs on which the generator must reproduce the reference bit for
# bit; each names the path it covers. At the default speed a hero seldom
# reaches a waypoint within 400 frames, so the arrival paths run faster.
REFERENCE_CONFIGS = {
    "waypoint": {},
    "waypoint_arrivals": dict(move_speed=40.0),
    "waypoint_hold": dict(waypoint_hold_mean=2.0, move_speed=40.0),
    "orbit": dict(movement="orbit"),
    "pauses": dict(pause_count=3, pause_length_ticks=20),
    "high_hazard_fast_respawn": dict(damage_per_enemy=600.0, enemy_radius=40.0,
                                     respawn_delay=1.0),
    "instant_respawn": dict(damage_per_enemy=600.0, enemy_radius=40.0, respawn_delay=0.0),
    "zero_hazard": dict(hazard_bias=-60.0, hazard_low_health=0.0, hazard_enemies_near=0.0,
                        hazard_enemy_tower=0.0, hazard_visibility=0.0),
    "two_frames": dict(n_frames=2),
    "no_towers": dict(towers_per_team=0),
}


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_same_records_bytes_and_oracle(self, name, monkeypatch):
        cfg = small_cfg(**{"n_frames": 400, **REFERENCE_CONFIGS[name]})
        for match_seed in (0, 1, 2):
            m = sy.generate_match(cfg, match_seed)
            ref = reference_generate_match(cfg, match_seed)
            assert m == ref
            assert md.write_match(m) == md.write_match(ref)
            clean = md.strip_pauses(m)
            idx = ds.downsample(clean, 4)
            scores = sy.bayes_scores(cfg, clean, indices=idx)
            with monkeypatch.context() as patched:
                patched.setattr(sy, "_match_drivers", reference_match_drivers)
                ref_scores = sy.bayes_scores(cfg, clean, indices=idx)
            assert np.array_equal(scores, ref_scores)

    def test_time_constant_columns_are_read_only_and_held_once(self):
        m = sy.generate_match(small_cfg(), 0)
        for name in ("abilities", "item_cooldown", "item_owned", "max_health", "max_mana"):
            assert getattr(m, name).strides[0] == 0, name
        with pytest.raises(ValueError):
            m.abilities[0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            m.max_health[0, 0] = 1.0

    def test_peak_memory_of_one_match(self):
        # a default 750-frame match peaked at 3.6 MB traced when its
        # time-constant columns became views, against 8.9 MB when every
        # column was materialized per frame
        cfg = sy.SynthConfig(n_frames=750)
        tracemalloc.start()
        try:
            sy.generate_match(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.0e6, peak


class TestBayesProbability:
    def test_zero_hazard_gives_zero(self):
        cfg = small_cfg(hazard_bias=-60.0, hazard_low_health=0.0,
                        hazard_enemies_near=0.0, hazard_enemy_tower=0.0,
                        hazard_visibility=0.0)
        m = sy.generate_match(cfg, 0)
        assert bayes_probability(cfg, m, 100, 3) < 1e-20

    def test_in_unit_interval_and_monotone_in_window(self):
        cfg = small_cfg()
        m = sy.generate_match(cfg, 1)
        for frame, slot in ((50, 0), (200, 5), (400, 9)):
            prev = 0.0
            for w in (1.0, 3.0, 5.0, 8.0):
                p = bayes_probability(cfg, m, frame, slot, window=w)
                assert 0.0 <= p <= 1.0
                assert p >= prev - 1e-15
                prev = p

    def test_foreign_match_rejected(self):
        cfg = small_cfg()
        other = small_cfg(seed=99)
        m = sy.generate_match(other, 0)
        with pytest.raises(ForeignMatch):
            bayes_probability(cfg, m, 0, 0)

    def test_scalar_equals_bulk(self):
        cfg = small_cfg()
        m = sy.generate_match(cfg, 2)
        idx = [10, 100, 350]
        bulk = sy.bayes_scores(cfg, m, window=5.0, indices=idx)
        for row, frame in enumerate(idx):
            for slot in range(10):
                one = bayes_probability(cfg, m, frame, slot, window=5.0)
                assert abs(one - bulk[row, slot]) < 1e-12

    def test_monte_carlo_agreement(self, rng):
        """Re-simulate the death/respawn coins on the recorded trajectory."""
        cfg = small_cfg(n_frames=800)
        m = sy.generate_match(cfg, 5)
        pre, rate = _match_drivers(cfg, m)
        p_r = _respawn_prob(cfg, m.tick_interval)
        t, dt, W = m.game_time, m.tick_interval, 5.0
        n_roll = 20000

        dead_cases = [(int(i), int(s)) for i, s in zip(*np.where(~m.alive))
                      if 50 < i < 600][:2]
        live_low = [(int(i), int(s)) for i, s in
                    zip(*np.where(m.alive & (m.health < 0.4 * cfg.max_health)))
                    if 50 < i < 600][:2]
        cases = [(60, 0), (300, 7)] + live_low + dead_cases
        for frame, slot in cases:
            p = bayes_probability(cfg, m, frame, slot, window=W)
            b = int(np.searchsorted(t, t[frame] + W - dt / 2.0, side="right"))
            al = np.full(n_roll, bool(m.alive[frame, slot]))
            h = np.full(n_roll, m.health[frame, slot] if m.alive[frame, slot]
                        else cfg.max_health)
            died = np.zeros(n_roll, dtype=bool)
            for g in range(frame, b):
                resp = ~al & (rng.random(n_roll) < p_r)
                al |= resp
                h = np.where(resp, cfg.max_health, h)
                if g < m.n_frames - 1:
                    lam = _health_lam(cfg, pre[g, slot], h)
                    die = al & ~died & (rng.random(n_roll) < lam)
                    died |= die
                    al &= ~die
                h = np.where(al, _roll_health(cfg, h, rate[g, slot], dt), h)
            mc = died.mean()
            sigma = max(np.sqrt(p * (1 - p) / n_roll), 1e-9)
            assert abs(mc - p) <= 3 * sigma, (frame, slot, p, mc)


class TestBayesAP:
    def test_zero_hazard_surfaces_no_positives(self):
        cfg = small_cfg(hazard_bias=-60.0, hazard_low_health=0.0,
                        hazard_enemies_near=0.0, hazard_enemy_tower=0.0,
                        hazard_visibility=0.0)
        matches = [sy.generate_match(cfg, i) for i in range(2)]
        with pytest.raises(NoPositives):
            sy.bayes_ap(cfg, matches)

    def test_deterministic(self):
        cfg = small_cfg()
        matches = [sy.generate_match(cfg, i) for i in range(3)]
        assert sy.bayes_ap(cfg, matches) == sy.bayes_ap(cfg, matches)

    def test_pinned_default_config_value(self):
        # oracle AP for the default config on a fixed 10-match set, pinned
        # from the first verified run of this suite
        cfg = sy.SynthConfig()
        matches = [sy.generate_match(cfg, 9000 + i) for i in range(10)]
        value = sy.bayes_ap(cfg, matches)
        assert abs(value - PINNED_DEFAULT_BAYES_AP) < 1e-9

    def test_oracle_beats_label_shuffle(self, rng):
        cfg = small_cfg(n_frames=600)
        matches = [sy.generate_match(cfg, 40 + i) for i in range(3)]
        real = sy.bayes_ap(cfg, matches)
        scores, labels = [], []
        for m in matches:
            idx = ds.downsample(m, 4)
            scores.append(sy.bayes_scores(cfg, m, 5.0, idx).ravel())
            labels.append(ds.label_frames(m, 5.0)[idx].ravel())
        scores = np.concatenate(scores)
        labels = np.concatenate(labels)
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        base = average_precision(pr_curve(scores, shuffled))
        assert real > base + 0.2


PINNED_DEFAULT_BAYES_AP = 0.9654184676757759
