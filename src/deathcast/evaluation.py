"""Precision-recall evaluation and prediction diagnostics.

The headline metric is average precision (area under the precision-recall
curve, rectangle rule over descending score thresholds); accuracy is
useless at a ~1% positive rate. Also here: fixed-threshold operating
points, a hand-rolled Spearman rank correlation (used as a sanity check
that predictions are not just tracking hero health), time-until-death
prediction distributions, per-match probability timelines, and a coarse
categorization of mispredictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from . import match_data as md
from .dataset import match_samples
from .errors import ConstantInput, LengthMismatch, NoPositives
from .features import normalize_array
from .model import forward
from .util import ordered_map, write_lines


@dataclass(frozen=True)
class PRCurve:
    """Points of the precision-recall curve at descending score thresholds."""

    thresholds: np.ndarray  # strictly decreasing
    precision: np.ndarray
    recall: np.ndarray  # non-decreasing along the array
    n_pos: int
    n_total: int


@dataclass(frozen=True)
class ThresholdMetrics:
    threshold: float
    precision: float  # nan when no predicted positives
    recall: float
    predicted_positives: int
    true_positives: int

    @property
    def undefined(self):
        return self.predicted_positives == 0


@dataclass(frozen=True)
class MatchScores:
    """One evaluated match: what the distributions over its samples need."""

    game_times: np.ndarray  # (k,) sampled game times
    probs: np.ndarray  # (k, 10) predicted probabilities
    deaths: tuple  # per slot: sorted death times


@dataclass(frozen=True)
class EvalReport:
    average_precision: float
    positive_rate: float
    n_samples: int
    operating_points: dict  # threshold -> ThresholdMetrics
    curve: PRCurve
    health_spearman: tuple | None = None  # (rho, p) or None if degenerate
    matches: tuple = ()  # MatchScores per evaluated match, in input order


@dataclass(frozen=True)
class PredictionTimeline:
    """Per-hero probability series with death markers for one match."""

    match_id: str
    threshold: float
    game_times: np.ndarray  # (k,)
    probs: np.ndarray  # (k, 10)
    deaths: tuple  # per slot: tuple of death times
    death_flags: np.ndarray  # (k, 10) bool, one flagged row per death


@dataclass(frozen=True)
class TTDBin:
    label: str
    count: int
    q25: float
    median: float
    q75: float
    probs: np.ndarray


@dataclass(frozen=True)
class TimeToDeathDistribution:
    horizon: float
    bins: tuple  # TTDBin per 1-second bucket plus the no-death bucket


@dataclass(frozen=True)
class MispredictionCounts:
    """Misprediction triage: misses, near-miss alarms, far-off alarms.

    near = false positives where the hero does die, just later than the
    label window (within near_window). Distinguishing "dangerous but
    survived" from "nothing happening" among the far false positives needs
    human judgment, so they stay one bucket.
    """

    false_negatives: int
    near_false_positives: int
    far_false_positives: int

    @property
    def total(self):
        return self.false_negatives + self.near_false_positives + self.far_false_positives


def _paired(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise LengthMismatch(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
    if not labels.any():
        raise NoPositives("need at least one positive label")
    return scores, labels


def pr_curve(scores, labels) -> PRCurve:
    """One point per distinct score, descending; ties share a threshold."""
    scores, labels = _paired(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # last index of every group of equal scores
    ends = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    tp = np.cumsum(y)[ends]
    pp = ends + 1
    n_pos = int(labels.sum())
    return PRCurve(
        thresholds=s[ends],
        precision=tp / pp,
        recall=tp / n_pos,
        n_pos=n_pos,
        n_total=len(labels),
    )


def average_precision(curve: PRCurve) -> float:
    """Sum of precision * recall-increment over descending thresholds."""
    rec = curve.recall
    prev = np.r_[0.0, rec[:-1]]
    return float(np.sum((rec - prev) * curve.precision))


def threshold_metrics(scores, labels, threshold) -> ThresholdMetrics:
    """Counts with predicted-positive defined as score >= threshold."""
    scores, labels = _paired(scores, labels)
    pred = scores >= threshold
    tp = int((pred & labels).sum())
    pp = int(pred.sum())
    precision = tp / pp if pp else float("nan")
    recall = tp / int(labels.sum())
    return ThresholdMetrics(threshold=float(threshold), precision=precision,
                            recall=recall, predicted_positives=pp, true_positives=tp)


def _average_ranks(v):
    n = len(v)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def spearman(x, y):
    """Rank correlation with fractional tie ranks; returns (rho, p).

    p comes from the usual t approximation with n - 2 degrees of freedom.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape[0]} vs {y.shape[0]} values")
    n = len(x)
    if n < 3:
        raise LengthMismatch("need at least 3 paired values")
    if (x == x[0]).all() or (y == y[0]).all():
        raise ConstantInput("rank correlation is undefined for a constant vector")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))
    df = n - 2
    if 1.0 - rho * rho <= 0:
        return rho, 0.0
    t = abs(rho) * np.sqrt(df / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(df, -t))
    return rho, p


# ---------------------------------------------------------------------------
# Model-on-matches evaluation


def predict_probs(params, feats, chunk=4096):
    """Forward pass over (k, 10, F) features in chunks; returns (k, 10)."""
    outs = []
    for i in range(0, len(feats), chunk):
        probs, _ = forward(params, feats[i:i + chunk])
        outs.append(probs.astype(np.float64))
    return np.concatenate(outs, axis=0) if outs else np.zeros((0, md.N_HEROES))


def _score_match(params, stats, m, window, period_ticks):
    """match_samples, then the network: (clean match, sampled indices, game
    times, probabilities (k, 10), labels (k, 10))."""
    clean, idx, feats, labels, gt = match_samples(m, stats.schema, window, period_ticks)
    probs = predict_probs(params, normalize_array(feats, stats).astype(np.float32))
    return clean, idx, gt, probs, labels


def _slot_deaths(m):
    return tuple(np.sort(m.deaths_for_slot(s)) for s in range(md.N_HEROES))


def evaluate_test(params, stats, matches, window=None, period_ticks=4,
                  thresholds=(0.9,), threads=1) -> EvalReport:
    """Unbalanced evaluation straight from match records.

    Pools every (downsampled frame, hero) pair across the given matches:
    sample count is exactly sum(downsampled frames) * 10. Also reports the
    Spearman correlation between raw hero health and the predicted
    probability (None when either is constant). Each match's scores stay on
    the report for the distributions derived from them.
    """
    window = params.config.window if window is None else window

    def one(m):
        clean, idx, gt, probs, labels = _score_match(params, stats, m, window, period_ticks)
        return (probs.ravel(), labels.ravel(), clean.health[idx].ravel(),
                MatchScores(game_times=gt, probs=probs, deaths=_slot_deaths(clean)))

    parts = ordered_map(one, matches, threads)
    scores = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    health = np.concatenate([p[2] for p in parts])

    curve = pr_curve(scores, labels)
    ops = {float(t): threshold_metrics(scores, labels, t) for t in thresholds}
    try:
        health_sp = spearman(health, scores)
    except ConstantInput:
        health_sp = None
    return EvalReport(
        average_precision=average_precision(curve),
        positive_rate=float(labels.mean()),
        n_samples=int(labels.size),
        operating_points=ops,
        curve=curve,
        health_spearman=health_sp,
        matches=tuple(p[3] for p in parts),
    )


def time_to_death_distribution(scored, horizon=20.0) -> TimeToDeathDistribution:
    """Predicted-probability distribution bucketed by time until next death,
    over scored matches (MatchScores, as `EvalReport.matches` holds them).

    One-second buckets (k, k+1] for k = 0..horizon-1, plus a bucket for
    heroes with no death within the horizon.
    """
    n_bins = int(np.ceil(horizon))
    per_bin = [[] for _ in range(n_bins + 1)]  # last = no death within horizon
    for match in scored:
        gt, probs = match.game_times, match.probs
        for s, deaths in enumerate(match.deaths):
            pos = np.searchsorted(deaths, gt, side="right")
            has_next = pos < len(deaths)
            delta = np.full(len(gt), np.inf)
            delta[has_next] = deaths[pos[has_next]] - gt[has_next]
            within = delta <= horizon
            bin_idx = np.full(len(gt), n_bins, dtype=np.int64)
            bin_idx[within] = np.clip(np.ceil(delta[within]).astype(np.int64) - 1,
                                      0, n_bins - 1)
            for b in range(n_bins + 1):
                sel = bin_idx == b
                if sel.any():
                    per_bin[b].append(probs[sel, s])
    bins = []
    for b in range(n_bins + 1):
        if per_bin[b]:
            vals = np.concatenate(per_bin[b])
            q25, q50, q75 = np.quantile(vals, [0.25, 0.5, 0.75])
        else:
            vals = np.zeros(0)
            q25 = q50 = q75 = float("nan")
        label = f"{b}-{b + 1}s" if b < n_bins else "no_death"
        bins.append(TTDBin(label=label, count=len(vals), q25=float(q25),
                           median=float(q50), q75=float(q75), probs=vals))
    return TimeToDeathDistribution(horizon=horizon, bins=tuple(bins))


def export_timeline(params, stats, m, threshold=0.5, window=None,
                    period_ticks=4) -> PredictionTimeline:
    """Per-hero probability series at the sampling period, with one death
    marker per death event (flagged on the first sampled row at or after
    the death; the last row if the death falls beyond it)."""
    window = params.config.window if window is None else window
    clean, _, gt, probs, _ = _score_match(params, stats, m, window, period_ticks)
    k = len(gt)
    flags = np.zeros((k, md.N_HEROES), dtype=bool)
    deaths = tuple(tuple(float(t) for t in ts) for ts in _slot_deaths(clean))
    for s, ts in enumerate(deaths):
        for tau in ts:
            j = int(np.searchsorted(gt, tau, side="left"))
            flags[min(j, k - 1), s] = True
    return PredictionTimeline(match_id=m.match_id, threshold=float(threshold),
                              game_times=gt, probs=probs, deaths=deaths,
                              death_flags=flags)


def classify_mispredictions(timeline: PredictionTimeline, labels, threshold=None,
                            near_window=20.0, window=5.0) -> MispredictionCounts:
    """Count misses and alarms against the labels for one timeline.

    labels is the (k, 10) array for the same sampled frames. An alarm on a
    hero that dies within (window, near_window] after the sample is a near
    false positive; alarms with no death inside near_window are far.
    """
    threshold = timeline.threshold if threshold is None else threshold
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != timeline.probs.shape:
        raise LengthMismatch("labels shape differs from the timeline's probabilities")
    pred = timeline.probs >= threshold
    fn = int((labels & ~pred).sum())
    near = 0
    far = 0
    gt = timeline.game_times
    for s in range(md.N_HEROES):
        fp_rows = np.flatnonzero(pred[:, s] & ~labels[:, s])
        if fp_rows.size == 0:
            continue
        deaths = np.asarray(timeline.deaths[s])
        for i in fp_rows:
            t = gt[i]
            if deaths.size:
                in_near = ((deaths > t + window) & (deaths <= t + near_window)).any()
            else:
                in_near = False
            near += bool(in_near)
            far += not in_near
    return MispredictionCounts(false_negatives=fn, near_false_positives=near,
                               far_false_positives=far)


# ---------------------------------------------------------------------------
# Text outputs


def save_eval_report(report: EvalReport, path):
    """Key-value block, then the PR curve as a recall<TAB>precision table."""
    lines = [
        f"average_precision\t{report.average_precision!r}",
        f"positive_rate\t{report.positive_rate!r}",
        f"n_samples\t{report.n_samples}",
    ]
    for t in sorted(report.operating_points):
        op = report.operating_points[t]
        lines.append(f"precision_at_{t:g}\t{op.precision!r}")
        lines.append(f"recall_at_{t:g}\t{op.recall!r}")
    if report.health_spearman is not None:
        rho, p = report.health_spearman
        lines.append(f"health_spearman_rho\t{rho!r}")
        lines.append(f"health_spearman_p\t{p!r}")
    lines.append("[pr_curve]")
    for r, p in zip(report.curve.recall, report.curve.precision):
        lines.append(f"{float(r)!r}\t{float(p)!r}")
    write_lines(path, lines)


def save_timeline(timeline: PredictionTimeline, path):
    """game_time<TAB>slot<TAB>probability<TAB>death_flag rows, frame-major."""
    lines = [f"# match {timeline.match_id} threshold {timeline.threshold!r}"]
    for i, t in enumerate(timeline.game_times):
        for s in range(md.N_HEROES):
            lines.append(f"{float(t)!r}\t{s}\t{float(timeline.probs[i, s])!r}"
                         f"\t{int(timeline.death_flags[i, s])}")
    write_lines(path, lines)


def save_ttd_distribution(dist: TimeToDeathDistribution, path):
    """bin<TAB>q25<TAB>median<TAB>q75<TAB>count rows."""
    lines = []
    for b in dist.bins:
        lines.append(f"{b.label}\t{b.q25!r}\t{b.median!r}\t{b.q75!r}\t{b.count}")
    write_lines(path, lines)
