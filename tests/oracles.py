"""Independent brute-force reference implementations used by the tests.

These deliberately avoid numpy vectorization tricks and share no code with
the package paths they check.
"""

import numpy as np

from deathcast import match_data as md


def brute_force_labels(m, window):
    """Double loop over frames x deaths."""
    labels = np.zeros((m.n_frames, md.N_HEROES), dtype=bool)
    for i in range(m.n_frames):
        t = float(m.game_time[i])
        for d in m.deaths:
            if t < d.time <= t + window:
                labels[i, d.slot] = True
    return labels


def brute_force_pr(scores, labels):
    """Recount TP/FP at every distinct threshold, descending."""
    thresholds = sorted(set(scores), reverse=True)
    pts = []
    pos = sum(labels)
    for th in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= th and y)
        fp = sum(1 for s, y in zip(scores, labels) if s >= th and not y)
        pts.append((th, tp / (tp + fp), tp / pos))
    return pts


def brute_force_ap(scores, labels):
    pts = brute_force_pr(scores, labels)
    ap = 0.0
    prev_r = 0.0
    for _, p, r in pts:
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def brute_force_spearman_rho(x, y):
    def ranks(v):
        out = [0.0] * len(v)
        for i, vi in enumerate(v):
            less = sum(1 for u in v if u < vi)
            equal = sum(1 for u in v if u == vi)
            out[i] = less + (equal + 1) / 2.0
        return out

    rx, ry = ranks(x), ranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


def reference_balanced_batch(shards, batch_size, rng):
    """(features, labels, selected_slot) of one slot-balanced batch, drawn
    per row from the shards' own columns.

    This is the sampler the pool's one-gather path replaced; it makes the
    same generator calls in the same order: the slot, then for positives
    and negatives in turn a shard permutation and one draw without
    replacement from the shard that completes the half batch.
    """
    half = batch_size // 2
    pos_total = np.sum([s.labels.sum(axis=0) for s in shards], axis=0)
    neg_total = sum(len(s.labels) for s in shards) - pos_total
    slot = int(rng.choice(np.flatnonzero((pos_total >= half) & (neg_total >= half))))

    def draw(positive):
        order = rng.permutation(len(shards))
        picked = []
        for si in order:
            cand = np.flatnonzero(shards[si].labels[:, slot] == positive)
            if len(cand) == 0:
                continue
            take = min(half - len(picked), len(cand))
            rows = cand if take == len(cand) else rng.choice(cand, size=take, replace=False)
            picked.extend((si, int(r)) for r in rows)
            if len(picked) == half:
                break
        return picked

    rows = draw(True) + draw(False)
    features = np.stack([shards[si].features[r] for si, r in rows])
    labels = np.stack([shards[si].labels[r] for si, r in rows])
    return features, labels, slot
