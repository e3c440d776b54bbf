"""Training loop over shard pools and random hyperparameter search.

Each iteration draws one batch of the model's batch size, balanced 50/50
for one random hero slot and topped up across the pool's shards as needed,
backpropagates the selected slot's error and applies one Adam step. Every
validation interval the pooled average precision on the (balanced)
validation shards is computed and the best-scoring parameters are kept;
that running best is the returned checkpoint, since no epoch budget or
early-stopping recipe is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ShardPool, sample_balanced_batch
from .errors import SchemaViolation
from .evaluation import average_precision, pr_curve, predict_probs
from .model import (ModelConfig, adam_step, init_adam, init_params, loss_and_grad,
                    save_checkpoint)
from .util import write_lines


@dataclass
class TrainRunConfig:
    model: ModelConfig
    max_steps: int = 20000
    val_interval: int = 1000
    batch_seed: int = 0
    val_max_samples: int = 200000
    checkpoint_path: str | None = None


@dataclass
class TrainResult:
    best_params: object
    best_val_ap: float
    best_step: int
    history: list = field(default_factory=list)  # (step, train_loss, val_ap)


def _guard_not_test(pool: ShardPool, what):
    if pool.split == "test":
        raise SchemaViolation(f"{what} must never touch test shards")


def _validation_arrays(val_pool, cap):
    """Views of the first `cap` validation samples."""
    return val_pool.all_features()[:cap], val_pool.all_labels()[:cap]


def validation_ap(params, val_feats, val_labels) -> float:
    probs = predict_probs(params, val_feats)
    return average_precision(pr_curve(probs.ravel(), val_labels.ravel()))


def train(cfg: TrainRunConfig, train_pool: ShardPool, val_pool: ShardPool,
          stats=None) -> TrainResult:
    """Run the step loop; returns the best-validation-AP parameters.

    Deterministic for fixed seeds when run single-threaded: the batch
    stream comes from one RNG seeded with cfg.batch_seed.
    """
    _guard_not_test(train_pool, "training")
    _guard_not_test(val_pool, "validation")
    params = init_params(cfg.model)
    adam = init_adam(params)
    rng = np.random.default_rng(cfg.batch_seed)
    val_feats, val_labels = _validation_arrays(val_pool, cfg.val_max_samples)

    best = params.copy()
    best_ap = -np.inf
    best_step = 0
    history = []
    loss_sum = 0.0
    loss_n = 0
    for step in range(1, cfg.max_steps + 1):
        batch = sample_balanced_batch(train_pool, cfg.model.batch_size, rng)
        loss, grads = loss_and_grad(params, batch)
        adam_step(params, adam, grads)
        loss_sum += loss
        loss_n += 1
        if step % cfg.val_interval == 0 or step == cfg.max_steps:
            ap = validation_ap(params, val_feats, val_labels)
            history.append((step, loss_sum / max(loss_n, 1), ap))
            loss_sum = 0.0
            loss_n = 0
            if ap > best_ap:
                best_ap = ap
                np.copyto(best.flat, params.flat)
                best_step = step
    if cfg.max_steps == 0:
        best_ap = validation_ap(best, val_feats, val_labels)
    result = TrainResult(best_params=best, best_val_ap=float(best_ap),
                         best_step=best_step, history=history)
    if cfg.checkpoint_path is not None:
        if stats is None:
            raise ValueError("stats required to save a checkpoint")
        save_checkpoint(best, stats, cfg.checkpoint_path, step=best_step)
    return result


def save_metrics_log(history, path):
    lines = [f"{step}\t{float(loss)!r}\t{float(ap)!r}" for step, loss, ap in history]
    write_lines(path, lines)


# ---------------------------------------------------------------------------
# Random search


@dataclass(frozen=True)
class SearchSpace:
    """Sampling ranges for the random hyperparameter exploration."""

    variant: str
    n_shared_range: tuple = (1, 4)  # inclusive
    n_final_range: tuple = (1, 4)
    width_choices: tuple = (16, 32, 64, 128, 256)
    lr_log10_range: tuple = (-4.5, -2.0)
    batch_choices: tuple = (128,)
    budget: int = 8
    seed: int = 0
    steps_per_trial: int = 1500
    val_interval: int = 500


@dataclass(frozen=True)
class TrialResult:
    index: int
    config: ModelConfig
    val_ap: float
    n_params: int


@dataclass
class SearchResult:
    trials: list

    @property
    def ranked(self):
        """Best first; ties by fewer parameters, then earlier trial."""
        return sorted(self.trials, key=lambda t: (-t.val_ap, t.n_params, t.index))

    @property
    def best_config(self):
        return self.ranked[0].config


def sample_search_config(space: SearchSpace, rng, per_hero_count, roster_size=130,
                         window=5.0) -> ModelConfig:
    n_shared = int(rng.integers(space.n_shared_range[0], space.n_shared_range[1] + 1))
    n_final = int(rng.integers(space.n_final_range[0], space.n_final_range[1] + 1))
    shared = tuple(int(rng.choice(space.width_choices)) for _ in range(n_shared))
    final = tuple(int(rng.choice(space.width_choices)) for _ in range(n_final))
    lr = float(10.0 ** rng.uniform(*space.lr_log10_range))
    batch = int(rng.choice(space.batch_choices))
    seed = int(rng.integers(2 ** 31))
    return ModelConfig(variant=space.variant, per_hero_count=per_hero_count,
                       shared_layers=shared, final_layers=final, learning_rate=lr,
                       batch_size=batch, seed=seed, window=window,
                       roster_size=roster_size)


def random_search(space: SearchSpace, train_pool: ShardPool, val_pool: ShardPool) -> SearchResult:
    """Train `budget` i.i.d.-sampled configs for a reduced step budget and
    rank them by validation AP."""
    if space.budget < 1:
        raise ValueError("search budget must be >= 1")
    _guard_not_test(train_pool, "search")
    _guard_not_test(val_pool, "search validation")
    per_hero = train_pool.shards[0].per_hero_count
    rng = np.random.default_rng(space.seed)
    configs = [sample_search_config(space, rng, per_hero) for _ in range(space.budget)]
    trials = []
    for i, cfg in enumerate(configs):
        run = TrainRunConfig(model=cfg, max_steps=space.steps_per_trial,
                             val_interval=space.val_interval, batch_seed=cfg.seed)
        result = train(run, train_pool, val_pool)
        trials.append(TrialResult(index=i, config=cfg, val_ap=result.best_val_ap,
                                  n_params=cfg.n_parameters()))
    return SearchResult(trials=trials)


def save_trial_table(result: SearchResult, path):
    lines = ["index\tval_ap\tn_params\tlearning_rate\tbatch\tshared_layers\tfinal_layers"]
    for t in result.ranked:
        c = t.config
        lines.append(f"{t.index}\t{t.val_ap!r}\t{t.n_params}\t{c.learning_rate!r}"
                     f"\t{c.batch_size}\t{list(c.shared_layers)}\t{list(c.final_layers)}")
    write_lines(path, lines)
