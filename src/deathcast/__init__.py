"""Death micro-prediction for 10-hero MOBA telemetry.

Pipeline pieces: match time-series records (`match_data`), per-hero
feature schemas and extraction (`features`), labeling/balancing/sharding
(`dataset`), the shared-encoder network (`model`), training and random
search (`train`), precision-recall evaluation (`evaluation`), a synthetic
hazard generator with an exact probability oracle (`synth`), and the CLI
(`cli`).
"""

from .dataset import (BalancedBatch, DatasetManifest, Shard, ShardPool, SplitManifest,
                      build_dataset, downsample, label_frames, match_samples, read_shard,
                      sample_balanced_batch, split_matches, write_shards)
from .evaluation import (EvalReport, MatchScores, MispredictionCounts, PRCurve,
                         PredictionTimeline, ThresholdMetrics, TimeToDeathDistribution,
                         average_precision, classify_mispredictions, evaluate_test,
                         export_timeline, pr_curve, spearman, threshold_metrics,
                         time_to_death_distribution)
from .features import (FeatureSchema, NormalizationStats, compute_norm_stats, dump_schema,
                       extract_match, feature_schema, normalize_array)
from .match_data import (DeathEvent, MatchRecord, ValidationReport, load_match, parse_match,
                         save_match, strip_pauses, validate_match, write_match)
from .model import (AdamState, ForwardTrace, GradCheckReport, ModelConfig, ModelParams,
                    adam_step, default_config, forward, gradient_check, init_adam,
                    init_params, load_checkpoint, loss_and_grad, save_checkpoint,
                    small_check_config)
from .synth import SynthConfig, bayes_ap, bayes_scores, generate_match, generator_hash
# the train() entry point stays on its module (deathcast.train.train) so the
# submodule name is not shadowed at package level
from .train import SearchSpace, TrainResult, TrainRunConfig, random_search

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
