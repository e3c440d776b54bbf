"""The three benchmark workloads: input choice, set-up, one timed pass, checks.

Every workload is a closed-loop batch job: each stage starts when the one
before it ends. Each timed pass ends with train, eval and predict; the
stages before them differ:

* `text-io` runs every stage through `cli.main` and the JSON match files,
  the paper's real path: synth, ingest, extract, then train, eval and
  predict. Text parsing and writing dominate it.
* `train-full` builds a full-schema dataset in memory during set-up and
  times the CLI `train` of the default full model; the network dominates.
* `learn-small` is a scaled-down acceptance criterion 8 run entirely in
  memory: dataset build (the extract stage), the acceptance model and
  evaluation. Batch sampling and feature extraction are visible here.

Inputs come from the workload seed only. The CLI splits matches 80/10/10,
and average precision is undefined without positive labels, so a corpus
is usable only when the validation and test matches contain a death and
one hero slot has enough positives for a balanced batch. `choose_inputs`
derives candidate synth and split seeds from the workload seed, in a fixed
order, and takes the first usable pair; the seed alone still fixes the
inputs. The search runs once per run, before and outside the timed set-up,
so set-up does the same work at every seed: generate the chosen corpus
(and, on `train-full`, build its dataset).
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import time
from pathlib import Path

from deathcast import cli
from deathcast import dataset as ds
from deathcast import evaluation as ev
from deathcast import features as ft
from deathcast import match_data as md
from deathcast import model as mdl
from deathcast import synth as sy
from deathcast import train as tr
from deathcast.errors import DeathcastError

WINDOW = 5.0
PERIOD = 4
MAX_DRAWS = 200
SPLITS_PER_DRAW = 50
SETUP_REPEATS = 5
MIN_AP_POSITIVES = 100

# Sizes per workload. `tail` is how many times each pass repeats its short
# closing stages (eval and predict; text-io also train), so that every
# pass gives several samples of them.

SIZES = {
    "text-io": {
        "default": dict(matches=10, frames=100, pauses=2, pause_ticks=10, schema="medium",
                        steps=100, val_interval=50, batch=16, shared="16", final="16",
                        tail=5),
        "tiny": dict(matches=10, frames=100, pauses=1, pause_ticks=10, schema="medium",
                     steps=4, val_interval=2, batch=4, shared="4", final="4", tail=2),
    },
    "train-full": {
        "default": dict(matches=10, frames=1200, schema="full",
                        steps=50, val_interval=25, batch=128, tail=3),
        "tiny": dict(matches=10, frames=240, schema="full",
                     steps=2, val_interval=1, batch=8, tail=2),
    },
    "learn-small": {
        "default": dict(matches=20, frames=750, schema="minimal", steps=300,
                        val_interval=100, batch=128, shared=(32, 16), final=(32,), lr=1e-3,
                        tail=3),
        "tiny": dict(matches=10, frames=240, schema="minimal", steps=20,
                     val_interval=10, batch=8, shared=(32, 16), final=(32,), lr=1e-3,
                     tail=2),
    },
}


class StageFailed(Exception):
    """A pipeline stage exited non-zero or raised."""


class Inputs:
    """The synth config and split seed chosen for one workload seed."""

    def __init__(self, cfg, split_seed, split, test_positives):
        self.cfg = cfg
        self.split_seed = split_seed
        self.split = split
        self.test_positives = test_positives


def generate(cfg):
    return [sy.generate_match(cfg, i) for i in range(cfg.n_matches)]


class Corpus:
    """Generated matches plus the split the pipeline will derive from them."""

    def __init__(self, inputs, matches):
        self.cfg = inputs.cfg
        self.matches = matches
        self.split_seed = inputs.split_seed
        self.split = split = inputs.split
        self.test_positives = inputs.test_positives
        self.by_id = {m.match_id: m for m in matches}
        self.test = [self.by_id[i] for i in split.test]
        self.frames = sum(m.n_frames for m in matches)
        self.test_frames = sum(m.n_frames for m in self.test)


def _positives(m):
    """(per-slot positive count, sampled rows) on the downsampled grid."""
    clean = md.strip_pauses(m)
    labels = ds.label_frames(clean, WINDOW)[ds.downsample(clean, PERIOD)]
    return labels.sum(axis=0), labels.shape[0]


def _usable(split, pos, rows, half):
    if not split.val or not split.test:
        return False
    if not sum(pos[i].sum() for i in split.val) or not sum(pos[i].sum() for i in split.test):
        return False
    slot_pos = sum(pos[i] for i in split.train)
    slot_neg = sum(rows[i] for i in split.train) - slot_pos
    return bool(((slot_pos >= half) & (slot_neg >= 4 * half)).any())


def choose_inputs(seed, size):
    """First usable (synth seed, split seed) pair derived from `seed`."""
    for draw in range(MAX_DRAWS):
        cfg = sy.SynthConfig(n_matches=size["matches"], n_frames=size["frames"],
                             seed=1000 * seed + draw, pause_count=size.get("pauses", 0),
                             pause_length_ticks=size.get("pause_ticks", 0))
        matches = generate(cfg)
        counted = [_positives(m) for m in matches]
        pos = {m.match_id: c[0] for m, c in zip(matches, counted)}
        rows = {m.match_id: c[1] for m, c in zip(matches, counted)}
        ids = [m.match_id for m in matches]
        for k in range(SPLITS_PER_DRAW):
            split_seed = 1000 * seed + k
            split = ds.split_matches(ids, seed=split_seed)
            if _usable(split, pos, rows, size["batch"] // 2):
                return Inputs(cfg, split_seed, split,
                              int(sum(pos[i].sum() for i in split.test)))
    raise StageFailed(f"no usable corpus in {MAX_DRAWS} draws from seed {seed}")


def file_digest(paths):
    h = hashlib.blake2b(digest_size=16)
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def read_tsv(path):
    """Leading key<TAB>value lines of a report file."""
    out = {}
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        if ln.startswith("["):
            break
        key, _, val = ln.partition("\t")
        out[key] = val
    return out


def expected_eval_samples(matches):
    """Evaluation pools every (downsampled frame, hero) pair: 10 per frame."""
    return sum(md.N_HEROES * len(ds.downsample(md.strip_pauses(m), PERIOD)) for m in matches)


class Workload:
    # Whether set-up runs program work the timed pass builds on, so that its
    # spans belong in the per-layer profile.
    setup_feeds_pass = True

    def __init__(self, size_name, seed, threads):
        self.size = SIZES[self.name][size_name]
        self.seed = seed
        self.threads = threads
        self.tracer = None
        self.inputs = None
        self.corpus = None

    def stage(self, timings, name, units, fn, *args, **kwargs):
        """Run one stage, appending (seconds, units) to timings[name]."""
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = self.tracer.span("stage." + name, "bench", fn, *args, **kwargs)
        timings.setdefault(name, []).append((time.perf_counter() - t0, units))
        return result

    def choose(self):
        """Search for usable inputs once, before the timed set-ups."""
        self.inputs = choose_inputs(self.seed, self.size)

    def setup(self, work):
        """Generate the chosen corpus and prepare what the timed pass reads."""
        self.corpus = Corpus(self.inputs, generate(self.inputs.cfg))

    def round_trip_ok(self):
        """parse_match(write_match(m)) == m for one match picked by the seed."""
        m = self.corpus.matches[self.seed % len(self.corpus.matches)]
        return md.parse_match(md.write_match(m)) == m

    def strip_test(self):
        return [md.strip_pauses(m) for m in self.corpus.test]

    def oracle(self, clean):
        """Bayes AP of the exact oracle on the stripped test matches;
        returns (seconds, frames).

        Runs once per benchmark run, outside the timed passes: its cost
        grows with how long heroes stay dead (each dead row averages over a
        window of respawn ticks), which varies several-fold between seeds.
        """
        timings = {}
        self.oracle_ap = self.stage(timings, "oracle", self.corpus.test_frames, sy.bayes_ap,
                                    self.corpus.cfg, clean, window=WINDOW, period_ticks=PERIOD)
        return timings["oracle"][0]

    # -- library stages shared by the in-memory workloads -------------------

    def _eval_predict(self, timings, ckpt, out):
        for _ in range(self.size["tail"]):
            self._eval_predict_once(timings, ckpt, out)

    def _eval_predict_once(self, timings, ckpt, out):
        c = self.corpus

        def evaluate():
            params, stats, _ = mdl.load_checkpoint(ckpt)
            report = ev.evaluate_test(params, stats, c.test, window=WINDOW,
                                      period_ticks=PERIOD, threads=self.threads)
            ev.save_eval_report(report, out / "report.tsv")
            return report

        def predict():
            params, stats, _ = mdl.load_checkpoint(ckpt)
            timeline = ev.export_timeline(params, stats, c.test[0], period_ticks=PERIOD)
            ev.save_timeline(timeline, out / "timeline.tsv")

        report = self.stage(timings, "eval", c.test_frames, evaluate)
        self.stage(timings, "predict", c.test[0].n_frames, predict)
        self.model_ap = report.average_precision
        self.eval_samples = report.n_samples

    def outputs(self, out):
        """Files whose bytes must repeat at a fixed seed."""
        return (list(self.data_dir(out).glob("*.shard"))
                + [out / "run" / "checkpoint.dckpt", out / "report.tsv", out / "timeline.tsv"])

    def checks(self, out):
        """(name, ok) pairs on the last pass's outputs."""
        manifest = ds.DatasetManifest.load(self.data_dir(out) / "manifest.tsv")
        try:
            decoded = {part: sum(len(ds.read_shard(p)) for p in manifest.shard_paths[part])
                       for part in ("train", "val")}
            shards_ok = all(decoded[p] == manifest.counts[p] for p in decoded)
        except DeathcastError:
            shards_ok = False
        checks = [
            ("ingest_accepts_all", self.ingest_accepts_all(out)),
            ("shard_counts_and_checksums", shards_ok),
            ("eval_n_samples", self.eval_samples == expected_eval_samples(self.corpus.test)),
            ("round_trip", self.round_trip_ok()),
        ]
        # Bayes AP bounds the model's AP in expectation only; on a handful of
        # positives either can win by chance, so compare only on enough.
        if self.corpus.test_positives >= MIN_AP_POSITIVES:
            checks.append(("model_ap_within_oracle", self.model_ap <= self.oracle_ap + 0.02))
        return checks

    def ingest_accepts_all(self, out):
        """In memory there is no ingest stage; apply its acceptance rule."""
        return all(md.validate_match(m).ok for m in self.corpus.matches)

    def quality(self):
        """(best validation AP, test AP / Bayes AP) of the last pass."""
        return self.val_ap, self.model_ap / self.oracle_ap


def _cli(log, *argv):
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise StageFailed(f"deathcast {argv[0]} exited {rc}")


def _best_val_ap(metrics_tsv):
    rows = Path(metrics_tsv).read_text(encoding="utf-8").split("\n")
    return max(float(r.split("\t")[2]) for r in rows if r)


class TextIO(Workload):
    """CLI synth -> ingest -> extract -> train -> eval -> predict, via JSON."""

    name = "text-io"
    # Set-up only generates the benchmark's in-memory copy of the corpus, for
    # the checks; the pipeline generates its own in the synth stage.
    setup_feeds_pass = False

    def data_dir(self, out):
        return out / "data"

    def iterate(self, out):
        s, c = self.size, self.corpus
        raw, store, data, run = out / "raw", out / "store", out / "data", out / "run"
        ckpt, report = run / "checkpoint.dckpt", out / "report.tsv"
        t = self.threads
        timings = {}
        with open(out / "cli.log", "w", encoding="utf-8") as log:
            self.stage(timings, "synth", c.frames, _cli, log, "synth", "--out", raw,
                       "--matches", s["matches"], "--frames", s["frames"],
                       "--seed", c.cfg.seed, "--pauses", s["pauses"],
                       "--pause-ticks", s["pause_ticks"], "--threads", t)
            self.stage(timings, "ingest", c.frames, _cli, log, "ingest",
                       "--matches", raw, "--out", store)
            self.stage(timings, "extract", c.frames, _cli, log, "extract", "--store", store,
                       "--out", data, "--schema", s["schema"], "--seed", c.split_seed,
                       "--threads", t)
            for _ in range(s["tail"]):
                self.stage(timings, "train", s["steps"] * s["batch"], _cli, log, "train",
                           "--data", data, "--out", run, "--steps", s["steps"],
                           "--val-interval", s["val_interval"], "--seed", c.split_seed,
                           "--shared", s["shared"], "--final", s["final"],
                           "--batch", s["batch"])
                self.stage(timings, "eval", c.test_frames, _cli, log, "eval",
                           "--checkpoint", ckpt, "--data", data, "--store", store,
                           "--report", report, "--threads", t)
                self.stage(timings, "predict", c.test[0].n_frames, _cli, log, "predict",
                           "--checkpoint", ckpt,
                           "--match", store / f"{c.test[0].match_id}.jsonl",
                           "--out", out / "timeline.tsv")
        head = read_tsv(report)
        self.model_ap = float(head["average_precision"])
        self.eval_samples = int(head["n_samples"])
        self.val_ap = _best_val_ap(run / "metrics.tsv")
        return timings

    def ingest_accepts_all(self, out):
        ingested = [mid for mid, _ in cli.read_store(out / "store")]
        return ingested == [m.match_id for m in self.corpus.matches]


class TrainFull(Workload):
    """Full-schema dataset built in set-up; CLI train of the default full model."""

    name = "train-full"

    def data_dir(self, out):
        return self.work / "data"

    def setup(self, work):
        super().setup(work)
        c = self.corpus
        self.work = work
        shutil.rmtree(work / "data", ignore_errors=True)
        ds.build_dataset(lambda: iter(c.matches), work / "data",
                         ft.feature_schema(self.size["schema"]), window=WINDOW,
                         period_ticks=PERIOD, split_seed=c.split_seed,
                         shuffle_seed=c.split_seed + 1, drop_seed=c.split_seed + 2,
                         threads=self.threads)

    def iterate(self, out):
        s = self.size
        run = out / "run"
        timings = {}
        argv = ["train", "--data", self.work / "data", "--out", run, "--steps", s["steps"],
                "--val-interval", s["val_interval"], "--seed", self.corpus.split_seed]
        if s["batch"] != 128:
            argv += ["--batch", s["batch"]]
        with open(out / "cli.log", "w", encoding="utf-8") as log:
            self.stage(timings, "train", s["steps"] * s["batch"], _cli, log, *argv)
        self._eval_predict(timings, run / "checkpoint.dckpt", out)
        self.val_ap = _best_val_ap(run / "metrics.tsv")
        return timings


class LearnSmall(Workload):
    """In-memory build_dataset -> train.train -> evaluate_test -> export_timeline."""

    name = "learn-small"

    def data_dir(self, out):
        return out / "data"

    def iterate(self, out):
        s, c = self.size, self.corpus
        data, ckpt = out / "data", out / "run" / "checkpoint.dckpt"
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        timings = {}
        manifest = self.stage(timings, "extract", c.frames, ds.build_dataset,
                              lambda: iter(c.matches), data, ft.feature_schema(s["schema"]),
                              window=WINDOW, period_ticks=PERIOD, split_seed=c.split_seed,
                              shuffle_seed=c.split_seed + 1, drop_seed=c.split_seed + 2,
                              threads=self.threads)

        def train():
            pools = [ds.ShardPool.from_paths(manifest.shard_paths[p], split=p,
                                             expect_variant=manifest.variant)
                     for p in ("train", "val")]
            model = mdl.ModelConfig(variant=manifest.variant,
                                    per_hero_count=pools[0].shards[0].per_hero_count,
                                    shared_layers=s["shared"], final_layers=s["final"],
                                    learning_rate=s["lr"], batch_size=s["batch"],
                                    seed=c.split_seed)
            run = tr.TrainRunConfig(model=model, max_steps=s["steps"],
                                    val_interval=s["val_interval"], batch_seed=c.split_seed,
                                    checkpoint_path=str(ckpt))
            stats = ft.load_norm_stats(manifest.stats_path)
            return tr.train(run, *pools, stats=stats)

        result = self.stage(timings, "train", s["steps"] * s["batch"], train)
        self.val_ap = result.best_val_ap
        self._eval_predict(timings, ckpt, out)
        return timings


WORKLOADS = {w.name: w for w in (TextIO, TrainFull, LearnSmall)}
