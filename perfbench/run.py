"""deathcast benchmark.

    python3 perfbench/run.py --workload text-io --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from
`src/` next to this directory, never from an installed copy. A run first
searches, untimed, for usable inputs derived from the seed, then sets them
up several times (median reported as `setup_s`), then repeats the timed
pipeline pass until `--seconds` have elapsed and reports medians over the
passes and over each stage's samples. With `--trace 1` the first half of the
time runs untraced and the rest traced, and the per-layer metrics come
from the spans of the traced set-up (where it feeds the pass) and of the
median traced pass, plus a separately traced oracle. The input search and
the output checks always run untraced.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The lines above it repeat every
metric with its unit, the output checks and the environment. Full results
and the traced spans go to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Stage threads per workload; BLAS gets the rest of the cores, so stage
# threads times BLAS threads never exceeds nproc.
STAGE_THREADS = {"text-io": 2, "train-full": 1, "learn-small": 1}


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_info(np):
    """(library description, live thread count or None)."""
    import ctypes
    import glob

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for ln in packed.read_text().splitlines():
            if ln.endswith(" " + ref[5:]):
                return ln.split()[0]
    return None


def source_digest():
    h = hashlib.blake2b(digest_size=16)
    for p in sorted((SRC / "deathcast").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run: set-up, timed passes, checks, metrics."""

    def __init__(self, wl, seconds, tracer, targets, work, key):
        self.wl = wl
        self.seconds = seconds
        self.trace = tracer is not None
        self.tracer = tracer
        self.targets = targets
        self.work = work
        self.digest_key = key
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setups = []  # wall time of each set-up
        self.passes = []  # dicts: wall, timings, traced, window, spans, digest
        self.checks = []
        self.oracle = None
        self.setup_spans = self.oracle_spans = (0, 0)

    def fail(self, what):
        self.failed += 1
        self.failures.append(what)

    def _traced(self, on):
        if on and self.wl.tracer is None:
            self.tracer.install(self.targets)
            self.wl.tracer = self.tracer
        elif not on and self.wl.tracer is not None:
            self.tracer.uninstall()
            self.wl.tracer = None

    def execute(self):
        from workloads import SETUP_REPEATS, file_digest

        self.wl.choose()
        for rep in range(SETUP_REPEATS):
            traced = self.trace and self.wl.setup_feeds_pass and rep == SETUP_REPEATS - 1
            self._traced(traced)
            first = len(self.tracer.spans) if traced else 0
            t0 = time.perf_counter()
            self.wl.setup(self.work)
            self.setups.append(time.perf_counter() - t0)
            self.attempted += 1
            if traced:
                self.setup_spans = (first, len(self.tracer.spans))
            self._traced(False)

        start = time.perf_counter()
        deadline = start + self.seconds
        untraced_until = start + self.seconds / 2 if self.trace else deadline
        prev = None
        while True:
            traced = self.trace and bool(self.passes) and time.perf_counter() >= untraced_until
            self._traced(traced)
            out = self.work / f"pass{len(self.passes)}"
            out.mkdir(parents=True)
            first = len(self.tracer.spans) if traced else 0
            t0 = time.perf_counter()
            self.attempted += 1
            timings = self.wl.iterate(out)
            t1 = time.perf_counter()
            self.passes.append(dict(
                wall=t1 - t0, timings=timings, traced=traced, window=(t0, t1),
                spans=(first, len(self.tracer.spans)) if traced else None,
                digest=file_digest(self.wl.outputs(out)), out=out))
            if prev is not None:
                shutil.rmtree(prev["out"])
            prev = self.passes[-1]
            if time.perf_counter() >= deadline and (
                    not self.trace or any(p["traced"] for p in self.passes)):
                break

        self._traced(False)
        clean = self.wl.strip_test()
        self._traced(self.trace)
        first = len(self.tracer.spans) if self.trace else 0
        self.attempted += 1
        self.oracle = self.wl.oracle(clean)
        if self.trace:
            self.oracle_spans = (first, len(self.tracer.spans))
        self._traced(False)
        self.checks = list(self.wl.checks(prev["out"]))
        digests = {p["digest"] for p in self.passes}
        self.checks.append(("repeat_digests_equal", len(digests) == 1))
        self.checks.append(("digest_matches_earlier_runs", self._remember(prev["digest"])))
        for name, ok in self.checks:
            self.attempted += 1
            if not ok:
                self.fail(f"check {name}")

    def _remember(self, digest):
        """Compare with the digest an earlier run stored for the same inputs."""
        path = WORK / "digests.json"
        known = json.loads(path.read_text()) if path.is_file() else {}
        seen = known.setdefault(self.digest_key, digest)
        if seen == digest:
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, path)
        return seen == digest

    def end_to_end(self):
        """Medians over the set-ups, the untraced passes and each stage's
        samples (see README.md). A stage's rate is present only when the
        timed pass runs that stage.
        """
        from metrics import STAGES, rate_name

        untraced = [p for p in self.passes if not p["traced"]]
        out = {"setup_s": median(self.setups),
               "pipeline_s": median([p["wall"] for p in untraced])}
        for st in STAGES:
            rates = [units / sec for p in untraced for sec, units in p["timings"].get(st, ())]
            if rates:
                out[rate_name(st)] = median(rates)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def per_layer(self, n_matches):
        from metrics import per_layer

        traced = [p for p in self.passes if p["traced"]]
        rep = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
        spans = self.tracer.spans
        chosen = spans[slice(*self.setup_spans)] + spans[slice(*rep["spans"])]
        oracle = spans[slice(*self.oracle_spans)]
        out = per_layer(chosen, oracle, n_matches, rep["window"])
        untraced = [p["wall"] for p in self.passes if not p["traced"]]
        out["trace_overhead_s"] = rep["wall"] - median(untraced)
        seconds, frames = self.oracle
        out["oracle_frames_per_s"] = frames / seconds
        return out, chosen + oracle


def parse_args(argv):
    p = argparse.ArgumentParser(description="deathcast benchmark")
    p.add_argument("--workload", required=True, choices=sorted(STAGE_THREADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="input sizes; tiny is for the smoke test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "deathcast" / "__init__.py").is_file():
        print(f"error: no deathcast sources under {SRC}", file=sys.stderr)
        return 2
    cores = nproc()
    threads = min(STAGE_THREADS[args.workload], cores)
    blas_threads = max(1, cores // threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import deathcast
    if Path(deathcast.__file__).resolve().parent != (SRC / "deathcast").resolve():
        print(f"error: imported deathcast from {deathcast.__file__}", file=sys.stderr)
        return 2
    from deathcast import cli, util
    from deathcast import dataset as ds
    from deathcast import evaluation as ev
    from deathcast import features as ft
    from deathcast import match_data as md
    from deathcast import model as mdl
    from deathcast import synth as sy
    from deathcast import train as tr

    import metrics
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.size, args.seed, threads)
    blas_name, blas_live = blas_info(np)
    env = {
        "git_sha": git_sha(), "source_digest": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_name, "blas_threads": blas_live,
        "blas_threads_env": blas_threads, "stage_threads": threads, "nproc": cores,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": wl.size,
    }
    key = "|".join(str(v) for v in (args.workload, json.dumps(wl.size, sort_keys=True),
                                    args.seed, env["source_digest"], threads, blas_threads))
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, args.seconds, tracing.Tracer() if args.trace else None,
              metrics.trace_targets(md, sy, ft, ds, mdl, tr, ev, util, cli), work, key)
    spans = []
    values = {}
    quality = None
    extra = {}  # printed, not in the result: metrics of stages only some passes run
    try:
        run.execute()
        quality = wl.quality()
        if args.trace:
            values, spans = run.per_layer(len(wl.corpus.matches))
            values["val_ap"], values["test_ap_ratio"] = quality
        else:
            values = run.end_to_end()
            extra = {name: values[name] for name, unit in metrics.STAGE_ONLY if name in values}
            extra["oracle_frames_per_s"] = run.oracle[1] / run.oracle[0]
    except Exception:  # any stage or check error is a failed operation, reported below
        traceback.print_exc()
        run.attempted += 1
        run.fail("exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    specs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    units = {spec[0]: spec[1] for spec in specs}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units if name in values}}

    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(run.passes)} (traced {sum(p['traced'] for p in run.passes)}), "
          f"set-ups {len(run.setups)}")
    for name, ok in run.checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    for what in run.failures:
        print(f"failure {what}")
    print(f"failed_ratio {run.failed / max(run.attempted, 1):.6g} ratio")
    if quality is not None and not args.trace:
        print(f"val_ap {quality[0]:.6g} AP\ntest_ap_ratio {quality[1]:.6g} ratio")
    for name, unit in metrics.STAGE_ONLY + [("oracle_frames_per_s", "frames/s")]:
        if name in extra:
            print(f"{name} {extra[name]:.6g} {unit}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"env": env, "result": result, "unbounded": extra, "checks": run.checks,
         "failures": run.failures, "quality": quality, "oracle": run.oracle,
         "setup_s": run.setups,
         "passes": [{"wall": p["wall"], "traced": p["traced"],
                     "stages": {k: [t for t, _ in v] for k, v in p["timings"].items()}}
                    for p in run.passes]}, indent=1))
    if spans:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s._asdict()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
