import gzip
import hashlib
import json
import multiprocessing
import re
import shutil
import subprocess
import sys

import pytest

from deathcast import cli
from deathcast import features as ft
from deathcast import match_data as md
from deathcast import synth as sy

from oracles import reference_encode_match_v1


def run_cli(*argv):
    return cli.main(list(argv))


class TestSchemaDump:
    @pytest.mark.parametrize("variant,count", [("full", 287), ("medium", 109), ("minimal", 15)])
    def test_line_counts(self, capsys, variant, count):
        assert run_cli("schema-dump", "--schema", variant) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == count

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "deathcast.cli", "schema-dump",
                               "--schema", "full"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 287

    def test_usage_error_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "deathcast.cli", "schema-dump",
                               "--schema", "gigantic"], capture_output=True, text=True)
        assert proc.returncode == 2


class TestOptionResolution:
    def test_precedence_flags_env_config(self, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "opts.conf"
        conf.write_text("schema=medium\nseed=5\n")
        # config file only
        parser = cli.build_parser()
        args = parser.parse_args(["schema-dump", "--config", str(conf)])
        opt = cli.resolve_options(args)
        assert opt.schema == "medium" and opt.seed == 5
        # env beats config
        monkeypatch.setenv("DEATHCAST_SCHEMA", "full")
        opt = cli.resolve_options(parser.parse_args(["schema-dump", "--config", str(conf)]))
        assert opt.schema == "full"
        # flag beats env
        opt = cli.resolve_options(parser.parse_args(
            ["schema-dump", "--config", str(conf), "--schema", "minimal"]))
        assert opt.schema == "minimal"


    @pytest.mark.parametrize("var,value", [("SCHEMA", "bogus"), ("THREADS", "two"),
                                           ("WINDOW_SECONDS", "soon"), ("WINDOW_SECONDS", "nan"),
                                           ("PERIOD_TICKS", "0"), ("THRESHOLD", "nan")])
    def test_bad_environment_value_is_usage_error(self, monkeypatch, capsys, var, value):
        monkeypatch.setenv(f"DEATHCAST_{var}", value)
        assert run_cli("schema-dump") == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error\tkind=UsageError\texit=2\t")

    @pytest.mark.parametrize("line", ["schema=nope", "seed=five", "no equals sign",
                                      "schmea=full", "period_ticks=0", "threshold=7"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, line):
        conf = tmp_path / "opts.conf"
        conf.write_text(line + "\n")
        assert run_cli("schema-dump", "--config", str(conf)) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error\tkind=UsageError\texit=2\t")

    @pytest.mark.parametrize("argv", [
        ["extract", "--store", "s", "--out", "o", "--period-ticks", "0"],
        ["extract", "--store", "s", "--out", "o", "--drop-fraction", "1.5"],
        ["predict", "--checkpoint", "c", "--match", "m", "--out", "o", "--period-ticks", "0"],
        ["predict", "--checkpoint", "c", "--match", "m", "--out", "o", "--threshold", "nan"],
        ["eval", "--checkpoint", "c", "--data", "d", "--store", "s", "--report", "r",
         "--threshold", "-1"],
        ["train", "--data", "d", "--out", "o", "--val-interval", "0"],
        ["train", "--data", "d", "--out", "o", "--batch", "7"],
        ["search", "--data", "d", "--out", "o", "--budget", "0"],
    ], ids=lambda argv: " ".join([argv[0]] + argv[-2:]))
    def test_out_of_range_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)  # refused before any of these paths is read
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error\tkind=UsageError\texit=2\t")
        assert list(tmp_path.iterdir()) == []

    def test_synth_pauses_on_two_frames_is_invalid_config(self, tmp_path, capsys):
        out = tmp_path / "raw"
        assert run_cli("synth", "--out", str(out), "--matches", "1", "--frames", "2",
                       "--pauses", "1", "--pause-ticks", "5") == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error\tkind=InvalidConfig\texit=3\t")
        assert not out.exists()


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """synth -> ingest -> extract -> train -> eval on a tiny corpus."""
    root = tmp_path_factory.mktemp("pipe")
    raw = root / "raw"
    store = root / "store"
    data = root / "data"
    run = root / "run"
    rc = run_cli("synth", "--out", str(raw), "--matches", "14", "--frames", "1800",
                 "--seed", "2", "--threads", "1")
    assert rc == 0
    rc = run_cli("ingest", "--matches", str(raw), "--out", str(store))
    assert rc == 0
    rc = run_cli("extract", "--store", str(store), "--out", str(data),
                 "--schema", "minimal", "--seed", "3", "--threads", "1")
    assert rc == 0
    rc = run_cli("train", "--data", str(data), "--out", str(run), "--steps", "1500",
                 "--val-interval", "500", "--seed", "4",
                 "--shared", "16,8", "--final", "16", "--lr", "1e-3")
    assert rc == 0
    return root, raw, store, data, run


class TestPipeline:
    def test_end_to_end_eval(self, pipeline_dirs, capsys):
        root, raw, store, data, run = pipeline_dirs
        report = root / "report.tsv"
        ttd = root / "ttd.tsv"
        rc = run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                     "--data", str(data), "--store", str(store),
                     "--report", str(report), "--ttd", str(ttd), "--threads", "1")
        assert rc == 0
        text = report.read_text()
        assert text.startswith("average_precision\t")
        assert "[pr_curve]" in text
        assert ttd.read_text().splitlines()[-1].startswith("no_death\t")

    def test_eval_refuses_training_matches(self, pipeline_dirs, tmp_path, capsys):
        root, raw, store, data, run = pipeline_dirs
        from deathcast.dataset import DatasetManifest
        manifest = DatasetManifest.load(data / "manifest.tsv")
        train_dir = tmp_path / "train_matches"
        train_dir.mkdir()
        first_train = manifest.split.train[0]
        name = f"{first_train}.jsonl"
        (train_dir / name).write_bytes((store / name).read_bytes())
        rc = run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                     "--data", str(data), "--store", str(store),
                     "--match-dir", str(train_dir),
                     "--report", str(tmp_path / "r.tsv"))
        assert rc == cli.EXIT_DATA
        assert "refusing to evaluate on train/val matches" in capsys.readouterr().err

    def test_eval_match_dir_ignores_stray_archive(self, pipeline_dirs, tmp_path):
        root, raw, store, data, run = pipeline_dirs
        from deathcast.dataset import DatasetManifest
        manifest = DatasetManifest.load(data / "manifest.tsv")
        test_dir = tmp_path / "test_matches"
        test_dir.mkdir()
        for mid in manifest.split.test:
            name = f"{mid}.jsonl"
            (test_dir / name).write_bytes((store / name).read_bytes())
        (test_dir / "notes.tar.gz").write_bytes(b"not a match file")
        report = tmp_path / "r.tsv"
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                       "--data", str(data), "--store", str(store),
                       "--match-dir", str(test_dir), "--report", str(report)) == 0
        stored = root / "stored_report.tsv"
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                       "--data", str(data), "--store", str(store),
                       "--report", str(stored)) == 0
        assert report.read_bytes() == stored.read_bytes()

    def test_eval_match_dir_without_match_files_is_data_error(self, pipeline_dirs, tmp_path,
                                                              capsys):
        root, raw, store, data, run = pipeline_dirs
        empty = tmp_path / "no_matches"
        empty.mkdir()
        (empty / "notes.txt").write_text("not a match file\n")
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                       "--data", str(data), "--store", str(store),
                       "--match-dir", str(empty),
                       "--report", str(tmp_path / "r.tsv")) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error\tkind=SchemaViolation\texit=3\t")

    def test_eval_ttd_scores_each_test_match_once(self, pipeline_dirs, tmp_path,
                                                  monkeypatch):
        root, raw, store, data, run = pipeline_dirs
        from deathcast import evaluation as ev
        from deathcast.dataset import DatasetManifest
        scored = []
        match_samples = ev.match_samples

        def counted(m, *args, **kwargs):
            scored.append(m.match_id)
            return match_samples(m, *args, **kwargs)

        monkeypatch.setattr(ev, "match_samples", counted)
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                       "--data", str(data), "--store", str(store),
                       "--report", str(tmp_path / "r.tsv"), "--ttd", str(tmp_path / "t.tsv"),
                       "--threads", "1") == 0
        assert scored == list(DatasetManifest.load(data / "manifest.tsv").split.test)

    def test_eval_match_dir_takes_match_text_only(self, pipeline_dirs, tmp_path, capsys):
        root, raw, store, data, run = pipeline_dirs
        from deathcast.dataset import DatasetManifest
        test_id = DatasetManifest.load(data / "manifest.tsv").split.test[0]
        match_dir = tmp_path / "matches"
        match_dir.mkdir()
        (match_dir / "x.jsonl").write_bytes((store / f"{test_id}.dmatch").read_bytes())
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                       "--data", str(data), "--store", str(store),
                       "--match-dir", str(match_dir),
                       "--report", str(tmp_path / "r.tsv")) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error\tkind=MalformedRecord\texit=3\t")
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("target,kind,code", [("config", "UsageError", 2),
                                                  ("store_manifest", "SchemaViolation", 3),
                                                  ("norm_stats", "SchemaMismatch", 3)])
    def test_text_input_not_utf8_is_typed_error(self, pipeline_dirs, tmp_path, capsys,
                                                target, kind, code):
        root, raw, store, data, run = pipeline_dirs
        if target == "config":
            bad = tmp_path / "opts.conf"
            bad.write_bytes(b"\xffschema=full\n")
            argv = ["schema-dump", "--config", str(bad)]
        elif target == "store_manifest":
            (tmp_path / "store").mkdir()
            bad = shutil.copy(store / "store_manifest.tsv", tmp_path / "store")
            argv = ["extract", "--store", str(tmp_path / "store"), "--out", str(tmp_path / "d")]
        else:
            shutil.copytree(data, tmp_path / "data")
            bad = tmp_path / "data" / "norm_stats.tsv"
            argv = ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run"),
                    "--steps", "2", "--val-interval", "1"]
        if target != "config":
            with open(bad, "ab") as fh:
                fh.write(b"\xff")
        assert run_cli(*argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error\tkind={kind}\texit={code}\t")
        assert "UTF-8" in err[0]

    def test_store_from_before_binary_records_still_works(self, pipeline_dirs, tmp_path):
        """A store whose manifest names .jsonl files and no roster (the
        layout before binary records) extracts, evaluates and predicts."""
        root, raw, store, data, run = pipeline_dirs
        old = tmp_path / "old_store"
        old.mkdir()
        lines = []
        for mid, path in cli.read_store(store):
            name = f"{mid}.jsonl"
            (old / name).write_bytes((store / name).read_bytes())
            lines.append(f"{mid}\t{name}\t{md.load_match(path).n_frames}")
        (old / "store_manifest.tsv").write_text("\n".join(lines) + "\n")
        assert [p.name for _, p in cli.read_store(old)] == [l.split("\t")[1] for l in lines]
        assert run_cli("extract", "--store", str(old), "--out", str(tmp_path / "data"),
                       "--schema", "minimal", "--seed", "3", "--threads", "1") == 0
        for p in sorted(data.glob("*.shard")) + [data / "norm_stats.tsv"]:
            assert (tmp_path / "data" / p.name).read_bytes() == p.read_bytes()
        assert run_cli("eval", "--checkpoint", str(run / "checkpoint.dckpt"),
                       "--data", str(data), "--store", str(old),
                       "--report", str(tmp_path / "r.tsv"), "--threads", "1") == 0

    def test_predict_writes_timeline(self, pipeline_dirs, tmp_path):
        root, raw, store, data, run = pipeline_dirs
        rows = cli.read_store(store)
        out = tmp_path / "timeline.tsv"
        rc = run_cli("predict", "--checkpoint", str(run / "checkpoint.dckpt"),
                     "--match", str(rows[0][1]), "--out", str(out),
                     "--threshold", "0.5")
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) > 10
        assert lines[1].count("\t") == 3

    @pytest.mark.parametrize("compress", [False, True])
    def test_predict_on_store_text_decodes_its_record(self, pipeline_dirs, tmp_path,
                                                      monkeypatch, compress):
        root, raw, store, data, run = pipeline_dirs
        own = tmp_path / "store"
        assert run_cli("synth", "--out", str(tmp_path / "raw"), "--matches", "1",
                       "--frames", "120", "--seed", "6", "--threads", "1",
                       *(["--compress"] if compress else [])) == 0
        assert run_cli("ingest", "--matches", str(tmp_path / "raw"), "--out", str(own)) == 0
        (mid, record), = cli.read_store(own)
        text = (own / f"{mid}.jsonl").read_bytes()
        assert record.read_bytes()[-24:-8] == hashlib.blake2b(text, digest_size=16).digest()
        (tmp_path / "copy.jsonl").write_bytes(text)  # no record beside it
        predict = ["predict", "--checkpoint", str(run / "checkpoint.dckpt"), "--match"]
        assert run_cli(*predict, str(tmp_path / "copy.jsonl"),
                       "--out", str(tmp_path / "parsed.tsv")) == 0

        def refuse(data):
            raise AssertionError("parsed a match that ingest encoded")

        monkeypatch.setattr(md, "parse_match", refuse)
        assert run_cli(*predict, str(own / f"{mid}.jsonl"),
                       "--out", str(tmp_path / "decoded.tsv")) == 0
        assert (tmp_path / "decoded.tsv").read_bytes() == (tmp_path / "parsed.tsv").read_bytes()

    def test_store_of_version_1_records_extracts_the_same(self, pipeline_dirs, tmp_path):
        root, raw, store, data, run = pipeline_dirs
        old = tmp_path / "store"
        shutil.copytree(store, old)
        for _, path in cli.read_store(old):
            path.write_bytes(reference_encode_match_v1(md.load_match(path)))
            assert path.read_bytes()[4:6] == b"\x01\x00"
        assert run_cli("extract", "--store", str(old), "--out", str(tmp_path / "data"),
                       "--schema", "minimal", "--seed", "3", "--threads", "1") == 0
        for p in [*data.glob("*.shard"), data / "norm_stats.tsv", data / "manifest.tsv"]:
            assert (tmp_path / "data" / p.name).read_bytes() == p.read_bytes()

    def test_search_runs(self, pipeline_dirs, tmp_path):
        root, raw, store, data, run = pipeline_dirs
        table = tmp_path / "trials.tsv"
        rc = run_cli("search", "--data", str(data), "--out", str(table),
                     "--budget", "2", "--trial-steps", "60", "--val-interval", "30",
                     "--seed", "5")
        assert rc == 0
        assert len(table.read_text().splitlines()) == 3

    def test_dataset_built_relative_trains_from_elsewhere(self, pipeline_dirs, monkeypatch):
        root, raw, store, data, run = pipeline_dirs
        monkeypatch.chdir(root)
        assert run_cli("extract", "--store", "store", "--out", "data_rel",
                       "--schema", "minimal", "--seed", "3", "--threads", "1") == 0
        monkeypatch.chdir(root.parent)
        assert run_cli("train", "--data", f"{root.name}/data_rel", "--out",
                       f"{root.name}/run_rel", "--steps", "2", "--val-interval", "1",
                       "--shared", "4", "--final", "4", "--batch", "8") == 0
        assert (data / "manifest.tsv").read_text() == (root / "data_rel/manifest.tsv").read_text()

    def test_metrics_log_exists(self, pipeline_dirs):
        root, raw, store, data, run = pipeline_dirs
        lines = (run / "metrics.tsv").read_text().splitlines()
        assert len(lines) == 3  # 1500 steps / 500 interval


def test_extract_never_loads_a_test_match(tmp_path, monkeypatch):
    raw, store = tmp_path / "raw", tmp_path / "store"
    assert run_cli("synth", "--out", str(raw), "--matches", "10", "--frames", "100",
                   "--seed", "1", "--pauses", "2", "--pause-ticks", "10", "--threads", "1") == 0
    assert run_cli("ingest", "--matches", str(raw), "--out", str(store)) == 0
    calls = []
    decode, extract = md.decode_match, ft.extract_match
    monkeypatch.setattr(md, "decode_match", lambda blob: calls.append("decode") or decode(blob))
    monkeypatch.setattr(ft, "extract_match",
                        lambda m, *args: calls.append("extract") or extract(m, *args))
    assert run_cli("extract", "--store", str(store), "--out", str(tmp_path / "data"),
                   "--schema", "medium", "--seed", "1", "--threads", "1") == 0
    assert calls.count("decode") == calls.count("extract") == 9  # of 10: one is a test match


class TestIngest:
    def test_rejects_broken_file(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        cfg = sy.SynthConfig(n_frames=120, seed=8)
        md.save_match(sy.generate_match(cfg, 0), raw / "good.jsonl")
        (raw / "bad.jsonl").write_text("{broken\n")
        store = tmp_path / "store"
        rc = run_cli("ingest", "--matches", str(raw), "--out", str(store))
        assert rc == 0
        err = capsys.readouterr().err
        assert "reject\tbad.jsonl" in err
        assert len(cli.read_store(store)) == 1

    def test_rejects_roster_mismatch_and_records_roster(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        cfg = sy.SynthConfig(n_matches=2, n_frames=120, seed=8)
        for i in range(2):
            md.save_match(sy.generate_match(cfg, i), raw / f"m{i}.jsonl")
        lines = (raw / "m1.jsonl").read_text().splitlines()
        lines[0] = lines[0].replace('"roster_size":130', '"roster_size":200')
        (raw / "m1.jsonl").write_text("\n".join(lines) + "\n")
        store = tmp_path / "store"
        assert run_cli("ingest", "--matches", str(raw), "--out", str(store)) == 0
        err = capsys.readouterr().err
        assert "reject\tm1.jsonl\troster_size 200 differs" in err
        assert (store / "store_manifest.tsv").read_text().splitlines()[0] == "roster_size\t130"
        assert len(cli.read_store(store)) == 1

    def test_takes_only_match_files(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        cfg = sy.SynthConfig(n_frames=120, seed=8)
        md.save_match(sy.generate_match(cfg, 0), raw / "good.jsonl.gz")
        (raw / "backup.tar.gz").write_bytes(b"not a match file")
        store = tmp_path / "store"
        assert run_cli("ingest", "--matches", str(raw), "--out", str(store)) == 0
        assert "reject" not in capsys.readouterr().err
        (mid, path), = cli.read_store(store)
        assert md.load_match(path) == md.load_match(store / f"{mid}.jsonl")
        assert path.read_bytes()[:4] == md.MATCH_MAGIC

    @pytest.mark.parametrize("bad_id", ["", ".", "..", "a/b", "a\\b", "a\0b", "a\tb",
                                        "a\rb", "a\nb"])
    def test_rejects_match_id_that_cannot_name_a_file(self, tmp_path, capsys, bad_id):
        raw = tmp_path / "raw"
        raw.mkdir()
        cfg = sy.SynthConfig(n_matches=2, n_frames=60, seed=8)
        good = sy.generate_match(cfg, 0)
        md.save_match(good, raw / "good.jsonl")
        lines = md.write_match(sy.generate_match(cfg, 1)).decode().splitlines()
        head = json.loads(lines[0])
        head["match_id"] = bad_id
        (raw / "bad.jsonl").write_text("\n".join([json.dumps(head), *lines[1:]]) + "\n")
        store = tmp_path / "store"
        assert run_cli("ingest", "--matches", str(raw), "--out", str(store)) == 0
        assert "reject\tbad.jsonl\tmatch id" in capsys.readouterr().err
        assert len(cli.read_store(store)) == 1
        assert sorted(p.name for p in store.iterdir()) == sorted(
            [f"{good.match_id}.dmatch", f"{good.match_id}.jsonl", "store_manifest.tsv"])

    def test_infinite_game_time_rejected_at_ingest(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert run_cli("synth", "--out", str(raw), "--matches", "5", "--frames", "240",
                       "--seed", "7", "--threads", "1") == 0
        bad = raw / "match_00002.jsonl"
        lines = bad.read_text().splitlines()
        lines[-2] = re.sub(r'"game_time":[^,]+', '"game_time":1e999', lines[-2])
        bad.write_text("\n".join(lines) + "\n")
        store = tmp_path / "store"
        assert run_cli("ingest", "--matches", str(raw), "--out", str(store)) == 0
        assert "reject\tmatch_00002.jsonl\t" in capsys.readouterr().err
        assert len(cli.read_store(store)) == 4
        assert run_cli("extract", "--store", str(store), "--out", str(tmp_path / "data"),
                       "--seed", "1", "--threads", "1") == 0

    def test_store_text_is_the_validated_input(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        cfg = sy.SynthConfig(n_matches=2, n_frames=60, seed=8)
        packed = [sy.generate_match(cfg, i) for i in range(2)]
        md.save_match(packed[0], raw / "a.jsonl.gz")
        # permuted heroes and spacing: valid, but not the canonical form
        lines = md.write_match(packed[1]).decode().splitlines()
        frame = json.loads(lines[1])
        frame["heroes"].reverse()
        lines[1] = json.dumps(frame)
        text = ("\n".join(lines) + "\n").encode()
        (raw / "b.jsonl").write_bytes(text)
        store = tmp_path / "store"
        assert run_cli("ingest", "--matches", str(raw), "--out", str(store)) == 0
        assert (store / f"{packed[0].match_id}.jsonl").read_bytes() == md.write_match(packed[0])
        assert (store / f"{packed[1].match_id}.jsonl").read_bytes() == text
        for m in packed:
            assert md.load_match(store / f"{m.match_id}.jsonl") == m
            assert md.load_match(store / f"{m.match_id}.dmatch") == m

    def test_rejects_binary_record_and_double_gzip(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        cfg = sy.SynthConfig(n_matches=3, n_frames=60, seed=8)
        md.save_match(sy.generate_match(cfg, 0), raw / "good.jsonl")
        (raw / "record.jsonl").write_bytes(md.encode_match(sy.generate_match(cfg, 1)))
        (raw / "twice.jsonl.gz").write_bytes(
            gzip.compress(gzip.compress(md.write_match(sy.generate_match(cfg, 2)))))
        store = tmp_path / "store"
        assert run_cli("ingest", "--matches", str(raw), "--out", str(store)) == 0
        err = capsys.readouterr().err
        assert "reject\trecord.jsonl\t" in err and "reject\ttwice.jsonl.gz\t" in err
        assert len(cli.read_store(store)) == 1

    def test_all_rejected_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "bad.jsonl").write_text("{broken\n")
        rc = run_cli("ingest", "--matches", str(raw), "--out", str(tmp_path / "s"))
        assert rc == cli.EXIT_DATA
        assert "error\tkind=" in capsys.readouterr().err

    def test_missing_dir_is_io_error(self, tmp_path, capsys):
        rc = run_cli("ingest", "--matches", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "s"))
        assert rc == cli.EXIT_IO


def tree(root):
    """{relative path: bytes} of every file under root."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def leftovers(root):
    return [p for p in root.rglob("*") if p.name.endswith(".tmp") or p.name.startswith(".ingest-")]


class TestWorkerProcesses:
    """synth and ingest give the same files and messages in-process
    (--threads 1) and on forked workers (--threads 2), and leave neither
    worker processes nor temporaries behind."""

    def run_both(self, capsys, *argv):
        """(exit code, stdout, stderr) at --threads 1 and 2; argv's "{out}"
        becomes a directory per thread count."""
        got = []
        for threads in ("1", "2"):
            name = f"out{threads}"
            rc = run_cli(*[a.replace("{out}", name) for a in argv], "--threads", threads)
            out, err = capsys.readouterr()
            assert multiprocessing.active_children() == []
            got.append((rc, out.replace(name, "{out}"), err.replace(name, "{out}")))
        assert got[0] == got[1]
        return got[0]

    @pytest.mark.parametrize("compress", [False, True])
    def test_same_trees_at_one_and_two(self, tmp_path, monkeypatch, capsys, compress):
        monkeypatch.chdir(tmp_path)
        flag = ["--compress"] if compress else []
        self.run_both(capsys, "synth", "--out", "{out}/raw", "--matches", "5",
                      "--frames", "90", "--seed", "3", "--pauses", "1", *flag)
        self.run_both(capsys, "ingest", "--matches", "{out}/raw", "--out", "{out}/store")
        assert tree(tmp_path / "out1") == tree(tmp_path / "out2")
        assert len(cli.read_store(tmp_path / "out1" / "store")) == 5
        assert leftovers(tmp_path) == []

    def test_same_messages_on_rejects(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        raw = tmp_path / "raw"
        raw.mkdir()
        cfg = sy.SynthConfig(n_matches=4, n_frames=60, seed=8)
        good = [sy.generate_match(cfg, i) for i in range(3)]
        md.save_match(good[0], raw / "a.jsonl")
        md.save_match(good[0], raw / "b_duplicate.jsonl.gz")
        lines = md.write_match(good[1]).decode().splitlines()
        lines[0] = lines[0].replace('"roster_size":130', '"roster_size":200')
        (raw / "c_roster.jsonl").write_text("\n".join(lines) + "\n")
        (raw / "d_malformed.jsonl").write_text("{broken\n")
        lines = md.write_match(sy.generate_match(cfg, 3)).decode().splitlines()
        head = json.loads(lines[0])
        head["match_id"] = "a/b"
        (raw / "e_badname.jsonl").write_text("\n".join([json.dumps(head), *lines[1:]]) + "\n")
        md.save_match(good[2], raw / "f.jsonl")
        rc, out, err = self.run_both(capsys, "ingest", "--matches", "raw", "--out", "{out}")
        assert rc == 0 and out == "ingested 2 matches (4 rejected) into {out}\n"
        assert [ln.split("\t")[1] for ln in err.splitlines()] == [
            "b_duplicate.jsonl.gz", "c_roster.jsonl", "d_malformed.jsonl", "e_badname.jsonl"]
        assert tree(tmp_path / "out1") == tree(tmp_path / "out2")
        assert leftovers(tmp_path) == []

    def test_nothing_left_after_failures(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "bad.jsonl").write_text("{broken\n")
        rc, _, err = self.run_both(capsys, "ingest", "--matches", "raw", "--out", "{out}")
        assert rc == cli.EXIT_DATA and "error\tkind=SchemaViolation" in err
        cfg = sy.SynthConfig(n_matches=3, n_frames=60, seed=8)
        for i, name in enumerate(("a", "c", "z")):
            md.save_match(sy.generate_match(cfg, i), raw / f"{name}.jsonl")
        (raw / "x.jsonl").mkdir()  # read after c and before z
        rc, _, err = self.run_both(capsys, "ingest", "--matches", "raw", "--out", "{out}")
        assert rc == cli.EXIT_IO
        assert err.splitlines()[-1].startswith("error\tkind=IsADirectoryError\texit=5\t")
        assert leftovers(tmp_path) == []


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            root = tmp_path / name
            rc = run_cli("synth", "--out", str(root / "raw"), "--matches", "4",
                         "--frames", "240", "--seed", "7", "--threads", "1")
            assert rc == 0
            rc = run_cli("ingest", "--matches", str(root / "raw"), "--out", str(root / "store"))
            assert rc == 0
            rc = run_cli("extract", "--store", str(root / "store"), "--out", str(root / "data"),
                         "--schema", "minimal", "--seed", "1", "--threads", "1")
            assert rc == 0
            outs.append(root)
        a, b = outs
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            pa = a / rel
            pb = b / rel
            if rel.name == "manifest.tsv":
                continue  # contains absolute shard paths
            assert pa.read_bytes() == pb.read_bytes(), rel
