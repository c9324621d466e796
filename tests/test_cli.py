"""Command-line interface: exit codes, file formats, manifests."""

import csv
import hashlib
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import load_json, src_env
from longmem import aggregator
from longmem.cli import main
from longmem.embeddings import load_table
from longmem.evornn import load_checkpoint
from longmem.synth import normal_bucket_table


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert "0.1.0" in out


def test_schedule_cost_preset(capsys):
    code, out, _ = run_cli(["schedule-cost", "--preset", "lm-powerlaw"], capsys)
    assert code == 0
    assert out.strip().endswith("total 24903680")
    code, out, _ = run_cli(["schedule-cost", "--preset", "seqrec-baseline"], capsys)
    assert code == 0
    assert out.strip().endswith("total 33554432")


def test_schedule_cost_unknown_preset_is_arg_error(capsys):
    code, _, err = run_cli(["schedule-cost", "--preset", "nope"], capsys)
    assert code == 2


def test_schedule_cost_from_file(tmp_path, capsys):
    path = tmp_path / "sched.json"
    path.write_text("[[4, 10]]")
    code, out, _ = run_cli(["schedule-cost", "--file", str(path)], capsys)
    assert code == 0
    assert out.strip().endswith("total 400")


def test_schedule_cost_seq_len_mismatch(tmp_path, capsys):
    path = tmp_path / "sched.json"
    path.write_text("[[4, 10]]")
    code, out, _ = run_cli(
        ["schedule-cost", "--file", str(path), "--seq-len", "6"], capsys
    )
    assert code == 1
    assert "expected 6" in out


@pytest.mark.parametrize(
    "text",
    ["[[2.7, 4]]", "[[true, 4]]", '[["a", 4]]', "[[null, 4]]", "[[4"],
    ids=["float", "bool", "string", "null", "truncated"],
)
def test_bad_schedule_file_is_clean_runtime_error(tmp_path, capsys, text):
    path = tmp_path / "sched.json"
    path.write_text(text)
    code, out, err = run_cli(["schedule-cost", "--file", str(path)], capsys)
    assert code == 1
    assert out == "" and err.startswith("error: ")
    argv = [
        "train-toy", "--schedule", str(path), "--vocab", "8", "--seq-len", "16",
        "--steps", "1", "--metrics-out", str(tmp_path / "m.csv"),
    ]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert not (tmp_path / "m.csv").exists()


def test_synth_prints_theoretical_d(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    code, out, _ = run_cli(
        ["synth", "--model", "fgn", "--hurst", "0.8", "--length", "64",
         "--count", "2", "--seed", "0", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "d = 0.3"
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["series0", "series1"]
    assert len(rows) == 65
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.all(np.isfinite(values))


def test_synth_inconsistent_d_and_hurst(tmp_path, capsys):
    code, _, _ = run_cli(
        ["synth", "--model", "fgn", "--d", "0.3", "--hurst", "0.9",
         "--length", "64", "--count", "1", "--seed", "0",
         "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("extra", [[], ["--vocab", "8"]], ids=["csv", "vocab"])
def test_synth_zero_count_is_arg_error(tmp_path, capsys, extra):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        ["synth", "--model", "white", "--length", "64", "--count", "0", "--out", str(out), *extra],
        capsys,
    )
    assert code == 2
    assert "--count" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("vocab", ["0", "1"])
def test_synth_vocab_below_two_is_runtime_error(tmp_path, capsys, vocab):
    out = tmp_path / "v.txt"
    code, _, err = run_cli(
        ["synth", "--model", "white", "--length", "8", "--vocab", vocab, "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert err == f"error: vocab size must be >= 2, got {vocab}\n"
    assert not out.exists()


@pytest.mark.parametrize("model", ["fgn", "white"])
def test_synth_ma_truncation_without_farima_is_arg_error(tmp_path, capsys, model):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        ["synth", "--model", model, "--d", "0.3", "--length", "64", "--ma-truncation", "50",
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "--ma-truncation" in err and "Traceback" not in err
    assert not out.exists()


def test_synth_consistent_d_and_hurst_accepted(tmp_path, capsys):
    code, out, _ = run_cli(
        ["synth", "--model", "fgn", "--d", "0.4", "--hurst", "0.9",
         "--length", "64", "--count", "1", "--seed", "0",
         "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 0
    assert out.strip() == "d = 0.4"


def test_synth_writes_manifest(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    code, _, _ = run_cli(
        ["synth", "--model", "white", "--length", "32", "--count", "1",
         "--seed", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    manifest = load_json(tmp_path / "x.csv.manifest.json")
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    assert manifest["config"]["model"] == "white"


@pytest.mark.parametrize("command", ["estimate", "synth", "train-toy"])
def test_manifest_config_is_every_parsed_flag_with_the_resolved_values(
    tmp_path, capsys, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    if command == "estimate":
        corpus, table = _make_corpus(tmp_path, capsys, count="2")
        argv = ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
                "--pad-length", "512", "--seed", "3", "--out", "r.json"]
        primary = "r.json"
        expected = {
            "corpus": str(corpus), "embeddings": str(table), "pad_length": 512,
            "chunk_len": 512,  # None resolves to the pad length
            "batch_size": 256, "oov": "zero", "cutoff": "full", "alpha0": 1.0, "tau": 10.0,
            "shuffle": False, "progress": False, "dump_spectrum": None, "out": "r.json",
        }
    elif command == "synth":
        argv = ["synth", "--model", "fgn", "--hurst", "0.75", "--length", "32", "--seed", "3",
                "--out", "x.csv"]
        primary = "x.csv"
        expected = {
            "model": "fgn", "d": 0.25,  # resolved from --hurst
            "hurst": 0.75, "length": 32, "count": 1, "ma_truncation": None, "vocab": None,
            "emb_out": None, "out": "x.csv",
        }
    else:
        argv = ["train-toy", "--schedule", "constant", "--vocab", "8", "--seq-len", "4",
                "--emb-dim", "4", "--steps", "1", "--batch-size", "2", "--seed", "3",
                "--metrics-out", "m.csv"]
        primary = "m.csv"
        expected = {
            "schedule": "constant", "vocab": 8, "seq_len": 4,
            "max_hidden": 128,  # the desk shape's default
            "emb_dim": 4, "layers": 1, "horizon": 0, "tail_exponent": 2.0, "steps": 1,
            "lr": 1.0, "clip": 1.0, "batch_size": 2,
            "negatives": 7,  # 0 resolves to V-1
            "metrics_out": "m.csv", "checkpoint_out": None,
        }
    assert run_cli(argv, capsys)[0] == 0
    manifest = load_json(tmp_path / f"{primary}.manifest.json")
    assert manifest["command"] == command and manifest["seed"] == 3
    assert manifest["config"] == expected


def test_every_manifest_records_its_environment(tmp_path, capsys):
    corpus, table = _make_corpus(tmp_path, capsys, count="2")
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", "512", "--out", str(report)],
        capsys,
    )
    assert code == 0
    metrics = tmp_path / "m.csv"
    code, _, _ = run_cli(
        ["train-toy", "--vocab", "8", "--seq-len", "8", "--max-hidden", "8", "--emb-dim", "4",
         "--steps", "2", "--batch-size", "2", "--metrics-out", str(metrics)],
        capsys,
    )
    assert code == 0
    for primary in (corpus, report, metrics):
        environment = load_json(f"{primary}.manifest.json")["environment"]
        elapsed = environment.pop("elapsed_s")
        assert isinstance(elapsed, float) and 0.0 <= elapsed < 60.0
        if primary == report:  # estimate also records how it cut its slabs: 2 rows make one
            assert (environment.pop("workers"), environment.pop("slab_rows")) == (1, 2)
        # read from the OpenBLAS numpy loaded, or null where it cannot be read
        threads = environment.pop("blas_threads")
        assert threads is None or (type(threads) is int and threads >= 1)
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "usable_cpus": aggregator.usable_cpus(),
        }


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_manifest_records_the_cpus_estimate_plans_its_workers_on(tmp_path, capsys, monkeypatch, cpus):
    # 64-wide rows of 1024 points are half a slab, so a batch of 8 feeds up to 4 workers
    monkeypatch.setattr(aggregator, "usable_cpus", lambda: cpus)
    rng = np.random.default_rng(4)
    table = tmp_path / "table.txt"
    rows = rng.standard_normal((8, 64)).tolist()
    table.write_text("".join(f"t{i} " + " ".join(map(repr, row)) + "\n" for i, row in enumerate(rows)))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(" ".join(f"t{i}" for i in rng.integers(0, 8, 16 * 1024)) + "\n")
    report = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table), "--pad-length", "1024",
         "--batch-size", "8", "--out", str(report)],
        capsys,
    )
    assert code == 0
    environment = load_json(f"{report}.manifest.json")["environment"]
    assert (environment["cpu_count"], environment["usable_cpus"]) == (os.cpu_count(), cpus)
    assert environment["workers"] == cpus


def _make_corpus(tmp_path, capsys, d="0.3", count="40", length="512", vocab="16", seed="5"):
    corpus = tmp_path / "corpus.txt"
    table = tmp_path / "table.txt"
    code, _, _ = run_cli(
        ["synth", "--model", "fgn", "--d", d, "--length", length,
         "--count", count, "--seed", seed, "--vocab", vocab,
         "--out", str(corpus), "--emb-out", str(table)],
        capsys,
    )
    assert code == 0
    return corpus, table


def test_synth_quantized_corpus_and_table(tmp_path, capsys):
    corpus, table_path = _make_corpus(tmp_path, capsys)
    with table_path.open() as stream:
        table = load_table(stream)
    assert table.vocab_size == 16
    assert table.dim == 1
    expected = normal_bucket_table(16)
    assert table.token_ids == expected.token_ids
    assert table.vectors.tobytes() == expected.vectors.tobytes()
    lines = corpus.read_text().strip().split("\n")
    assert len(lines) == 40
    for line in lines:
        ids = [int(tok) for tok in line.split()]
        assert len(ids) == 512
        assert all(0 <= i < 16 for i in ids)


def test_estimate_end_to_end_recovers_d(tmp_path, capsys):
    corpus, table = _make_corpus(tmp_path, capsys)
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", "512", "--cutoff", "sqrt", "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    report = load_json(report_path)
    assert report["schema_version"] == 1
    assert report["dim"] == 1
    assert report["cutoff"] == 22  # floor(sqrt(512))
    assert report["n_estimated"] == 40
    assert report["n_skipped"] == 0
    assert abs(report["d"][0] - 0.3) <= 0.1
    assert report["pvalue"][0] < 0.01
    manifest = load_json(tmp_path / "report.json.manifest.json")
    assert set(manifest["inputs"]) == {str(corpus), str(table)}
    for digest in manifest["inputs"].values():
        assert len(digest) == 64  # sha256 hex


def test_manifest_keeps_a_digest_per_input_path(tmp_path, capsys):
    corpus, table = _make_corpus(tmp_path, capsys, count="4")
    corpus_copy = tmp_path / "a" / "x.txt"
    table_copy = tmp_path / "b" / "x.txt"
    for source, copy in ((corpus, corpus_copy), (table, table_copy)):
        copy.parent.mkdir()
        copy.write_bytes(source.read_bytes())
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["estimate", "--corpus", str(corpus_copy), "--embeddings", str(table_copy),
         "--pad-length", "512", "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    manifest = load_json(tmp_path / "report.json.manifest.json")
    assert manifest["inputs"] == {
        str(corpus_copy): hashlib.sha256(corpus.read_bytes()).hexdigest(),
        str(table_copy): hashlib.sha256(table.read_bytes()).hexdigest(),
    }


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
def test_estimate_reads_a_corpus_on_a_pipe_once(tmp_path, capsys):
    # a pipe can be read once: the manifest's digest is taken as the corpus
    # is parsed, not by opening it again, which blocks with no writer left
    corpus, table = _make_corpus(tmp_path, capsys, count="4")
    written = corpus.read_bytes()
    pipe = tmp_path / "corpus.pipe"
    os.mkfifo(pipe)

    def feed():
        try:
            with open(pipe, "wb") as stream:
                stream.write(written)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    report_path = tmp_path / "report.json"
    argv = ["estimate", "--corpus", str(pipe), "--embeddings", str(table),
            "--pad-length", "512", "--out", str(report_path)]
    try:
        child = subprocess.run(
            [sys.executable, "-m", "longmem.cli", *argv],
            env=src_env(), capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        if writer.is_alive():  # the child never opened the pipe: free the writer
            os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert child.returncode == 0, child.stderr
    report = load_json(report_path)
    assert report["n_estimated"] == 4 and report["n_skipped"] == 0
    manifest = load_json(tmp_path / "report.json.manifest.json")
    assert manifest["inputs"] == {
        str(pipe): hashlib.sha256(written).hexdigest(),
        str(table): hashlib.sha256(table.read_bytes()).hexdigest(),
    }


def test_estimate_shuffle_control_destroys_memory(tmp_path, capsys):
    corpus, table = _make_corpus(tmp_path, capsys)
    report_path = tmp_path / "shuffled.json"
    code, _, _ = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", "512", "--cutoff", "sqrt", "--shuffle", "--seed", "3",
         "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    report = load_json(report_path)
    assert abs(report["d"][0]) <= 0.1


def test_estimate_rejects_non_power_of_two_pad(tmp_path, capsys):
    corpus, table = _make_corpus(tmp_path, capsys, count="2")
    code, _, err = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", "1000", "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 2
    assert "power of two" in err


@pytest.mark.parametrize("pad_length", ["0", "1"])
def test_estimate_pad_length_with_no_periodogram_bin_is_arg_error(tmp_path, capsys, pad_length):
    corpus, table = _make_corpus(tmp_path, capsys, count="2")
    code, _, err = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", pad_length, "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 2
    assert f"--pad-length: series length {pad_length} is not a power of two >= 2" in err


@pytest.mark.parametrize("chunk_len", ["0", "-3"])
def test_estimate_non_positive_chunk_len_is_arg_error(tmp_path, capsys, chunk_len):
    corpus, table = _make_corpus(tmp_path, capsys, count="2")
    report = tmp_path / "r.json"
    code, _, err = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", "64", "--chunk-len", chunk_len, "--out", str(report)],
        capsys,
    )
    assert code == 2
    assert "--chunk-len" in err
    assert not report.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--corpus", "c.txt", "--embeddings", "t.txt", "--chunk-len", "2000",
         "--pad-length", "1024", "--out", "{out}"],
        ["synth", "--model", "white", "--count", "0", "--out", "{out}"],
        ["train-toy", "--max-hidden", "8", "--schedule", "f.json", "--metrics-out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_subcommand_usage_error_prints_the_subcommand_usage(tmp_path, capsys, argv):
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"usage: longmem {argv[0]} ")


@pytest.mark.parametrize(
    "flag, value, extra",
    [
        ("--chunk-len", "2000", []),  # longer than the pad length of 1024
        ("--batch-size", "0", []),
        ("--alpha0", "2", []),
        ("--alpha0", "0", []),
        ("--cutoff", "1000", []),  # 512 bins at a pad length of 1024
        ("--cutoff", "1", []),
        ("--tau", "0", []),
        ("--tau", "-1", ["--alpha0", "0.5"]),
        ("--tau", "nan", []),
        ("--tau", "inf", []),
    ],
    ids=["chunk-len-long", "batch-size-0", "alpha0-2", "alpha0-0", "cutoff-1000", "cutoff-1",
         "tau-0", "tau-negative", "tau-nan", "tau-inf"],
)
def test_estimate_bad_arguments_are_arg_errors_before_any_input_is_read(
    tmp_path, capsys, flag, value, extra
):
    # neither input exists: an error of any input read would exit 1
    report = tmp_path / "r.json"
    code, _, err = run_cli(
        ["estimate", "--corpus", str(tmp_path / "missing.txt"),
         "--embeddings", str(tmp_path / "missing-table.txt"),
         "--pad-length", "1024", flag, value, *extra, "--out", str(report)],
        capsys,
    )
    assert code == 2, err
    assert f"{flag}: " in err
    assert not report.exists()


def test_estimate_zero_estimable_sequences_is_runtime_error(tmp_path, capsys):
    _, table = _make_corpus(tmp_path, capsys, count="2")
    broken = tmp_path / "broken.txt"
    broken.write_text(" ".join(["missing"] * 64) + "\n")
    code, _, err = run_cli(
        ["estimate", "--corpus", str(broken), "--embeddings", str(table),
         "--pad-length", "64", "--oov", "zero", "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "flag, value, name",
    [("--lr", "nan", "learning rate"), ("--clip", "nan", "clip norm")],
    ids=["lr-nan", "clip-nan"],
)
def test_non_finite_rate_is_clean_runtime_error(tmp_path, capsys, flag, value, name):
    # estimate's --tau is checked before any input is read: see
    # test_estimate_bad_arguments_are_arg_errors_before_any_input_is_read
    out = tmp_path / "out"
    argv = ["train-toy", "--schedule", "constant", "--vocab", "8", "--seq-len", "4",
            "--max-hidden", "4", "--emb-dim", "4", "--steps", "1", "--batch-size", "2",
            "--metrics-out", str(out)]
    code, _, err = run_cli([*argv, flag, value], capsys)
    assert code == 1
    assert err.startswith(f"error: {name} must be")
    assert not out.exists()


def test_estimate_progress_and_spectrum_dump(tmp_path, capsys):
    corpus, table = _make_corpus(tmp_path, capsys, count="10")
    report_path = tmp_path / "report.json"
    spectrum_path = tmp_path / "spectrum.csv"
    code, _, err = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", "512", "--batch-size", "4", "--progress",
         "--dump-spectrum", str(spectrum_path), "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    progress_lines = [l for l in err.strip().split("\n") if l.startswith("batch=")]
    assert len(progress_lines) == 3  # 4 + 4 + 2 sequences
    rows = spectrum_path.read_text().strip().split("\n")
    assert rows[0] == "k,dim0"
    assert len(rows) == 257  # header + 512/2 bins


def test_no_stray_temp_files(tmp_path, capsys):
    _make_corpus(tmp_path, capsys, count="2")
    report_path = tmp_path / "report.json"
    run_cli(
        ["estimate", "--corpus", str(tmp_path / "corpus.txt"),
         "--embeddings", str(tmp_path / "table.txt"),
         "--pad-length", "512", "--out", str(report_path)],
        capsys,
    )
    expected = {
        "corpus.txt", "corpus.txt.manifest.json",
        "table.txt", "report.json", "report.json.manifest.json",
    }
    assert set(os.listdir(tmp_path)) == expected


@pytest.mark.parametrize(
    "command, flag",
    [("estimate", "--out"), ("estimate", "--dump-spectrum"), ("synth", "--out"),
     ("synth", "--emb-out"), ("train-toy", "--metrics-out"), ("train-toy", "--checkpoint-out")],
)
def test_output_into_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    if command == "estimate":
        corpus, table = _make_corpus(tmp_path, capsys, count="2")
        argv = ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
                "--pad-length", "512", "--out", "o.json", "--dump-spectrum", "s.csv"]
    elif command == "synth":
        argv = ["synth", "--model", "white", "--length", "32", "--vocab", "4",
                "--out", "c.txt", "--emb-out", "t.txt"]
    else:
        argv = ["train-toy", "--schedule", "constant", "--vocab", "8", "--seq-len", "4",
                "--max-hidden", "4", "--emb-dim", "4", "--steps", "1", "--batch-size", "2",
                "--metrics-out", "m.csv", "--checkpoint-out", "ck.json"]
    missing = os.path.join("nodir", "x.out")
    argv[argv.index(flag) + 1] = missing
    before = set(os.listdir(tmp_path))
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err == f"error: cannot write {missing}: its directory does not exist\n"
    assert set(os.listdir(tmp_path)) == before  # nothing written, not even a temp file


_EVERY_OUTPUT = [
    ("estimate", "--out"), ("estimate", "--dump-spectrum"), ("estimate", "manifest"),
    ("synth", "--out"), ("synth", "--emb-out"), ("synth", "manifest"),
    ("train-toy", "--metrics-out"), ("train-toy", "--checkpoint-out"), ("train-toy", "manifest"),
]


@pytest.mark.parametrize("command, flag", _EVERY_OUTPUT)
def test_an_output_path_that_is_a_directory_fails_before_any_input_is_read(
    tmp_path, capsys, monkeypatch, command, flag
):
    # the inputs are missing: opening one would end the run with another error
    monkeypatch.chdir(tmp_path)
    if command == "estimate":
        argv = ["estimate", "--corpus", "missing.txt", "--embeddings", "missing-table.txt",
                "--pad-length", "512", "--out", "o.json", "--dump-spectrum", "s.csv"]
        primary = "o.json"
    elif command == "synth":
        argv = ["synth", "--model", "white", "--length", "32", "--vocab", "4",
                "--out", "c.txt", "--emb-out", "t.txt"]
        primary = "c.txt"
    else:
        argv = ["train-toy", "--schedule", "missing.json", "--vocab", "8", "--seq-len", "4",
                "--emb-dim", "4", "--steps", "1", "--batch-size", "2",
                "--metrics-out", "m.csv", "--checkpoint-out", "ck.json"]
        primary = "m.csv"
    directory = f"{primary}.manifest.json" if flag == "manifest" else argv[argv.index(flag) + 1]
    os.mkdir(directory)
    before = set(os.listdir(tmp_path))
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err == f"error: cannot write {directory}: it is a directory\n"
    assert set(os.listdir(tmp_path)) == before and os.listdir(directory) == []


_ESTIMATE_INPUTS = ["--corpus", "corpus.txt", "--embeddings", "table.txt", "--pad-length", "512"]
_TOY_SIZES = ["--vocab", "8", "--seq-len", "4", "--emb-dim", "4", "--steps", "1", "--batch-size", "2"]


@pytest.mark.parametrize(
    "argv, clash",
    [
        (["estimate", *_ESTIMATE_INPUTS, "--out", "r.json", "--dump-spectrum", "r.json"],
         "r.json: it is the same file as the output r.json"),
        (["estimate", *_ESTIMATE_INPUTS, "--out", "corpus.txt"],
         "corpus.txt: it is the same file as the input corpus.txt"),
        (["estimate", *_ESTIMATE_INPUTS, "--out", "table.txt"],
         "table.txt: it is the same file as the input table.txt"),
        (["estimate", *_ESTIMATE_INPUTS, "--out", "r.json", "--dump-spectrum", "sub/../corpus.txt"],
         "sub/../corpus.txt: it is the same file as the input corpus.txt"),
        (["estimate", *_ESTIMATE_INPUTS, "--out", "r.json", "--dump-spectrum", "./table.txt"],
         "./table.txt: it is the same file as the input table.txt"),
        (["estimate", *_ESTIMATE_INPUTS, "--out", "r.json", "--dump-spectrum", "r.json.manifest.json"],
         "r.json.manifest.json: it is the same file as the output r.json.manifest.json"),
        (["estimate", "--corpus", "c.manifest.json", "--embeddings", "table.txt", "--pad-length", "512",
          "--out", "c"], "c.manifest.json: it is the same file as the input c.manifest.json"),
        (["estimate", "--corpus", "corpus.txt", "--embeddings", "t.manifest.json", "--pad-length", "512",
          "--out", "t"], "t.manifest.json: it is the same file as the input t.manifest.json"),
        (["synth", "--model", "white", "--length", "32", "--vocab", "4", "--out", "c.txt",
          "--emb-out", "c.txt"], "c.txt: it is the same file as the output c.txt"),
        (["synth", "--model", "white", "--length", "32", "--vocab", "4", "--out", "c.txt",
          "--emb-out", "c.txt.manifest.json"], "c.txt.manifest.json: it is the same file as the output "),
        (["train-toy", "--schedule", "sched.json", *_TOY_SIZES, "--metrics-out", "m.csv",
          "--checkpoint-out", "m.csv"], "m.csv: it is the same file as the output m.csv"),
        (["train-toy", "--schedule", "sched.json", *_TOY_SIZES, "--metrics-out", "m.csv",
          "--checkpoint-out", "m.csv.manifest.json"],
         "m.csv.manifest.json: it is the same file as the output "),
        (["train-toy", "--schedule", "sched.json", *_TOY_SIZES, "--metrics-out", "sched.json"],
         "sched.json: it is the same file as the input sched.json"),
        (["train-toy", "--schedule", "sched.json", *_TOY_SIZES, "--metrics-out", "m.csv",
          "--checkpoint-out", "sched.json"], "sched.json: it is the same file as the input sched.json"),
        (["train-toy", "--schedule", "s.manifest.json", *_TOY_SIZES, "--metrics-out", "s"],
         "s.manifest.json: it is the same file as the input s.manifest.json"),
    ],
    ids=[
        "estimate-out-spectrum", "estimate-out-corpus", "estimate-out-table", "estimate-spectrum-corpus",
        "estimate-spectrum-table", "estimate-spectrum-manifest", "estimate-manifest-corpus",
        "estimate-manifest-table", "synth-out-emb", "synth-emb-manifest", "train-toy-metrics-checkpoint",
        "train-toy-checkpoint-manifest", "train-toy-metrics-schedule", "train-toy-checkpoint-schedule",
        "train-toy-manifest-schedule",
    ],
)
def test_an_output_that_is_another_output_or_an_input_fails_before_any_input_is_read(
    tmp_path, capsys, monkeypatch, argv, clash
):
    monkeypatch.chdir(tmp_path)
    _make_corpus(tmp_path, capsys, count="2")
    os.mkdir("sub")
    (tmp_path / "sched.json").write_text("[[4, 8]]")
    (tmp_path / "c.manifest.json").write_bytes((tmp_path / "corpus.txt").read_bytes())
    (tmp_path / "t.manifest.json").write_bytes((tmp_path / "table.txt").read_bytes())
    (tmp_path / "s.manifest.json").write_text("[[4, 8]]")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err.startswith(f"error: cannot write {clash}") and err.count("\n") == 1
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert after == before


@pytest.mark.parametrize(
    "argv, named",
    [
        # 8 PiB of pad length, 233 TiB of input table, 7.1 PiB of series: each is
        # beyond any address space, so it is refused before anything is allocated
        (["estimate", "--pad-length", "1125899906842624", "--chunk-len", "1024"],
         "pad length 1125899906842624 at p = 1 needs "),
        (["train-toy", "--vocab", "1000000000000", "--steps", "1", "--metrics-out", "m.csv"],
         "a 1-layer model of vocab 1000000000000, embedding dim 32, "),
        (["synth", "--model", "white", "--length", "1000000000000000", "--out", "x.csv"],
         "length 1000000000000000 at count 1 needs "),
        # past numpy's index range, which numpy refuses as a ValueError
        (["train-toy", "--vocab", "4611686018427387904", "--steps", "1", "--metrics-out", "m.csv"],
         "a 1-layer model of vocab 4611686018427387904, embedding dim 32, "),
        (["synth", "--model", "white", "--length", "4611686018427387904", "--out", "x.csv"],
         "length 4611686018427387904 at count 1 needs "),
        (["synth", "--model", "white", "--length", "2", "--count", "4611686018427387904", "--out", "x.csv"],
         "length 2 at count 4611686018427387904 needs "),
        (["train-toy", "--seq-len", "4611686018427387904", "--steps", "1", "--metrics-out", "m.csv"],
         "sequence length 4611686018427387904 needs "),
        (["train-toy", "--horizon", "4611686018427387904", "--steps", "1", "--metrics-out", "m.csv"],
         "horizon 4611686018427387904 needs "),
        # a list of 2^62 layers is past Python's index range, which it refuses as a MemoryError
        (["train-toy", "--layers", "4611686018427387904", "--steps", "1", "--metrics-out", "m.csv"],
         "a 4611686018427387904-layer model needs "),
        # a row of 2^62 ids (the chunk length defaults to the pad length), refused before the corpus is read
        (["estimate", "--pad-length", "4611686018427387904"],
         "chunk length 4611686018427387904 needs 18446744073709551616 bytes "),
        (["synth", "--model", "white", "--length", "8", "--vocab", "4611686018427387904", "--out", "s.txt"],
         "vocab size 4611686018427387904 needs 36893488147419103224 bytes "),
    ],
    ids=[
        "estimate", "train-toy", "synth", "train-toy-index", "synth-index", "synth-count-index",
        "train-toy-seq-len-index", "train-toy-horizon-index", "train-toy-layers-index",
        "estimate-chunk-index", "synth-vocab-index",
    ],
)
def test_a_flag_sized_allocation_that_is_refused_is_clean_runtime_error(
    tmp_path, capsys, monkeypatch, argv, named
):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "estimate":
        corpus, table = _make_corpus(tmp_path, capsys, count="2", length="2048")
        argv = argv + ["--corpus", str(corpus), "--embeddings", str(table), "--out", "r.json"]
    before = set(os.listdir(tmp_path))
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    # each is named by the flags that size it
    assert err.startswith("error: " + named) and err.count("\n") == 1
    assert "Traceback" not in err
    assert set(os.listdir(tmp_path)) == before


def test_an_output_whose_temp_file_cannot_be_made_is_named_in_the_error(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args, dir, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", os.path.join(dir, ".tmp-x"))

    monkeypatch.setattr("longmem.fileio.tempfile.mkstemp", refuse)
    out = tmp_path / "x.csv"
    code, _, err = run_cli(["synth", "--model", "white", "--length", "8", "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"


@pytest.mark.parametrize(
    "command", ["estimate-corpus", "estimate-embeddings", "schedule-cost", "train-toy"]
)
def test_non_utf8_input_is_clean_runtime_error(tmp_path, capsys, command):
    garbled = tmp_path / "garbled.txt"
    garbled.write_bytes(b"\xff\xfe1 2 3\n")
    metrics = tmp_path / "m.csv"
    if command.startswith("estimate"):
        corpus, table = _make_corpus(tmp_path, capsys, count="2")
        if command == "estimate-corpus":
            corpus = garbled
        else:
            table = garbled
        argv = ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
                "--pad-length", "512", "--out", str(tmp_path / "r.json")]
    elif command == "schedule-cost":
        argv = ["schedule-cost", "--file", str(garbled)]
    else:
        argv = ["train-toy", "--schedule", str(garbled), "--vocab", "8", "--seq-len", "16",
                "--steps", "1", "--metrics-out", str(metrics)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists() and not metrics.exists()


def test_train_toy_writes_metrics_and_checkpoint(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    checkpoint = tmp_path / "model.json"
    argv = [
        "train-toy", "--schedule", "constant", "--vocab", "16", "--seq-len", "16",
        "--max-hidden", "8", "--emb-dim", "4", "--steps", "5", "--batch-size", "4",
        "--negatives", "0", "--lr", "0.5", "--seed", "9",
        "--metrics-out", str(metrics), "--checkpoint-out", str(checkpoint),
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "final_loss = " in out
    assert "multiply_adds_per_forward = 3072" in out  # 3 * 16 * 8^2

    rows = list(csv.reader(metrics.read_text().splitlines()))
    assert rows[0] == ["step", "loss", "multiply_adds", "wall_ms", "grad_norm", "clipped"]
    assert len(rows) == 6
    assert all(float(r[4]) > 0 and r[5] == str(int(float(r[4]) > 1.0)) for r in rows[1:])
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]
    assert all(float(r[1]) > 0 for r in rows[1:])

    assert load_json(checkpoint)["tensors"]["input_table"]["shape"] == [16, 4]
    model = load_checkpoint(str(checkpoint))
    assert model.input_table.shape == (16, 4)


def test_train_toy_metrics_deterministic_columns(tmp_path, capsys):
    argv_base = [
        "train-toy", "--schedule", "powerlaw", "--vocab", "16", "--seq-len", "16",
        "--max-hidden", "16", "--emb-dim", "4", "--steps", "4", "--batch-size", "4",
        "--negatives", "3", "--seed", "9",
    ]
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert run_cli(argv_base + ["--metrics-out", str(m1)], capsys)[0] == 0
    assert run_cli(argv_base + ["--metrics-out", str(m2)], capsys)[0] == 0
    r1 = [row[:3] + row[4:] for row in csv.reader(m1.read_text().splitlines())]
    r2 = [row[:3] + row[4:] for row in csv.reader(m2.read_text().splitlines())]
    assert r1 == r2  # every column but wall_ms replays bit-identically


def test_train_toy_more_negatives_than_non_label_ids_is_runtime_error(tmp_path, capsys):
    # at the default V=64 there are 63 non-label ids; 100 cannot be drawn
    metrics = tmp_path / "m.csv"
    argv = ["train-toy", "--seq-len", "8", "--max-hidden", "4", "--emb-dim", "4",
            "--steps", "1", "--batch-size", "2", "--negatives", "100",
            "--metrics-out", str(metrics)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err == "error: cannot draw 100 negatives from 63 non-label ids\n"
    assert not metrics.exists()


def test_train_toy_zero_steps_still_checks_the_negatives_bound(tmp_path, capsys):
    # no step draws a negative, but the run must not record a count it could not draw
    metrics = tmp_path / "m.csv"
    argv = ["train-toy", "--seq-len", "8", "--max-hidden", "4", "--emb-dim", "4",
            "--steps", "0", "--batch-size", "2", "--negatives", "100",
            "--metrics-out", str(metrics)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err == "error: cannot draw 100 negatives from 63 non-label ids\n"
    assert list(tmp_path.iterdir()) == []  # no metrics file, no manifest


def test_train_toy_schedule_from_json_file(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text("[[12, 4], [4, 8]]")
    metrics = tmp_path / "m.csv"
    argv = [
        "train-toy", "--schedule", str(sched), "--vocab", "8", "--seq-len", "16",
        "--emb-dim", "4", "--steps", "2", "--batch-size", "2", "--negatives", "0",
        "--metrics-out", str(metrics),
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    # 3 * (12*16 + 4*64)
    assert "multiply_adds_per_forward = 1344" in out


def test_train_toy_max_hidden_below_the_kind_floor_is_runtime_error(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    argv = ["train-toy", "--schedule", "powerlaw", "--max-hidden", "0", "--vocab", "8",
            "--seq-len", "16", "--steps", "1", "--metrics-out", str(metrics)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err == "error: max_hidden must be >= 2 for a powerlaw schedule, got 0\n"
    assert not metrics.exists()


def test_train_toy_max_hidden_beside_a_schedule_file_is_arg_error(tmp_path, capsys):
    sched, metrics = tmp_path / "sched.json", tmp_path / "m.csv"
    sched.write_text("[[12, 4], [4, 8]]")
    argv = ["train-toy", "--schedule", str(sched), "--max-hidden", "3", "--vocab", "8",
            "--seq-len", "16", "--steps", "1", "--metrics-out", str(metrics)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and "--max-hidden" in err
    assert not metrics.exists()


@pytest.mark.parametrize(
    "schedule, max_hidden, used",
    [("powerlaw", None, 128), ("powerlaw", "16", 16), ("sched.json", None, 8)],
    ids=["desk-default", "desk-flag", "file"],
)
def test_train_toy_manifest_records_the_max_hidden_used(
    tmp_path, capsys, monkeypatch, schedule, max_hidden, used
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sched.json").write_text("[[12, 4], [4, 8]]")
    argv = ["train-toy", "--schedule", schedule, "--vocab", "8", "--seq-len", "16",
            "--emb-dim", "4", "--steps", "1", "--batch-size", "2", "--metrics-out", "m.csv"]
    if max_hidden is not None:
        argv += ["--max-hidden", max_hidden]
    assert run_cli(argv, capsys)[0] == 0
    assert load_json(tmp_path / "m.csv.manifest.json")["config"]["max_hidden"] == used


def test_synth_emb_out_without_vocab_is_arg_error(tmp_path, capsys):
    out, table = tmp_path / "x.csv", tmp_path / "table.txt"
    code, _, err = run_cli(
        ["synth", "--model", "white", "--length", "32", "--out", str(out), "--emb-out", str(table)],
        capsys,
    )
    assert code == 2
    assert "--emb-out" in err and "--vocab" in err
    assert not out.exists() and not table.exists()


def test_estimate_two_bin_fit_reports_null_stderr_and_pvalue(tmp_path, capsys):
    corpus, table = _make_corpus(tmp_path, capsys, count="4")
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["estimate", "--corpus", str(corpus), "--embeddings", str(table),
         "--pad-length", "512", "--cutoff", "2", "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    report = load_json(report_path)
    assert report["cutoff"] == 2
    assert report["stderr"] == [None] and report["pvalue"] == [None]
    assert all(isinstance(v, float) for key in ("d", "d_pooled", "intercept") for v in report[key])


def test_train_toy_missing_schedule_file_is_runtime_error(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    argv = ["train-toy", "--schedule", str(tmp_path / "missing.json"), "--vocab", "8",
            "--seq-len", "16", "--steps", "1", "--metrics-out", str(metrics)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and err.startswith("error: ") and "missing.json" in err
    assert not metrics.exists()


@pytest.mark.parametrize("schedule", ["powerlaw", "sched.json"])
def test_train_toy_manifest_lists_the_schedule_file_only_when_read(
    tmp_path, capsys, monkeypatch, schedule
):
    monkeypatch.chdir(tmp_path)
    for name in ("powerlaw", "sched.json"):  # a file named like a desk kind is not read
        (tmp_path / name).write_text("[[12, 4], [4, 8]]")
    argv = ["train-toy", "--schedule", schedule, "--vocab", "8", "--seq-len", "16",
            "--emb-dim", "4", "--steps", "1", "--batch-size", "2", "--metrics-out", "m.csv"]
    assert run_cli(argv, capsys)[0] == 0
    inputs = load_json(tmp_path / "m.csv.manifest.json")["inputs"]
    if schedule == "powerlaw":
        assert inputs == {}
    else:
        assert inputs == {"sched.json": hashlib.sha256(b"[[12, 4], [4, 8]]").hexdigest()}
