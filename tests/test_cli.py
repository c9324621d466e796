"""Command-line interface: exit codes, file formats, manifests."""

import csv
import hashlib
import os
import platform

import numpy as np
import pytest

from conftest import load_json
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
    rows = list(csv.reader(out_path.open()))
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
        if primary == report:  # estimate also records its slab workers: 2 rows make one slab
            assert environment.pop("workers") == 1
        # read from the OpenBLAS numpy loaded, or null where it cannot be read
        threads = environment.pop("blas_threads")
        assert threads is None or (type(threads) is int and threads >= 1)
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        }


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
    table = load_table(table_path.open())
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

    rows = list(csv.reader(metrics.open()))
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
    r1 = [row[:3] + row[4:] for row in csv.reader(m1.open())]
    r2 = [row[:3] + row[4:] for row in csv.reader(m2.open())]
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
