"""Command-line front-end.

Subcommands: `estimate` (corpus to memory-coefficient report), `synth`
(generate oracle series or token streams), `schedule-cost` (cell-schedule
cost table), `train-toy` (toy training with metrics CSV).

Every command that writes files also writes a run manifest beside its
primary output (resolved configuration, input digests, seed, version), and
all files are written atomically (temp + rename). Exit codes: 0 success,
1 runtime failure, 2 argument error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from typing import Iterable, Optional

import numpy as np

from . import __version__
from .aggregator import LearningRateSchedule, dataset_report, run_dataset
from .embeddings import OovPolicy, load_table, read_corpus_ids, shuffle_rows
from .errors import LongmemError
from .estimator import (
    EstimatorConfig,
    FullBand,
    LowFrequency,
    REPORT_SCHEMA_VERSION,
    sqrt_cutoff,
)
from .evornn import build_model, save_checkpoint, task_lag_recall, train_toy
from .evornn.train import TrainConfig
from .fileio import atomic_write_text
from .schedule import (
    CellSchedule,
    DESK_FLOORS,
    PRESETS,
    build_preset,
    cost_multiply_adds,
    desk_schedule,
    schedule_from_json,
    validate_schedule,
)
from .spectral import write_periodogram_csv
from .synth import (
    FarimaSpec,
    FgnSpec,
    generate_farima,
    generate_fgn,
    generate_white,
    normal_bucket_table,
    quantize_to_symbols,
    theoretical_d,
)

SCHEMA_VERSION = REPORT_SCHEMA_VERSION


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_path: str, command: str, config: dict, inputs: Iterable[str], seed) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "inputs": {path: _sha256(path) for path in inputs},
        "seed": seed,
        "version": __version__,
    }
    atomic_write_text(out_path + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_cutoff(raw: str, pad_length: int, parser: argparse.ArgumentParser):
    if raw == "full":
        return FullBand()
    if raw == "sqrt":
        return sqrt_cutoff(pad_length)
    try:
        m = int(raw)
    except ValueError:
        parser.error(f"--cutoff must be 'full', 'sqrt', or an integer, got {raw!r}")
    return LowFrequency(m)


def _require_power_of_two(value: int, parser: argparse.ArgumentParser, flag: str) -> int:
    if value < 2 or value & (value - 1):
        parser.error(f"{flag} must be a power of two >= 2, got {value}")
    return value


def cmd_estimate(args, parser) -> int:
    pad_length = _require_power_of_two(args.pad_length, parser, "--pad-length")
    config = EstimatorConfig(pad_length, _parse_cutoff(args.cutoff, pad_length, parser))
    chunk_len = pad_length if args.chunk_len is None else args.chunk_len
    if chunk_len < 1:
        parser.error(f"--chunk-len must be >= 1, got {chunk_len}")
    with open(args.embeddings, encoding="utf-8") as stream:
        table = load_table(stream)
    with open(args.corpus, encoding="utf-8") as stream:
        ids = read_corpus_ids(stream, table, chunk_len)
    if args.shuffle:
        ids = shuffle_rows(ids, args.seed)
    result = run_dataset(
        ids,
        table,
        config,
        OovPolicy(args.oov),
        LearningRateSchedule(alpha0=args.alpha0, tau=args.tau),
        batch_size=args.batch_size,
        progress=sys.stderr if args.progress else None,
    )
    atomic_write_text(args.out, json.dumps(dataset_report(result), indent=2) + "\n")
    if args.dump_spectrum:
        buffer = io.StringIO()
        write_periodogram_csv(result.mean_periodogram, buffer)
        atomic_write_text(args.dump_spectrum, buffer.getvalue())
    _write_manifest(
        args.out,
        "estimate",
        {
            "corpus": args.corpus,
            "embeddings": args.embeddings,
            "pad_length": pad_length,
            "chunk_len": chunk_len,
            "batch_size": args.batch_size,
            "oov": args.oov,
            "cutoff": args.cutoff,
            "alpha0": args.alpha0,
            "tau": args.tau,
            "shuffle": bool(args.shuffle),
            "out": args.out,
            "dump_spectrum": args.dump_spectrum,
        },
        [args.corpus, args.embeddings],
        args.seed,
    )
    return 0


def cmd_synth(args, parser) -> int:
    if args.count < 1:
        parser.error(f"--count must be >= 1, got {args.count}")
    if args.emb_out and args.vocab is None:
        parser.error("--emb-out writes the bucket table of a quantized corpus; it needs --vocab")
    if args.d is not None and args.hurst is not None:
        if abs(args.d - (args.hurst - 0.5)) > 1e-12:
            parser.error(f"--d {args.d} and --hurst {args.hurst} disagree (d = H - 1/2)")
    try:
        d_true = theoretical_d(args.model, hurst=args.hurst, d=args.d)
    except LongmemError as exc:
        parser.error(str(exc))
    series_list = []
    for index in range(args.count):
        seed = args.seed + index
        if args.model == "fgn":
            series = generate_fgn(FgnSpec(hurst=d_true + 0.5, length=args.length, seed=seed))
        elif args.model == "farima":
            series = generate_farima(
                FarimaSpec(
                    d=d_true,
                    length=args.length,
                    seed=seed,
                    ma_truncation=args.ma_truncation,
                )
            )
        else:
            series = generate_white(args.length, seed)
        series_list.append(series)
    if args.vocab is not None:
        table = normal_bucket_table(args.vocab)
        lines = []
        for series in series_list:
            seq = quantize_to_symbols(series, args.vocab, table)
            lines.append(" ".join(str(i) for i in seq.ids))
        atomic_write_text(args.out, "\n".join(lines) + "\n")
        if args.emb_out:
            rows = [
                f"{token} " + " ".join(repr(float(v)) for v in table.vectors[idx])
                for token, idx in sorted(table.token_ids.items(), key=lambda kv: kv[1])
            ]
            atomic_write_text(args.emb_out, "\n".join(rows) + "\n")
    else:
        header = ",".join(f"series{i}" for i in range(args.count))
        rows = [header]
        matrix = np.stack(series_list, axis=1)
        for row in matrix:
            rows.append(",".join(repr(float(v)) for v in row))
        atomic_write_text(args.out, "\n".join(rows) + "\n")
    print(f"d = {d_true:g}")
    _write_manifest(
        args.out,
        "synth",
        {
            "model": args.model,
            "d": d_true,
            "length": args.length,
            "count": args.count,
            "vocab": args.vocab,
            "ma_truncation": args.ma_truncation,
            "out": args.out,
            "emb_out": args.emb_out,
        },
        [],
        args.seed,
    )
    return 0


def _read_schedule(path: str) -> CellSchedule:
    with open(path, encoding="utf-8") as stream:
        return schedule_from_json(stream.read())


def cmd_schedule_cost(args, parser) -> int:
    schedule = build_preset(args.preset) if args.preset else _read_schedule(args.file)
    total = cost_multiply_adds(schedule)
    print("segment length hidden cost")
    for index, (length, hidden) in enumerate(schedule.segments):
        print(f"{index} {length} {hidden} {length * hidden * hidden}")
    print(f"total {total}")
    if args.seq_len is not None:
        diagnostics = validate_schedule(schedule, args.seq_len)
        print(diagnostics.message)
        if not diagnostics.ok:
            return 1
    return 0


def cmd_train_toy(args, parser) -> int:
    if args.schedule in DESK_FLOORS:
        max_hidden = 128 if args.max_hidden is None else args.max_hidden
        schedule, inputs = desk_schedule(args.schedule, args.seq_len, max_hidden), []
    elif args.max_hidden is not None:
        parser.error(
            "--max-hidden sizes a desk schedule shape; a schedule file sets its own hidden sizes"
        )
    else:
        schedule, inputs = _read_schedule(args.schedule), [args.schedule]
    negatives = args.negatives if args.negatives else args.vocab - 1
    config = TrainConfig(
        learning_rate=args.lr,
        clip_norm=args.clip,
        negatives=negatives,
        steps=args.steps,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    model = build_model(
        vocab_size=args.vocab,
        emb_dim=args.emb_dim,
        schedule=schedule,
        decoder_dim=args.emb_dim,
        horizon=args.horizon,
        num_layers=args.layers,
        seed=args.seed,
    )
    task = task_lag_recall(
        vocab_size=args.vocab,
        seq_len=args.seq_len,
        tail_exponent=args.tail_exponent,
        seed=args.seed + 1,
        horizon=args.horizon,
    )
    result = train_toy(model, task, config)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["step", "loss", "multiply_adds", "wall_ms", "grad_norm", "clipped"])
    for metrics in result.history:
        writer.writerow(
            [
                metrics.step,
                repr(float(metrics.loss)),
                metrics.multiply_adds,
                f"{metrics.wall_ms:.3f}",
                repr(metrics.grad_norm),
                int(metrics.clipped),
            ]
        )
    atomic_write_text(args.metrics_out, buffer.getvalue())
    if args.checkpoint_out:
        save_checkpoint(model, args.checkpoint_out)
    total_multiplies = sum(m.multiply_adds for m in result.history)
    print(f"final_loss = {result.final_loss:.6f}")
    print(f"multiply_adds_per_forward = {result.history[-1].multiply_adds if result.history else 0}")
    print(f"total_multiply_adds = {total_multiplies}")
    _write_manifest(
        args.metrics_out,
        "train-toy",
        {
            "schedule": args.schedule,
            "vocab": args.vocab,
            "seq_len": args.seq_len,
            "steps": args.steps,
            "lr": args.lr,
            "clip": args.clip,
            "batch_size": args.batch_size,
            "negatives": negatives,
            "emb_dim": args.emb_dim,
            "horizon": args.horizon,
            "layers": args.layers,
            "max_hidden": schedule.max_hidden,
            "tail_exponent": args.tail_exponent,
            "metrics_out": args.metrics_out,
            "checkpoint_out": args.checkpoint_out,
        },
        inputs,
        args.seed,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longmem",
        description="Memory-coefficient estimation and schedule-sized recurrent models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate memory coefficients for a token corpus")
    est.add_argument("--corpus", required=True, help="whitespace-separated token text file")
    est.add_argument("--embeddings", required=True, help="embedding table text file")
    est.add_argument("--pad-length", type=int, required=True, help="power-of-two pad length L")
    est.add_argument("--chunk-len", type=int, default=None, help="tokens per sequence (default: pad length)")
    est.add_argument("--batch-size", type=int, default=256)
    est.add_argument("--oov", choices=["skip", "zero", "mean"], default="zero")
    est.add_argument("--cutoff", default="full", help="'full', 'sqrt', or an integer bin count")
    est.add_argument("--alpha0", type=float, default=1.0)
    est.add_argument("--tau", type=float, default=10.0)
    est.add_argument("--shuffle", action="store_true", help="shuffle tokens within each sequence")
    est.add_argument("--seed", type=int, default=0, help="seed for --shuffle")
    est.add_argument("--progress", action="store_true", help="progress lines on stderr")
    est.add_argument("--dump-spectrum", default=None, help="write averaged periodogram CSV here")
    est.add_argument("--out", required=True, help="JSON report path")

    syn = sub.add_parser("synth", help="generate synthetic series with known d")
    syn.add_argument("--model", choices=["fgn", "farima", "white"], required=True)
    syn.add_argument("--d", type=float, default=None)
    syn.add_argument("--hurst", type=float, default=None)
    syn.add_argument("--length", type=int, default=2048)
    syn.add_argument("--count", type=int, default=1)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--ma-truncation", type=int, default=None)
    syn.add_argument("--vocab", type=int, default=None, help="quantize to V tokens instead of CSV")
    syn.add_argument("--emb-out", default=None, help="write the matching bucket embedding table")
    syn.add_argument("--out", required=True)

    cost = sub.add_parser("schedule-cost", help="multiply-add cost of a cell schedule")
    group = cost.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS))
    group.add_argument("--file", help="JSON array of [length, hidden] pairs")
    cost.add_argument("--seq-len", type=int, default=None, help="validate against this length")

    toy = sub.add_parser("train-toy", help="train a toy model on the lag-recall task")
    toy.add_argument("--schedule", default="powerlaw", help="constant|powerlaw|extrexp or a schedule JSON file")
    toy.add_argument("--vocab", type=int, default=64)
    toy.add_argument("--seq-len", type=int, default=64)
    toy.add_argument(
        "--max-hidden", type=int, default=None,
        help="largest hidden size of a desk shape (default: 128); not with a schedule file",
    )
    toy.add_argument("--emb-dim", type=int, default=32)
    toy.add_argument("--layers", type=int, default=1)
    toy.add_argument("--horizon", type=int, default=0)
    toy.add_argument("--tail-exponent", type=float, default=2.0)
    toy.add_argument("--steps", type=int, default=5000)
    toy.add_argument("--lr", type=float, default=1.0)
    toy.add_argument("--clip", type=float, default=1.0)
    toy.add_argument("--batch-size", type=int, default=64)
    toy.add_argument("--negatives", type=int, default=0, help="0 means full softmax (V-1)")
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--metrics-out", required=True, help="metrics CSV path")
    toy.add_argument("--checkpoint-out", default=None, help="JSON checkpoint path")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "estimate": cmd_estimate,
        "synth": cmd_synth,
        "schedule-cost": cmd_schedule_cost,
        "train-toy": cmd_train_toy,
    }
    try:
        return commands[args.command](args, parser)
    except (OSError, LongmemError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
