"""Command-line front-end.

Subcommands: `estimate` (corpus to memory-coefficient report), `synth`
(generate oracle series or token streams), `schedule-cost` (cell-schedule
cost table), `train-toy` (toy training with metrics CSV).

Every command that writes files also writes a run manifest beside its
primary output (resolved configuration, input digests, seed, version), and
all files are written atomically (temp + rename). Each input is read once:
its digest is the sha256 of the bytes the command read, taken as it read
them, so an input on a pipe works and a file rewritten after it was read
is recorded as read. An output path whose directory does not exist, that
is a directory, or that is the same file as another output or an input,
is refused before any input is read. Exit codes: 0 success, 1 runtime
failure (a refused allocation among them), 2 argument error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import hashlib
import io
import json
import os
import sys
import time
from typing import Iterator, Optional

import numpy as np

from . import __version__, aggregator
from .aggregator import (
    REPORT_SCHEMA_VERSION,
    LearningRateSchedule,
    check_batch_size,
    dataset_report,
    run_dataset,
)
from .embeddings import (
    OovPolicy, check_chunk_len, check_fits, format_table, load_table, read_corpus_ids, shuffle_rows,
)
from .errors import LongmemError
from .estimator import EstimatorConfig, FullBand, LowFrequency, fitted_bins, sqrt_cutoff
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
    length_mismatch,
    schedule_from_json,
    segment_costs,
)
from .spectral import check_length, write_periodogram_csv
from .synth import generate_series, normal_bucket_table, quantize_to_symbols, theoretical_d


class _HashedFile(io.RawIOBase):
    """A file opened for reading whose bytes feed a sha256 as they are read.

    Every read of a `BufferedReader` over a `RawIOBase` goes through
    `readinto`; a `FileIO` subclass would not do, for `FileIO.readall`
    bypasses it.
    """

    def __init__(self, file: io.FileIO):
        self._file = file
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> Optional[int]:
        n = self._file.readinto(buffer)
        if n:
            self.sha256.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


@contextlib.contextmanager
def _read_text(path: str, digests: dict[str, str]) -> Iterator[io.TextIOWrapper]:
    """Open `path` as `open(path, encoding="utf-8")` does; once the block
    has read it to the end, record the sha256 of its bytes in `digests`.
    One pass digests a pipe, and the digest is of the bytes the command
    parsed, whatever the file holds later."""
    raw = _HashedFile(io.FileIO(path))
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as stream:
        yield stream
    digests[path] = raw.sha256.hexdigest()


#: Thread-count getters of the OpenBLAS builds numpy ships or links.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@functools.lru_cache(maxsize=1)
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS this process has loaded,
    found once through the process's memory map; None where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter
    return None


def _blas_threads() -> Optional[int]:
    """The BLAS thread count as it is now, asked of the library; None where
    it cannot be read."""
    getter = _blas_thread_getter()
    return None if getter is None else int(getter())


def _environment(started: float) -> dict:
    """What a run's timings are to be compared across: versions, CPUs (all
    of the machine's, and those this process may use, on which `estimate`
    plans its workers), BLAS threads and the seconds since `started`."""
    return {
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cpus": aggregator.usable_cpus(),
        "blas_threads": _blas_threads(),
        "elapsed_s": time.perf_counter() - started,
    }


def _write_manifest(
    out_path: str, args: argparse.Namespace, resolved: dict, inputs: dict[str, str], started: float,
    **environment,
) -> None:
    """Write the run manifest beside `out_path`: its config is every parsed
    flag but `command` and `seed`, updated by the values `resolved` from them;
    `inputs` maps each input path to its sha256; `environment` adds to the
    environment object."""
    config = {key: value for key, value in vars(args).items() if key not in ("command", "seed")}
    manifest = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": args.command,
        "config": {**config, **resolved},
        "inputs": inputs,
        "seed": args.seed,
        "version": __version__,
        "environment": {**_environment(started), **environment},
    }
    atomic_write_text(out_path + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _require_outputs(primary: str, *others: Optional[str], inputs: tuple[str, ...] = ()) -> None:
    """Refuse, before any input is read, an output path (the manifest beside
    `primary` among them) whose directory does not exist, that is a
    directory, or that is the same file as another output or one of the
    `inputs`, so a failed run leaves no partial set of files and no output
    overwrites another file of the run."""
    taken = {os.path.realpath(path): f"the input {path}" for path in inputs}
    for path in filter(None, (primary, primary + ".manifest.json", *others)):
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise LongmemError(f"cannot write {path}: its directory does not exist")
        if os.path.isdir(path):
            raise LongmemError(f"cannot write {path}: it is a directory")
        real = os.path.realpath(path)
        if real in taken:
            raise LongmemError(f"cannot write {path}: it is the same file as {taken[real]}")
        taken[real] = f"the output {path}"


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


def _checked(parser: argparse.ArgumentParser, flag: str, check, *args):
    """`check(*args)`, whose library error becomes a usage error naming `flag`."""
    try:
        return check(*args)
    except LongmemError as exc:
        parser.error(f"{flag}: {exc}")


def cmd_estimate(args, parser) -> int:
    started = time.perf_counter()
    _require_outputs(args.out, args.dump_spectrum, inputs=(args.embeddings, args.corpus))
    pad_length = args.pad_length
    _checked(parser, "--pad-length", check_length, pad_length)
    config = EstimatorConfig(pad_length, _parse_cutoff(args.cutoff, pad_length, parser))
    _checked(parser, "--cutoff", fitted_bins, pad_length // 2, config.cutoff)
    chunk_len = pad_length if args.chunk_len is None else args.chunk_len
    _checked(parser, "--chunk-len", check_chunk_len, chunk_len)
    _checked(parser, "--chunk-len", check_fits, chunk_len, pad_length)
    _checked(parser, "--batch-size", check_batch_size, args.batch_size)
    _checked(parser, "--alpha0", LearningRateSchedule, args.alpha0)  # alone, so its error names it
    schedule = _checked(parser, "--tau", LearningRateSchedule, args.alpha0, args.tau)
    digests: dict[str, str] = {}
    with _read_text(args.embeddings, digests) as stream:
        table = load_table(stream)
    with _read_text(args.corpus, digests) as stream:
        ids = read_corpus_ids(stream, table, chunk_len)
    if args.shuffle:
        ids = shuffle_rows(ids, args.seed)
    result = run_dataset(
        ids,
        table,
        config,
        OovPolicy(args.oov),
        schedule,
        batch_size=args.batch_size,
        progress=sys.stderr if args.progress else None,
    )
    atomic_write_text(args.out, json.dumps(dataset_report(result), indent=2) + "\n")
    if args.dump_spectrum:
        buffer = io.StringIO()
        write_periodogram_csv(result.mean_periodogram, buffer)
        atomic_write_text(args.dump_spectrum, buffer.getvalue())
    _write_manifest(
        args.out, args, {"chunk_len": chunk_len}, digests, started,
        workers=result.workers, slab_rows=result.slab_rows,
    )
    return 0


def cmd_synth(args, parser) -> int:
    started = time.perf_counter()
    _require_outputs(args.out, args.emb_out)
    if args.count < 1:
        parser.error(f"--count must be >= 1, got {args.count}")
    if args.emb_out and args.vocab is None:
        parser.error("--emb-out writes the bucket table of a quantized corpus; it needs --vocab")
    if args.ma_truncation is not None and args.model != "farima":
        parser.error(f"--ma-truncation truncates the farima filter; {args.model} has none")
    try:
        d_true = theoretical_d(args.model, hurst=args.hurst, d=args.d)
    except LongmemError as exc:
        parser.error(str(exc))
    matrix = generate_series(
        args.model, d_true, args.length, args.count, args.seed, args.ma_truncation
    )
    if args.vocab is not None:
        corpus = (quantize_to_symbols(series, args.vocab).ids for series in matrix.T)
        atomic_write_text(args.out, "".join(" ".join(map(str, ids)) + "\n" for ids in corpus))
        if args.emb_out:
            atomic_write_text(args.emb_out, format_table(normal_bucket_table(args.vocab)))
    else:
        header = ",".join(f"series{i}" for i in range(args.count))
        rows = [",".join(repr(float(v)) for v in row) for row in matrix]
        atomic_write_text(args.out, "\n".join([header, *rows]) + "\n")
    print(f"d = {d_true:g}")
    _write_manifest(args.out, args, {"d": d_true}, {}, started)
    return 0


def _read_schedule(path: str, digests: dict[str, str]) -> CellSchedule:
    with _read_text(path, digests) as stream:
        return schedule_from_json(stream.read())


def cmd_schedule_cost(args, parser) -> int:
    schedule = build_preset(args.preset) if args.preset else _read_schedule(args.file, {})
    total, costs = cost_multiply_adds(schedule), segment_costs(schedule)
    print("segment length hidden cost")
    for index, ((length, hidden), cost) in enumerate(zip(schedule.segments, costs)):
        print(f"{index} {length} {hidden} {cost}")
    print(f"total {total}")
    if args.seq_len is not None:
        mismatch = length_mismatch(schedule, args.seq_len)
        print(mismatch or f"ok: segment lengths sum to {args.seq_len}")
        if mismatch:
            return 1
    return 0


def cmd_train_toy(args, parser) -> int:
    started = time.perf_counter()
    schedule_file = () if args.schedule in DESK_FLOORS else (args.schedule,)
    _require_outputs(args.metrics_out, args.checkpoint_out, inputs=schedule_file)
    inputs: dict[str, str] = {}
    if args.schedule in DESK_FLOORS:
        max_hidden = 128 if args.max_hidden is None else args.max_hidden
        schedule = desk_schedule(args.schedule, args.seq_len, max_hidden)
    elif args.max_hidden is not None:
        parser.error(
            "--max-hidden sizes a desk schedule shape; a schedule file sets its own hidden sizes"
        )
    else:
        schedule = _read_schedule(args.schedule, inputs)
    negatives = args.negatives if args.negatives else args.vocab - 1
    config = TrainConfig(
        learning_rate=args.lr,
        clip_norm=args.clip,
        negatives=negatives,
        steps=args.steps,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    task = task_lag_recall(
        vocab_size=args.vocab,
        seq_len=args.seq_len,
        tail_exponent=args.tail_exponent,
        seed=args.seed + 1,
        horizon=args.horizon,
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
        args.metrics_out, args, {"negatives": negatives, "max_hidden": schedule.max_hidden},
        inputs, started,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `longmem` parser, and each subcommand's own parser by name, which
    holds its `cmd_*` as `handler`. A `cmd_*` is given its own parser, so a
    usage error prints that subcommand's usage. The handler is kept on the
    parser, not in the parsed arguments, which hold plain values alone."""
    parser = argparse.ArgumentParser(
        prog="longmem",
        description="Memory-coefficient estimation and schedule-sized recurrent models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate memory coefficients for a token corpus")
    est.handler = cmd_estimate
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
    syn.handler = cmd_synth
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
    cost.handler = cmd_schedule_cost
    group = cost.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS))
    group.add_argument("--file", help="JSON array of [length, hidden] pairs")
    cost.add_argument("--seq-len", type=int, default=None, help="validate against this length")

    toy = sub.add_parser("train-toy", help="train a toy model on the lag-recall task")
    toy.handler = cmd_train_toy
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
    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    command = commands[args.command]
    try:
        return command.handler(args, command)
    except (OSError, LongmemError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
