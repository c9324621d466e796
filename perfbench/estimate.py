"""The `estimate` pipeline: timed CLI jobs and the traced replay.

A job is one in-process `longmem.cli.main(["estimate", ...])` over the whole
corpus. The untraced path touches nothing of the library but that entry
point and its argv contract; `--progress` lines, one per EMA batch, mark
step boundaries as they reach stderr to give per-step latency.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

from common import Outcome, SpeedClock, Tracer, keep_going, median, percentile, report_jobs, resolve
from workloads import D_TRUE, EstimateInputs, EstimateWorkload


class _ProgressClock:
    """Stands in for stderr during a job; marks `speed` at each `batch=` progress line."""

    def __init__(self, speed: SpeedClock | None):
        self.speed = speed
        self.other: list[str] = []

    def write(self, text: str) -> int:
        if text.startswith("batch="):
            if self.speed is not None:
                self.speed.mark()
        else:
            self.other.append(text)
        return len(text)

    def flush(self):
        pass


@dataclass
class Job:
    """One CLI job: exit code, wall time, its report and, when timed with
    a SpeedClock, its (wall, reference) seconds of the whole job and of each
    EMA batch step."""

    code: int
    wall_s: float
    report: dict | None
    stderr: str
    total: tuple[float, float] | None = None
    steps: list[tuple[float, float]] = field(default_factory=list)


def run_cli_job(w: EstimateWorkload, corpus: str, table: str, out: str, speed: bool = False) -> Job:
    """Run one job in-process. With `speed`, a probe runs at its start, at
    each progress line and at its end, and `wall_s` leaves them out."""
    from longmem.cli import main

    clock = _ProgressClock(SpeedClock() if speed else None)
    saved = sys.stderr
    sys.stderr = clock
    if speed:
        clock.speed.mark()
    start = time.perf_counter()
    try:
        code = main(w.argv(corpus, table, out))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = -1
        clock.other.append(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        sys.stderr = saved
    job = Job(code, wall, None, "".join(clock.other))
    if speed:
        clock.speed.mark()
        segments = clock.speed.segments()
        job.total = (sum(s[0] for s in segments), sum(s[1] for s in segments))
        job.wall_s = job.total[0]
        job.steps = segments[1:-1]
    if code == 0:
        with open(out, encoding="utf-8") as stream:
            job.report = json.load(stream)
    for path in (out, out + ".manifest.json"):
        if os.path.exists(path):
            os.unlink(path)
    return job


def prepare(w: EstimateWorkload, inputs: EstimateInputs, workdir: str) -> None:
    """Set-up before the first timed job: import the CLI and run it once on
    a two-sequence corpus so lazily loaded code is in place."""
    job = run_cli_job(w, inputs.warmup_corpus, inputs.table, os.path.join(workdir, "warmup.json"))
    if job.code != 0:
        raise RuntimeError(f"warm-up estimate job exited {job.code}: {job.stderr.strip()}")


def d_abs_err(report: dict) -> float:
    """Mean over dimensions of |d - D_TRUE| for the report's EMA d."""
    return sum(abs(d - D_TRUE) for d in report["d"]) / len(report["d"])


def check_job(w: EstimateWorkload, job: Job, reference: dict | None) -> tuple[int, list[str]]:
    """Failed sequences of one job and the checks it broke.

    A sequence fails when it is skipped; every sequence of the job fails when
    the job exits non-zero or its report breaks a check.
    """
    if job.code != 0:
        return w.sequences, [f"estimate job exited {job.code}: {job.stderr.strip()[-500:]}"]
    report = job.report
    problems = []
    seen = report["n_estimated"] + report["n_skipped"]
    if seen != w.sequences:
        problems.append(f"n_estimated + n_skipped = {seen}, corpus has {w.sequences} sequences")
    if len(report["d"]) != w.dim or not all(math.isfinite(d) for d in report["d"]):
        problems.append(f"report d is not {w.dim} finite values")
    if reference is not None and report["d"] != reference["d"]:
        problems.append("report d differs between jobs on the same corpus")
    if problems:
        return w.sequences, problems
    return report["n_skipped"], []


def measure(w: EstimateWorkload, inputs: EstimateInputs, workdir: str, seconds: float, outcome: Outcome) -> dict:
    """Closed loop: run CLI jobs back to back for `seconds`; end-to-end metrics.

    Every time is scaled to reference host speed by the probes at the ends
    of its segment (see `common.SpeedClock`). Rates are totals over the run,
    not medians over jobs: a median jumps between the host's speed levels.
    """
    out = os.path.join(workdir, "report.json")
    elapsed, totals, steps = [], [], []
    reference = None
    started = time.perf_counter()
    while keep_going(started, seconds, elapsed):
        job_start = time.perf_counter()
        job = run_cli_job(w, inputs.corpus, inputs.table, out, speed=True)
        elapsed.append(time.perf_counter() - job_start)
        failed, problems = check_job(w, job, reference)
        outcome.record(w.sequences, failed, problems)
        totals.append(job.total)
        steps.extend(job.steps)
        if job.report is not None:
            reference = reference or job.report
    walls = [wall for wall, _ in totals]
    report_jobs(walls, [ref for _, ref in totals], w.sequences * len(walls) / sum(walls), len(steps))
    return {
        "seq_per_s": w.sequences * len(totals) / sum(ref for _, ref in totals),
        "steps_per_s": len(steps) / sum(ref for _, ref in steps) if steps else float("nan"),
        "step_ms_p90": percentile([ref * 1000.0 for _, ref in steps], 90) if steps else float("nan"),
        "quality_err": d_abs_err(reference) if reference else float("nan"),
    }


class _Layers:
    """The library calls the replay makes, looked up once so a missing one
    fails the traced run by name before anything is timed."""

    def __init__(self):
        self.build_parser = resolve("longmem.cli", "build_parser")
        self.load_table = resolve("longmem.embeddings", "load_table")
        self.iter_corpus_tokens = resolve("longmem.embeddings", "iter_corpus_tokens")
        self.chunk_corpus = resolve("longmem.embeddings", "chunk_corpus")
        self.lookup_sequence = resolve("longmem.embeddings", "lookup_sequence")
        self.pad_to_length = resolve("longmem.embeddings", "pad_to_length")
        self.OovPolicy = resolve("longmem.embeddings", "OovPolicy")
        self.periodogram = resolve("longmem.spectral", "periodogram")
        self.Periodogram = resolve("longmem.spectral", "Periodogram")
        self.EstimatorConfig = resolve("longmem.estimator", "EstimatorConfig")
        self.FullBand = resolve("longmem.estimator", "FullBand")
        self.LowFrequency = resolve("longmem.estimator", "LowFrequency")
        self.estimate_from_periodogram = resolve("longmem.estimator", "estimate_from_periodogram")
        self.LearningRateSchedule = resolve("longmem.aggregator", "LearningRateSchedule")
        self.ema_init = resolve("longmem.aggregator", "ema_init")
        self.ema_update = resolve("longmem.aggregator", "ema_update")
        self.LongmemError = resolve("longmem.errors", "LongmemError")


def _sha256(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def replay_job(layers: _Layers, argv: list[str], tracer: Tracer) -> dict:
    """Re-run `cmd_estimate` call by call, a span around each layer's calls.

    The order follows the program: parse argv, load the table, read and
    chunk the corpus, then per batch embed, pad, transform and fit each
    sequence and fold the batch into the EMA; last, fit the averaged
    periodogram and write the report and manifest.
    """
    import numpy as np

    with tracer.span("cli"):
        args = layers.build_parser().parse_args(argv)
        pad = args.pad_length
        if args.cutoff == "full":
            cutoff = layers.FullBand()
        elif args.cutoff == "sqrt":
            cutoff = layers.LowFrequency(math.isqrt(pad))
        else:
            cutoff = layers.LowFrequency(int(args.cutoff))
        config = layers.EstimatorConfig(pad_length=pad, cutoff=cutoff)
        policy = layers.OovPolicy(args.oov)
        schedule = layers.LearningRateSchedule(alpha0=args.alpha0, tau=args.tau)
    with tracer.span("embeddings.load_table"):
        with open(args.embeddings, encoding="utf-8") as stream:
            table = layers.load_table(stream)
    with tracer.span("embeddings.tokenize"):
        with open(args.corpus, encoding="utf-8") as stream:
            chunks = layers.chunk_corpus(layers.iter_corpus_tokens(stream), args.chunk_len or pad)
    state = None
    power_sum = None
    n_estimated = n_skipped = batches = 0
    periodograms = fit_points = fits = 0
    for first in range(0, len(chunks), args.batch_size):
        estimates = []
        for seq in chunks[first : first + args.batch_size]:
            try:
                with tracer.span("embeddings.lookup"):
                    series = layers.lookup_sequence(table, seq, policy)
                with tracer.span("embeddings.pad"):
                    padded = layers.pad_to_length(series, pad)
                with tracer.span("spectral.periodogram"):
                    pg = layers.periodogram(padded)
                with tracer.span("estimator.fit"):
                    est = layers.estimate_from_periodogram(pg, config)
            except layers.LongmemError:
                n_skipped += 1
                continue
            periodograms += 1
            fits += table.dim
            fit_points += est.cutoff_used * table.dim
            estimates.append(est.d)
            with tracer.span("aggregator.ema"):
                power_sum = pg.power.copy() if power_sum is None else power_sum + pg.power
        if not estimates:
            continue
        n_estimated += len(estimates)
        batches += 1
        with tracer.span("aggregator.ema"):
            if state is None:
                state = layers.ema_init(estimates[0].size)
            state = layers.ema_update(state, np.stack(estimates), schedule)
    with tracer.span("estimator.fit"):
        mean_pg = layers.Periodogram(length=pad, power=power_sum / n_estimated)
        average = layers.estimate_from_periodogram(mean_pg, config)
    fits += table.dim
    fit_points += average.cutoff_used * table.dim
    with tracer.span("cli"):
        report = {
            "dim": int(state.d_hat.size),
            "cutoff": average.cutoff_used,
            "d": [float(v) for v in state.d_hat],
            "intercept": [float(v) for v in average.intercept],
            "stderr": [float(v) for v in average.slope_stderr],
            "pvalue": [float(v) for v in average.pvalue],
            "n_estimated": n_estimated,
            "n_skipped": n_skipped,
            "batches": state.step,
        }
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(report, indent=2) + "\n")
        manifest = {"config": vars(args), "inputs": [_sha256(args.corpus), _sha256(args.embeddings)]}
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as stream:
            stream.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.unlink(args.out)
    os.unlink(args.out + ".manifest.json")
    tokens = sum(len(seq) for seq in chunks)
    oov = sum(1 for seq in chunks for token in seq.ids if token not in table.token_ids)
    report["counts"] = {
        "embeddings.tokens": tokens,
        "embeddings.oov_tokens": oov,
        "spectral.fft_points": periodograms * pad * table.dim,
        # per column: L float64 inputs, L/2+1 complex128 bins, L/2 float64 powers
        "spectral.bytes_computed": periodograms * table.dim * (8 * pad + 16 * (pad // 2 + 1) + 8 * (pad // 2)),
        "estimator.fits": fits,
        "estimator.fit_points": fit_points,
        "aggregator.batches": batches,
        "aggregator.skipped": n_skipped,
    }
    return report


LAYER_SPANS = {
    "cli": "cli.self_ms",
    "embeddings.load_table": "embeddings.load_table_ms",
    "embeddings.tokenize": "embeddings.tokenize_ms",
    "embeddings.lookup": "embeddings.lookup_ms",
    "embeddings.pad": "embeddings.pad_ms",
    "spectral.periodogram": "spectral.periodogram_ms",
    "estimator.fit": "estimator.fit_ms",
    "aggregator.ema": "aggregator.ema_ms",
}


def trace(w: EstimateWorkload, inputs: EstimateInputs, workdir: str, seconds: float, outcome: Outcome) -> dict:
    """Alternate untraced CLI jobs with traced replays; per-layer metrics.

    Per-layer times are milliseconds per job, the median over replays.
    """
    layers = _Layers()
    out = os.path.join(workdir, "report.json")
    cli_walls, replay_walls, coverage, per_layer = [], [], [], []
    counts = None
    stale = 0
    started = time.perf_counter()
    while keep_going(started, seconds, [a + b for a, b in zip(cli_walls, replay_walls)]):
        job = run_cli_job(w, inputs.corpus, inputs.table, out)
        failed, problems = check_job(w, job, None)
        outcome.record(w.sequences, failed, problems)
        cli_walls.append(job.wall_s)
        tracer = Tracer()
        replay_start = time.perf_counter()
        with tracer.span("replay"):
            replay = replay_job(layers, w.argv(inputs.corpus, inputs.table, out), tracer)
        replay_walls.append(time.perf_counter() - replay_start)
        coverage.append(tracer.layer_seconds("replay") / replay_walls[-1])
        per_layer.append({metric: tracer.self_s.get(span, 0.0) * 1000.0 for span, metric in LAYER_SPANS.items()})
        counts = replay.pop("counts")
        cli_d = job.report["d"] if job.report else []
        if len(cli_d) != len(replay["d"]) or any(abs(a - b) > 1e-12 for a, b in zip(cli_d, replay["d"])):
            stale = 1
            outcome.record(w.sequences, w.sequences, ["traced replay's EMA d differs from the CLI report"])
        else:
            outcome.record(w.sequences, 0)
    metrics = {name: median([row[name] for row in per_layer]) for name in LAYER_SPANS.values()}
    metrics.update(counts)
    metrics["trace.coverage"] = median(coverage)
    metrics["trace.overhead"] = median(replay_walls) / median(cli_walls)
    metrics["trace.stale"] = stale
    return metrics
