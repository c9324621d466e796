"""The `train-toy` pipeline: timed `train_toy` jobs, the traced replay and
the GRU cell kernels.

A job trains a fresh model from the workload's seeds for a fixed number of
steps, so its loss trajectory is the same in every job of a run and the
final loss guards learning, not speed.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass

from common import Outcome, SpeedClock, Tracer, keep_going, median, percentile, report_jobs, resolve
from workloads import TrainWorkload

#: Share of a traced run spent timing the cell kernels.
KERNEL_SHARE = 0.15


class StepClock:
    """Wraps the task stream and marks `speed` at the first pull of every step.

    `train_toy` pulls `batch_size` examples at the start of each step, so the
    segment between consecutive marks is one whole step, data generation included.
    """

    def __init__(self, task, batch_size: int, speed: SpeedClock):
        self.task = task
        self.batch_size = batch_size
        self.speed = speed

    def __iter__(self):
        source = iter(self.task)
        pulls = 0
        while True:
            if pulls % self.batch_size == 0:
                self.speed.mark()
            pulls += 1
            yield next(source)


def _schedule(w: TrainWorkload):
    from longmem.schedule import CellSchedule

    return CellSchedule(w.segments)


def new_job(w: TrainWorkload, seed: int):
    """A fresh model, task stream and config, seeded as `longmem train-toy` seeds them."""
    from longmem.evornn import build_model, task_lag_recall
    from longmem.evornn.train import TrainConfig

    model = build_model(
        vocab_size=w.vocab,
        emb_dim=w.emb_dim,
        schedule=_schedule(w),
        decoder_dim=w.emb_dim,
        horizon=w.horizon,
        num_layers=w.layers,
        seed=seed,
    )
    task = task_lag_recall(
        vocab_size=w.vocab,
        seq_len=w.seq_len,
        tail_exponent=w.tail_exponent,
        seed=seed + 1,
        horizon=w.horizon,
    )
    config = TrainConfig(
        learning_rate=w.learning_rate,
        clip_norm=w.clip_norm,
        negatives=w.negatives,
        steps=w.steps,
        batch_size=w.batch_size,
        seed=seed,
    )
    return model, task, config


def prepare(w: TrainWorkload, seed: int) -> None:
    """Set-up before the first timed job: build a model and train it two steps."""
    from dataclasses import replace

    from longmem.evornn import train_toy

    model, task, config = new_job(w, seed)
    train_toy(model, task, replace(config, steps=2))


def expected_multiply_adds(w: TrainWorkload) -> int:
    """3 multiply-adds per hidden weight per step, in every layer.

    That is 3 * layers * cost_multiply_adds(schedule) when the horizon is 0;
    the `horizon` teacher-forced steps run in the last (largest) cell.
    """
    from longmem.schedule import CellSchedule, cost_multiply_adds

    *head, (length, hidden) = w.segments
    return 3 * w.layers * cost_multiply_adds(CellSchedule([*head, (length + w.horizon, hidden)]))


def train_loss(losses: list[float]) -> float:
    """Mean per-position loss over the last quarter of a job's steps."""
    tail = losses[-max(len(losses) // 4, 1) :]
    return sum(tail) / len(tail)


@dataclass
class Job:
    """One `train_toy` call: its (wall, reference) seconds as a whole and of
    each step (see `common.SpeedClock`), per-step loss and multiply-adds."""

    wall_s: float
    total: tuple[float, float]
    steps: list[tuple[float, float]]
    losses: list[float]
    multiply_adds: list[int]
    error: str | None


def run_job(w: TrainWorkload, seed: int) -> Job:
    """Train a fresh model; a probe runs before `train_toy`, at the start
    of every step and after it returns, and the times leave them out."""
    from longmem.evornn import train_toy

    model, task, config = new_job(w, seed)
    speed = SpeedClock()
    clock = StepClock(task, w.batch_size, speed)
    error = None
    history = []
    speed.mark()
    try:
        history = train_toy(model, clock, config).history
    except Exception:
        error = traceback.format_exc()
    speed.mark()
    segments = speed.segments()
    total = (sum(s[0] for s in segments), sum(s[1] for s in segments))
    steps = segments[1:][: len(history)]
    return Job(total[0], total, steps, [m.loss for m in history], [m.multiply_adds for m in history], error)


def check_job(w: TrainWorkload, job: Job, reference: list[float] | None) -> tuple[int, list[str]]:
    """Failed steps of one job and the checks it broke.

    A step fails when it was not completed (divergence or an error), its
    loss is not finite, or its instrumented multiply-adds are wrong; every
    step fails when the trajectory differs from another job's with the same seeds.
    """
    problems = []
    if job.error is not None:
        problems.append(f"train_toy raised after {len(job.losses)} steps: {job.error.strip()[-500:]}")
    expected = expected_multiply_adds(w)
    bad = w.steps - len(job.losses)
    for loss, madds in zip(job.losses, job.multiply_adds):
        if not math.isfinite(loss) or madds != expected:
            bad += 1
    if bad and not problems:
        problems.append(f"{bad} steps with a non-finite loss or multiply_adds != {expected}")
    if reference is not None and job.losses != reference:
        problems.append("loss trajectory differs between jobs with the same seeds")
        bad = w.steps
    return bad, problems


def measure(w: TrainWorkload, seed: int, seconds: float, outcome: Outcome) -> dict:
    """Closed loop: train fresh models back to back for `seconds`.

    Times are scaled and rates totalled as in `estimate.measure`.
    """
    elapsed, totals, steps = [], [], []
    reference = None
    started = time.perf_counter()
    while keep_going(started, seconds, elapsed):
        job_start = time.perf_counter()
        job = run_job(w, seed)
        elapsed.append(time.perf_counter() - job_start)
        failed, problems = check_job(w, job, reference)
        outcome.record(w.steps, failed, problems)
        totals.append(job.total)
        steps.extend(job.steps)
        if reference is None and job.error is None:
            reference = job.losses
    walls = [wall for wall, _ in totals]
    report_jobs(walls, [ref for _, ref in totals], w.steps * w.batch_size * len(walls) / sum(walls), len(steps))
    steps_per_s = w.steps * len(totals) / sum(ref for _, ref in totals)
    return {
        "seq_per_s": steps_per_s * w.batch_size,
        "steps_per_s": steps_per_s,
        "step_ms_p90": percentile([ref * 1000.0 for _, ref in steps], 90) if steps else float("nan"),
        "quality_err": train_loss(reference) if reference else float("nan"),
    }


class _Layers:
    """The library calls the replay makes, looked up before anything is timed."""

    def __init__(self):
        self.batch_arrays = resolve("longmem.evornn.train", "batch_arrays")
        self.sample_negatives = resolve("longmem.evornn.train", "sample_negatives")
        self.forward_with_caches = resolve("longmem.evornn.model", "forward_with_caches")
        self.gradients_from_forward = resolve("longmem.evornn.train", "gradients_from_forward")
        self.parameter_pairs = resolve("longmem.evornn.train", "parameter_pairs")
        self.clip_global_norm = resolve("longmem.evornn.train", "clip_global_norm")
        self.sgd_step = resolve("longmem.evornn.train", "sgd_step")
        self.gru_forward_batch = resolve("longmem.evornn.cell", "gru_forward_batch")
        self.gru_backward_batch = resolve("longmem.evornn.cell", "gru_backward_batch")
        self.zero_cell_grads = resolve("longmem.evornn.cell", "zero_cell_grads")


def replay_job(layers: _Layers, model, task, config, tracer: Tracer) -> tuple[list[float], int]:
    """Re-run `train_toy` call by call, a span around each layer's calls.

    Returns the loss trajectory and the forward pass's instrumented
    multiply-adds per sequence.
    """
    import numpy as np

    rng = np.random.default_rng(config.seed)
    stream = iter(task)
    vocab = model.output_table.shape[0]
    positions = config.batch_size * (model.horizon + 1)
    losses = []
    multiply_adds = 0
    for _ in range(config.steps):
        with tracer.span("evornn.tasks.data"):
            batch = [next(stream) for _ in range(config.batch_size)]
        with tracer.span("evornn.train.prep"):
            ids, labels = layers.batch_arrays(batch, model.horizon)
            negatives = (
                layers.sample_negatives(rng, labels, vocab, config.negatives)
                if config.negatives < vocab - 1
                else None
            )
        with tracer.span("evornn.model.forward"):
            forward = layers.forward_with_caches(model, ids)
        with tracer.span("evornn.train.backward"):
            neg_score, grads = layers.gradients_from_forward(model, forward, labels, negatives)
        loss = neg_score / positions
        if not np.isfinite(loss):
            break
        with tracer.span("evornn.train.update"):
            for _, _, grad in layers.parameter_pairs(model, grads):
                grad /= positions
            layers.clip_global_norm(grads, model, config.clip_norm)
            layers.sgd_step(model, grads, config.learning_rate)
        losses.append(loss)
        multiply_adds = forward.multiply_adds
    return losses, multiply_adds


LAYER_SPANS = {
    "evornn.tasks.data": "evornn.tasks.data_ms",
    "evornn.train.prep": "evornn.train.prep_ms",
    "evornn.model.forward": "evornn.model.forward_ms",
    "evornn.train.backward": "evornn.train.backward_ms",
    "evornn.train.update": "evornn.train.update_ms",
}


def time_cells(layers: _Layers, w: TrainWorkload, model, seconds: float) -> dict:
    """Median time of one forward and one backward step per distinct cell
    shape (m, n), at the workload's batch size, with the model's own weights.

    Shapes sharing a hidden size n are summed into the `evornn.cell.h{n}`
    metrics; a forward step costs 3*B*(m+n)*n multiply-adds.
    """
    import numpy as np

    shapes = {}
    for layer in model.layers:
        for cell in layer.cells:
            shapes.setdefault((cell.input_dim, cell.hidden_dim), cell)
    budget = seconds / len(shapes)
    rng = np.random.default_rng(0)
    metrics: dict[str, float] = {}
    for (m, n), cell in shapes.items():
        x = rng.standard_normal((w.batch_size, m))
        h = 0.5 * rng.standard_normal((w.batch_size, n))
        g = rng.standard_normal((w.batch_size, n))
        grads = layers.zero_cell_grads(cell)
        forward, backward = [], []
        deadline = time.perf_counter() + budget
        while len(forward) < 5 or (time.perf_counter() < deadline and len(forward) < 2000):
            t0 = time.perf_counter()
            _, cache = layers.gru_forward_batch(cell, x, h)
            t1 = time.perf_counter()
            layers.gru_backward_batch(cell, cache, g, grads)
            t2 = time.perf_counter()
            forward.append(t1 - t0)
            backward.append(t2 - t1)
        prefix = f"evornn.cell.h{n}"
        madds = 3 * w.batch_size * (m + n) * n
        metrics[f"{prefix}.fwd_us"] = metrics.get(f"{prefix}.fwd_us", 0.0) + median(forward) * 1e6
        metrics[f"{prefix}.bwd_us"] = metrics.get(f"{prefix}.bwd_us", 0.0) + median(backward) * 1e6
        metrics[f"{prefix}.fwd_madds"] = metrics.get(f"{prefix}.fwd_madds", 0) + madds
    for n in {n for _, n in shapes}:
        prefix = f"evornn.cell.h{n}"
        metrics[f"{prefix}.madd_rate"] = metrics[f"{prefix}.fwd_madds"] / metrics[f"{prefix}.fwd_us"] / 1e3
    return metrics


def trace(w: TrainWorkload, seed: int, seconds: float, outcome: Outcome) -> dict:
    """Alternate untraced `train_toy` jobs with traced replays, then time the
    cell kernels. Per-layer times are milliseconds per step, the median over replays."""
    from longmem.schedule import cost_multiply_adds

    layers = _Layers()
    toy_walls, replay_walls, coverage, per_layer = [], [], [], []
    stale = 0
    replay_madds = 0
    started = time.perf_counter()
    loop_seconds = seconds * (1.0 - KERNEL_SHARE)
    while keep_going(started, loop_seconds, [a + b for a, b in zip(toy_walls, replay_walls)]):
        job = run_job(w, seed)
        failed, problems = check_job(w, job, None)
        outcome.record(w.steps, failed, problems)
        toy_walls.append(job.wall_s)
        model, task, config = new_job(w, seed)
        tracer = Tracer()
        replay_start = time.perf_counter()
        with tracer.span("replay"):
            losses, replay_madds = replay_job(layers, model, task, config, tracer)
        replay_walls.append(time.perf_counter() - replay_start)
        coverage.append(tracer.layer_seconds("replay") / replay_walls[-1])
        per_layer.append({metric: tracer.self_s.get(span, 0.0) * 1000.0 / w.steps for span, metric in LAYER_SPANS.items()})
        if losses != job.losses:
            stale = 1
            outcome.record(w.steps, w.steps, ["traced replay's loss trajectory differs from train_toy"])
        else:
            outcome.record(w.steps, 0)
    metrics = {name: median([row[name] for row in per_layer]) for name in LAYER_SPANS.values()}
    metrics["evornn.multiply_adds"] = replay_madds
    metrics["schedule.madds_model"] = 3 * w.layers * cost_multiply_adds(_schedule(w))
    metrics["evornn.ns_per_madd"] = metrics["evornn.model.forward_ms"] * 1e6 / (w.batch_size * replay_madds)
    metrics["trace.coverage"] = median(coverage)
    metrics["trace.overhead"] = median(replay_walls) / median(toy_walls)
    metrics["trace.stale"] = stale
    model, _, _ = new_job(w, seed)
    metrics.update(time_cells(layers, w, model, seconds * KERNEL_SHARE))
    return metrics
