"""Names and units of every metric the benchmark prints.

`BENCHMARK.json` at the repository root lists the same names; `run.py`
refuses to run when the two disagree, so the file and the code cannot drift.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "seq_per_s": "1/s",
    "steps_per_s": "1/s",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "quality_err": "1",
}

#: Hidden sizes of every cell shape in the two training workloads.
CELL_HIDDEN_SIZES = (8, 16, 32, 64, 128)

PER_LAYER = {
    "cli.self_ms": "ms",
    "embeddings.load_table_ms": "ms",
    "embeddings.tokenize_ms": "ms",
    "embeddings.lookup_ms": "ms",
    "embeddings.pad_ms": "ms",
    "embeddings.tokens": "count",
    "embeddings.oov_tokens": "count",
    "spectral.periodogram_ms": "ms",
    "spectral.fft_points": "count",
    "spectral.bytes_computed": "B",
    "estimator.fit_ms": "ms",
    "estimator.fits": "count",
    "estimator.fit_points": "count",
    "aggregator.ema_ms": "ms",
    "aggregator.batches": "count",
    "aggregator.skipped": "count",
    "evornn.tasks.data_ms": "ms",
    "evornn.train.prep_ms": "ms",
    "evornn.model.forward_ms": "ms",
    "evornn.train.backward_ms": "ms",
    "evornn.train.update_ms": "ms",
    "evornn.multiply_adds": "count",
    "schedule.madds_model": "count",
    "evornn.ns_per_madd": "ns",
    **{
        f"evornn.cell.h{n}.{field}": unit
        for n in CELL_HIDDEN_SIZES
        for field, unit in (
            ("fwd_us", "us"),
            ("bwd_us", "us"),
            ("fwd_madds", "count"),
            ("madd_rate", "Gmadd/s"),
        )
    },
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.stale": "count",
}
