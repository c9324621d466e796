"""The benchmark's pipelines against the library, at a small scale.

`perfbench/train.py` checks `train_toy` jobs, replays them call by call for
per-layer times and times the GRU cell oracles; `perfbench/estimate.py`
checks CLI `estimate` jobs and replays them sequence by sequence. A library
change that breaks any of these would otherwise show only when the
benchmark runs.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import common
        import estimate
        import train
        import workloads

        yield common, train, workloads, estimate
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["train-powerlaw", "train-constant-sampled"])
def test_train_workload_checks_replay_and_cell_timings(perfbench, name):
    common, train, workloads, _ = perfbench
    w = replace(workloads.WORKLOADS[name], steps=3)
    layers = train._Layers()

    job = train.run_job(w, 1)
    assert train.check_job(w, job, None) == (0, [])
    assert train.check_job(w, train.run_job(w, 1), job.losses) == (0, [])

    model, task, config = train.new_job(w, 1)
    losses, multiply_adds = train.replay_job(layers, model, task, config, common.Tracer())
    assert losses == job.losses
    assert multiply_adds == train.expected_multiply_adds(w)

    metrics = train.time_cells(layers, w, model, 0.01)
    sizes = {hidden for _, hidden in w.segments}
    assert {f"evornn.cell.h{n}.bwd_us" for n in sizes} <= metrics.keys()
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", ["estimate-wide", "estimate-long-oov"])
def test_estimate_workload_checks_and_replay_agree(perfbench, tmp_path, name):
    common, _, workloads, estimate = perfbench
    w = workloads.WORKLOADS[name]
    w = replace(w, sequences=16 if w.chunk_len <= 1024 else 8, vocab=min(w.vocab, 256))
    inputs = workloads.write_estimate_inputs(w, 1, str(tmp_path))
    out = str(tmp_path / "report.json")

    job = estimate.run_cli_job(w, inputs.corpus, inputs.table, out)
    assert estimate.check_job(w, job, None) == (0, [])

    replay = estimate.replay_job(
        estimate._Layers(), w.argv(inputs.corpus, inputs.table, out), common.Tracer()
    )
    assert len(replay["d"]) == len(job.report["d"]) == w.dim
    # the `trace.stale` rule of a traced run
    assert max(abs(a - b) for a, b in zip(job.report["d"], replay["d"])) <= 1e-12
