#!/usr/bin/env python3
"""Benchmark of the `estimate` and `train-toy` pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate-wide --seed 1 --seconds 25 --trace 0

`--trace 0` times the public entry points and prints the end-to-end
metrics; `--trace 1` replays the pipeline call by call and prints the
per-layer metrics. Every line but the last describes the run; the last is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--workload all` runs every workload, untraced and traced, one process
each. See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is repeated in this many fresh processes; setup_s is the median
#: of their times at reference host speed.
SETUP_PROBES = 5


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _check_benchmark_json(metrics) -> str | None:
    """Name the first disagreement between BENCHMARK.json and metrics.py."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    for key, declared in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in spec[key]}
        if listed != declared:
            return f"BENCHMARK.json {key} does not match perfbench/metrics.py"
    return None


def _setup(w, seed: int, workdir: str) -> None:
    """Everything between process start and the first timed operation,
    apart from writing the inputs."""
    import estimate
    import train
    from workloads import EstimateWorkload, estimate_inputs_in

    if isinstance(w, EstimateWorkload):
        estimate.prepare(w, estimate_inputs_in(workdir), workdir)
    else:
        train.prepare(w, seed)


def _setup_seconds(args, workdir: str) -> list[tuple[float, float]]:
    """Time `_setup` in fresh processes, from spawn to the end of set-up.

    Each sample is (wall seconds, seconds at reference host speed), scaled
    by a `speed_probe` run just before the spawn and one just after the exit.
    """
    from common import SPEED_PROBE_S, monotonic, speed_probe

    samples = []
    for _ in range(SETUP_PROBES):
        before = speed_probe()
        spawned = monotonic()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", workdir],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe exited {child.returncode}: {child.stderr.strip()[-500:]}")
        wall = float(child.stdout.split()[-1]) - spawned
        samples.append((wall, wall * 2.0 * SPEED_PROBE_S / (before + speed_probe())))
    return samples


def _run_all(args) -> int:
    """Run every workload untraced and traced, each in its own process, and
    end with one JSON object whose metric names are `<workload>/<metric>`."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, check=False,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                print(child.stderr, end="")
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "longmem", "__init__.py")):
        return _fail(f"no longmem sources under {SRC}; run from a checkout of the repository", 2)
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    w = WORKLOADS[args.workload]

    if args.setup_probe:
        from common import monotonic

        _setup(w, args.seed, args.setup_probe)
        print(repr(monotonic()))
        return 0

    import metrics

    mismatch = _check_benchmark_json(metrics)
    if mismatch:
        return _fail(mismatch, 2)

    import longmem

    if not os.path.abspath(longmem.__file__).startswith(SRC + os.sep):
        return _fail(f"imported longmem from {longmem.__file__}, not from {SRC}", 2)

    import estimate
    import train
    from common import MissingLayerCall, Outcome, emit, environment, median, peak_rss_mb
    from workloads import EstimateWorkload, write_estimate_inputs

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    outcome = Outcome()
    try:
        if isinstance(w, EstimateWorkload):
            inputs = write_estimate_inputs(w, args.seed, workdir)
        _setup(w, args.seed, workdir)
        if args.trace:
            try:
                if isinstance(w, EstimateWorkload):
                    values = estimate.trace(w, inputs, workdir, args.seconds, outcome)
                else:
                    values = train.trace(w, args.seed, args.seconds, outcome)
            except MissingLayerCall as missing:
                return _fail(f"traced replay: the library has no {missing}", 3)
            units = metrics.PER_LAYER
            values = {name: values.get(name, 0) for name in units}
        else:
            setup = _setup_seconds(args, workdir)
            print("setup seconds: " + " ".join(f"{wall:.4f}" for wall, _ in setup))
            print("setup_s samples: " + " ".join(f"{ref:.4f}" for _, ref in setup))
            if isinstance(w, EstimateWorkload):
                values = estimate.measure(w, inputs, workdir, args.seconds, outcome)
            else:
                values = train.measure(w, args.seed, args.seconds, outcome)
            values["setup_s"] = median([ref for _, ref in setup])
            values["peak_rss_mb"] = peak_rss_mb()
            units = metrics.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    emit(outcome, values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
