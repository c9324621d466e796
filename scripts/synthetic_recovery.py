#!/usr/bin/env python3
"""Memory-coefficient recovery sweep on synthetic long-memory processes.

For each true d, generates FGN (and optionally FARIMA) sample paths, runs the
log-periodogram estimator on the averaged periodogram, and reports the
recovery error. A shuffled control destroys the dependence structure and
should estimate d near zero.
"""

import argparse

import numpy as np

from longmem.embeddings import EmbeddedSeries
from longmem.estimator import EstimatorConfig, estimate_from_periodogram, sqrt_cutoff
from longmem.spectral import Periodogram, periodograms
from longmem.synth import (
    FarimaSpec,
    FgnSpec,
    generate_farima,
    generate_fgn,
    shuffle_series,
)


def averaged_estimate(series_list, config):
    power = periodograms(np.stack(series_list)[:, None, :]).mean(axis=0)
    return estimate_from_periodogram(Periodogram(length=config.pad_length, power=power.T), config)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=2048)
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model", choices=["fgn", "farima", "both"], default="both")
    parser.add_argument(
        "--d", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4], dest="d_values"
    )
    args = parser.parse_args()

    config = EstimatorConfig(pad_length=args.length, cutoff=sqrt_cutoff(args.length))
    print(f"T={args.length} replicates={args.replicates} cutoff={config.cutoff.m}")
    print(f"{'model':<8} {'d_true':>7} {'d_hat':>8} {'error':>8} {'d_shuffled':>11}")

    for i, d_true in enumerate(args.d_values):
        base_seed = args.seed + 10000 * (i + 1)
        if args.model in ("fgn", "both"):
            series = [
                generate_fgn(FgnSpec(hurst=d_true + 0.5, length=args.length, seed=base_seed + s))
                for s in range(args.replicates)
            ]
            est = averaged_estimate(series, config)
            shuffled = [
                shuffle_series(EmbeddedSeries(x[:, None]), seed=base_seed + s).values[:, 0]
                for s, x in enumerate(series)
            ]
            est_shuffled = averaged_estimate(shuffled, config)
            print(
                f"{'fgn':<8} {d_true:>7.2f} {est.d[0]:>8.4f} "
                f"{abs(est.d[0] - d_true):>8.4f} {est_shuffled.d[0]:>11.4f}"
            )
        if args.model in ("farima", "both"):
            series = [
                generate_farima(FarimaSpec(d=d_true, length=args.length, seed=base_seed + s))
                for s in range(args.replicates)
            ]
            est = averaged_estimate(series, config)
            print(
                f"{'farima':<8} {d_true:>7.2f} {est.d[0]:>8.4f} "
                f"{abs(est.d[0] - d_true):>8.4f} {'-':>11}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
