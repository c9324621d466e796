#!/usr/bin/env python3
"""Train evolving-schedule and constant-schedule models on lag recall.

The task asks the model to reproduce the symbol that occurred tau steps
before the end of the sequence, with P(tau) following a power law, so most
of the predictive information sits near the end. The evolving schedule
concentrates its large cells there and should match the constant baseline's
loss at a fraction of its multiply-add budget.
"""

import argparse
import time

import numpy as np

from longmem.evornn import TrainConfig, build_model, task_lag_recall, train_toy
from longmem.schedule import cost_multiply_adds, desk_schedule


def run(kind, args):
    schedule = desk_schedule(kind, args.seq_len, args.max_hidden)
    model = build_model(
        vocab_size=args.vocab,
        emb_dim=args.emb_dim,
        schedule=schedule,
        decoder_dim=args.emb_dim,
        horizon=0,
        seed=args.seed,
    )
    config = TrainConfig(
        learning_rate=args.lr,
        clip_norm=args.clip,
        negatives=args.vocab - 1,
        steps=args.steps,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    task = task_lag_recall(
        args.vocab, args.seq_len, tail_exponent=args.tail_exponent, seed=args.seed + 1
    )
    started = time.perf_counter()
    result = train_toy(model, task, config)
    elapsed = time.perf_counter() - started
    losses = np.array([m.loss for m in result.history])
    window = min(100, len(losses))
    running = np.convolve(losses, np.ones(window) / window, mode="valid")
    return {
        "kind": kind,
        "schedule": schedule,
        "cost": cost_multiply_adds(schedule),
        "final_ma": float(running[-1]),
        "best_ma": float(running.min()),
        "seconds": elapsed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--seq-len", type=int, default=64)
    parser.add_argument("--max-hidden", type=int, default=128)
    parser.add_argument("--emb-dim", type=int, default=32)
    parser.add_argument("--steps", type=int, default=3000)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--lr", type=float, default=1.0)
    parser.add_argument("--clip", type=float, default=1.0)
    parser.add_argument("--tail-exponent", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kinds", nargs="+", default=["powerlaw", "constant"],
        choices=["constant", "powerlaw", "extrexp"],
    )
    args = parser.parse_args()

    uniform = float(np.log(args.vocab))
    print(f"uniform CE = {uniform:.3f}; target = {uniform / 2:.3f}\n")
    results = [run(kind, args) for kind in args.kinds]
    base = max(r["cost"] for r in results)
    for r in results:
        segments = " ".join(f"{l}x{n}" for l, n in r["schedule"].segments)
        print(
            f"{r['kind']:<9} cost={r['cost']:>9} ({r['cost'] / base:>6.1%}) "
            f"final_ma={r['final_ma']:.3f} best_ma={r['best_ma']:.3f} "
            f"[{r['seconds']:.0f}s] segments: {segments}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
