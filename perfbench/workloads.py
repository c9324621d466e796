"""The four workloads and the inputs each is given.

Estimate inputs (a corpus and an embedding table) are written from the
seed with `longmem.synth` before anything is timed: FGN paths with memory
coefficient D_TRUE, quantized to symbols. Training workloads need no files:
the program draws its own lag-recall batches from seeds.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

#: Memory coefficient of every generated FGN path (Hurst index D_TRUE + 1/2).
D_TRUE = 0.3

#: Corpus token that no table row matches.
OOV_TOKEN = "unk"


@dataclass(frozen=True)
class EstimateWorkload:
    name: str
    vocab: int
    dim: int
    sequences: int
    chunk_len: int
    pad_length: int
    batch_size: int
    oov: str
    oov_share: float
    cutoff: str

    def argv(self, corpus: str, table: str, out: str) -> list[str]:
        """The `longmem estimate` command line for one job."""
        return [
            "estimate",
            "--corpus", corpus,
            "--embeddings", table,
            "--pad-length", str(self.pad_length),
            "--chunk-len", str(self.chunk_len),
            "--batch-size", str(self.batch_size),
            "--oov", self.oov,
            "--cutoff", self.cutoff,
            "--alpha0", "1",
            "--tau", "1",
            "--progress",
            "--out", out,
        ]


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    segments: tuple[tuple[int, int], ...]
    vocab: int
    emb_dim: int
    layers: int
    horizon: int
    batch_size: int
    negatives: int
    learning_rate: float
    clip_norm: float
    steps: int
    tail_exponent: float = 2.0

    @property
    def seq_len(self) -> int:
        return sum(length for length, _ in self.segments)


WORKLOADS = {
    w.name: w
    for w in (
        EstimateWorkload(
            name="estimate-wide",
            vocab=5000,
            dim=50,
            sequences=1280,
            chunk_len=1024,
            pad_length=1024,
            batch_size=64,
            oov="zero",
            oov_share=0.0,
            cutoff="full",
        ),
        EstimateWorkload(
            name="estimate-long-oov",
            vocab=64,
            dim=2,
            sequences=96,
            chunk_len=6144,
            pad_length=8192,
            batch_size=16,
            oov="skip",
            oov_share=0.1,
            cutoff="sqrt",
        ),
        TrainWorkload(
            name="train-powerlaw",
            segments=((32, 8), (16, 16), (8, 32), (4, 64), (4, 128)),
            vocab=64,
            emb_dim=32,
            layers=1,
            horizon=0,
            batch_size=64,
            negatives=63,
            learning_rate=1.0,
            clip_norm=1.0,
            steps=80,
        ),
        TrainWorkload(
            name="train-constant-sampled",
            segments=((64, 128),),
            vocab=1024,
            emb_dim=32,
            layers=2,
            horizon=3,
            batch_size=32,
            negatives=16,
            learning_rate=1.0,
            clip_norm=1.0,
            steps=16,
        ),
    )
}


@dataclass(frozen=True)
class EstimateInputs:
    corpus: str
    table: str
    warmup_corpus: str


def _table_columns(mids, dim: int):
    """`dim` distinct strictly increasing functions of the bucket quantiles.

    Column j is offset + a*q + b*q^3 with a > 0 and b >= 0; every column has
    a non-zero mean, so zero-padding a series leaks a step into it.
    """
    import numpy as np

    columns = []
    for j in range(dim):
        a = 0.5 + j / dim
        b = 0.05 * (j % 5)
        offset = 1.0 + 0.5 * (j % 4)
        columns.append(offset + a * mids + b * mids**3)
    return np.stack(columns, axis=1)


def write_estimate_inputs(w: EstimateWorkload, seed: int, workdir: str) -> EstimateInputs:
    """Write the corpus, its table and a two-sequence warm-up corpus.

    Each corpus line is one sequence of exactly `chunk_len` tokens: an FGN
    path quantized to `vocab` symbols, with a share `oov_share` of OOV
    tokens inserted at random positions. Dropping them (`--oov skip`)
    leaves the FGN path intact.
    """
    import numpy as np

    from longmem.synth import FgnSpec, generate_fgn, normal_bucket_table, quantize_to_symbols

    seeds = np.random.SeedSequence([seed, zlib.crc32(w.name.encode())])
    path_seeds = seeds.generate_state(w.sequences)
    rng = np.random.default_rng(seeds.spawn(1)[0])
    n_oov = round(w.oov_share * w.chunk_len)
    lines = []
    for path_seed in path_seeds:
        path = generate_fgn(FgnSpec(hurst=D_TRUE + 0.5, length=w.chunk_len - n_oov, seed=int(path_seed)))
        tokens = np.full(w.chunk_len, OOV_TOKEN, dtype=object)
        keep = np.ones(w.chunk_len, dtype=bool)
        keep[rng.choice(w.chunk_len, size=n_oov, replace=False)] = False
        tokens[keep] = [str(i) for i in quantize_to_symbols(path, w.vocab).ids]
        lines.append(" ".join(tokens))
    mids = normal_bucket_table(w.vocab).vectors[:, 0]
    rows = [
        f"{token} " + " ".join(repr(float(v)) for v in row)
        for token, row in enumerate(_table_columns(mids, w.dim))
    ]
    inputs = estimate_inputs_in(workdir)
    for path, body in (
        (inputs.corpus, lines),
        (inputs.table, rows),
        (inputs.warmup_corpus, lines[:2]),
    ):
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(body) + "\n")
    return inputs


def estimate_inputs_in(workdir: str) -> EstimateInputs:
    """The input paths `write_estimate_inputs` uses in `workdir`."""
    return EstimateInputs(
        corpus=os.path.join(workdir, "corpus.txt"),
        table=os.path.join(workdir, "table.txt"),
        warmup_corpus=os.path.join(workdir, "warmup.txt"),
    )
