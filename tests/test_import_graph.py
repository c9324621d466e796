"""No command loads scipy, and `estimate` no pool or logging module, seen
from a fresh interpreter.

The test process has scipy loaded already (it is the tests' oracle), so
every case runs in a child process and reports the `scipy*` names and the
`concurrent`, `logging` and `multiprocessing` packages left in its
`sys.modules`.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from longmem.aggregator import usable_cpus
from conftest import load_json, src_env

_CHILD = """
import json, sys
import longmem.cli
code = longmem.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
tops = {m.split(".")[0] for m in sys.modules}
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "slow": sorted(tops & {"concurrent", "logging", "multiprocessing"}),
}))
"""


def modules_after(*argv: str) -> dict:
    """The scipy modules (`scipy`) and the pool and logging packages
    (`slow`) loaded by `import longmem.cli` and then, if given,
    `longmem.cli.main(argv)` in a fresh interpreter; the command must exit 0."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        capture_output=True, text=True, env=src_env(), timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["code"] == 0, child.stderr
    return result


def _estimate_inputs(tmp_path):
    rng = np.random.default_rng(3)
    table = tmp_path / "table.txt"
    vectors = rng.standard_normal((8, 2)).tolist()
    table.write_text("".join(f"t{i} {a!r} {b!r}\n" for i, (a, b) in enumerate(vectors)))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(" ".join(f"t{i}" for i in rng.integers(0, 8, 1024)) for _ in range(3)) + "\n")
    return str(corpus), str(table)


_ESTIMATE = ("estimate", "--corpus", "{corpus}", "--embeddings", "{table}", "--pad-length", "1024")


@pytest.mark.parametrize(
    "argv, manifest",
    [
        ((), None),
        ((*_ESTIMATE, "--cutoff", "full", "--out", "{tmp}/report.json"), "report.json"),
        # --cutoff sqrt fits 32 bins: 30 degrees of freedom
        ((*_ESTIMATE, "--cutoff", "sqrt", "--out", "{tmp}/report.json"), "report.json"),
        (("synth", "--model", "fgn", "--d", "0.3", "--length", "64", "--vocab", "4",
          "--out", "{tmp}/corpus.txt", "--emb-out", "{tmp}/table.txt"), "corpus.txt"),
        (("synth", "--model", "farima", "--d", "0.3", "--length", "64", "--out", "{tmp}/series.csv"),
         "series.csv"),
        (("schedule-cost", "--preset", "lm-powerlaw"), None),
        (("train-toy", "--vocab", "8", "--seq-len", "8", "--max-hidden", "8", "--emb-dim", "4",
          "--steps", "2", "--batch-size", "2", "--metrics-out", "{tmp}/m.csv"), "m.csv"),
    ],
    ids=["import", "estimate-full", "estimate-sqrt", "synth-fgn", "synth-farima", "schedule-cost", "train-toy"],
)
def test_no_command_loads_scipy(tmp_path, argv, manifest):
    corpus, table = _estimate_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path, corpus=corpus, table=table) for a in argv]
    assert modules_after(*argv)["scipy"] == []
    if manifest is not None:
        environment = load_json(f"{tmp_path / manifest}.manifest.json")["environment"]
        assert "scipy" not in environment


@pytest.mark.parametrize("wide", [False, True], ids=["one-worker", "slab-workers"])
def test_estimate_loads_no_pool_or_logging_module(tmp_path, wide):
    # concurrent.futures imports logging: 6-8 ms of import (-X importtime,
    # 2-core Xeon VM) against an `estimate` start of about 0.25 s. The slab
    # workers are plain threads. The wide table makes 512 KiB rows, half a
    # slab, so a batch of 8 feeds up to 4 workers: two where the host has two CPUs
    corpus, table = _estimate_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path, corpus=corpus, table=table) for a in _ESTIMATE]
    if wide:
        rng = np.random.default_rng(4)
        wide_table = tmp_path / "wide.txt"
        wide_table.write_text("".join(
            f"t{i} " + " ".join(map(repr, row)) + "\n" for i, row in enumerate(rng.standard_normal((8, 64)).tolist())
        ))
        argv[argv.index(table)] = str(wide_table)
        argv += ["--batch-size", "8"]
        (tmp_path / "corpus.txt").write_text(" ".join(f"t{i}" for i in rng.integers(0, 8, 16 * 1024)) + "\n")
    report = tmp_path / "report.json"
    assert modules_after(*argv, "--out", str(report))["slow"] == []
    workers = load_json(f"{report}.manifest.json")["environment"]["workers"]
    assert workers == (min(4, usable_cpus()) if wide else 1)
