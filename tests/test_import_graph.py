"""Which scipy modules each command loads, seen from a fresh interpreter.

The test process has scipy loaded already, so every case runs in a child
process and reports the `scipy*` names left in its `sys.modules`.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import load_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import json, sys
import longmem.cli
code = longmem.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def scipy_modules_after(*argv: str) -> set[str]:
    """The scipy modules loaded by `import longmem.cli` and then, if given,
    `longmem.cli.main(argv)` in a fresh interpreter; the command must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["code"] == 0, child.stderr
    return set(result["scipy"])


def _estimate_inputs(tmp_path):
    rng = np.random.default_rng(3)
    table = tmp_path / "table.txt"
    vectors = rng.standard_normal((8, 2)).tolist()
    table.write_text("".join(f"t{i} {a!r} {b!r}\n" for i, (a, b) in enumerate(vectors)))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(" ".join(f"t{i}" for i in rng.integers(0, 8, 1024)) for _ in range(3)) + "\n")
    return str(corpus), str(table)


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after() == set()


def test_a_full_band_estimate_loads_no_scipy_and_records_none(tmp_path):
    corpus, table = _estimate_inputs(tmp_path)
    out = str(tmp_path / "report.json")
    assert scipy_modules_after(
        "estimate", "--corpus", corpus, "--embeddings", table,
        "--pad-length", "1024", "--cutoff", "full", "--out", out,
    ) == set()
    assert load_json(out)["n_estimated"] == 3
    environment = load_json(out + ".manifest.json")["environment"]
    assert environment["scipy"] is None


def test_a_t_tail_estimate_loads_scipy_special_alone(tmp_path):
    # --cutoff sqrt fits 32 bins: 30 degrees of freedom, a Student-t tail
    corpus, table = _estimate_inputs(tmp_path)
    out = str(tmp_path / "report.json")
    loaded = scipy_modules_after(
        "estimate", "--corpus", corpus, "--embeddings", table,
        "--pad-length", "1024", "--cutoff", "sqrt", "--out", out,
    )
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.signal", "scipy.stats"}
    assert load_json(out + ".manifest.json")["environment"]["scipy"] is not None


@pytest.mark.parametrize(
    "argv",
    [
        ("schedule-cost", "--preset", "lm-powerlaw"),
        ("train-toy", "--vocab", "8", "--seq-len", "8", "--max-hidden", "8", "--emb-dim", "4",
         "--steps", "2", "--batch-size", "2", "--metrics-out", "{tmp}/m.csv"),
    ],
    ids=lambda argv: argv[0],
)
def test_schedule_and_training_commands_load_no_scipy(tmp_path, argv):
    assert scipy_modules_after(*(a.format(tmp=tmp_path) for a in argv)) == set()


def test_synth_fgn_leaves_scipy_signal_out(tmp_path):
    loaded = scipy_modules_after(
        "synth", "--model", "fgn", "--d", "0.3", "--length", "64", "--vocab", "4",
        "--out", str(tmp_path / "corpus.txt"), "--emb-out", str(tmp_path / "table.txt"),
    )
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.signal", "scipy.stats"}
