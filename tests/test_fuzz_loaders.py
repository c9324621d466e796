"""The three file loaders under malformed input: only a `LongmemError`
escapes, and a checkpoint cannot make the loader allocate far more than
the file holds. The table writer round-trips through its loader."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from longmem.embeddings import EmbeddingTable, format_table, load_table
from longmem.errors import LongmemError
from longmem.evornn import build_model, load_checkpoint, save_checkpoint
from longmem.schedule import CellSchedule, schedule_from_json

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
TABLE_LINES = st.lists(
    st.lists(
        st.sampled_from(["a", "b", "1.5", "-2", "0", "nan", "inf", "1e400", "0x1"])
        | st.text(max_size=3),
        max_size=4,
    ).map(" ".join),
    max_size=5,
)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    model = build_model(
        vocab_size=4, emb_dim=2, schedule=CellSchedule(((2, 2), (1, 3))),
        decoder_dim=2, horizon=1, num_layers=2, seed=0,
    )
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_checkpoint(model, str(path))
    return path, path.read_text()


def _random_node(data, payload):
    """A path into `payload` found by descending from the root, stopping at
    each level with probability 1/4, so the top-level fields are hit often."""
    at, node = (), payload
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        at, node = at + (key,), node[key]
    return at


def _mutate(data, payload):
    """One edit of a decoded checkpoint: replace or delete a random node,
    replace a top-level field, declare a huge shape, write a non-finite
    value, or resize the two tensors that set the model's dims, with their
    data."""
    tensors = payload.get("tensors") if isinstance(payload, dict) else None
    names = sorted(tensors) if isinstance(tensors, dict) else []
    kind = data.draw(st.sampled_from(["replace", "delete", "field", "shape", "value", "resize"]))
    if kind == "resize" and names:
        rows = data.draw(st.integers(1, 4096))
        for name, shape in (
            ("input_table", [rows, data.draw(st.integers(1, 4096 // rows))]),
            ("decoder_b", [data.draw(st.integers(1, 4096))]),
        ):
            tensors[name] = {"shape": shape, "data": [0.0] * math.prod(shape)}
        return payload
    if kind == "field" and isinstance(payload, dict):
        payload[data.draw(st.sampled_from(sorted(payload) or ["horizon"]))] = data.draw(JSON_VALUES)
        return payload
    if kind in ("shape", "value") and names:
        entry = tensors[data.draw(st.sampled_from(names))]
        if kind == "shape" and isinstance(entry, dict):
            entry["shape"] = data.draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=3))
        elif isinstance(entry, dict) and isinstance(entry.get("data"), list) and entry["data"]:
            index = data.draw(st.integers(0, len(entry["data"]) - 1))
            entry["data"][index] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
        return payload
    at = _random_node(data, payload)
    if not at:
        return data.draw(JSON_VALUES)
    parent = payload
    for key in at[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[at[-1]]
    else:
        parent[at[-1]] = data.draw(JSON_VALUES)
    return payload


def _returns_or_raises_longmem_error(load):
    try:
        load()
    except LongmemError:
        pass


def _checkpoint_load_stays_small(path):
    # a file of at most 4096 x 2 values may not make the loader allocate much more
    tracemalloc.start()
    try:
        _returns_or_raises_longmem_error(lambda: load_checkpoint(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**23


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_loaders_raise_only_longmem_errors(valid_checkpoint, data):
    # anything but a LongmemError escapes the helper and fails the example
    path, text = valid_checkpoint
    lines = data.draw(TABLE_LINES)
    _returns_or_raises_longmem_error(lambda: load_table(io.StringIO("\n".join(lines))))
    schedule_text = data.draw(st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=12)))
    _returns_or_raises_longmem_error(lambda: schedule_from_json(schedule_text))
    payload = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        payload = _mutate(data, payload)
        path.write_text(json.dumps(payload))
        _checkpoint_load_stays_small(path)


TOKENS = st.text(min_size=1, max_size=6).filter(lambda token: token.split() == [token])
TABLE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-309, 1.7e308, -1.7e308]
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_format_table_round_trips_through_load_table(data):
    tokens = data.draw(st.lists(TOKENS, min_size=1, max_size=6, unique=True))
    dim = data.draw(st.integers(1, 4))
    size = len(tokens) * dim
    values = data.draw(st.lists(TABLE_VALUES, min_size=size, max_size=size))
    table = EmbeddingTable(
        vectors=np.array(values).reshape(len(tokens), dim),
        token_ids={token: row for row, token in enumerate(tokens)},
    )
    loaded = load_table(format_table(table).splitlines())
    assert loaded.token_ids == table.token_ids
    assert loaded.vectors.tobytes() == table.vectors.tobytes()


def test_the_mean_of_three_largest_floats_does_not_overflow():
    # top / 3 rounds up, so the sum of three such quotients exceeds top
    top = np.finfo(np.float64).max
    table = EmbeddingTable(
        vectors=np.array([[top, 1.0], [top, 2.0], [top, 4.0]]), token_ids={"a": 0, "b": 1, "c": 2}
    )
    assert table.mean_vector.tolist() == [top, 7.0 / 3.0]
    round_trip = load_table(format_table(table).splitlines())
    assert round_trip.mean_vector.tobytes() == table.mean_vector.tobytes()
