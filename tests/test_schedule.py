"""Cell schedules: end-keyed lookup, cost model, presets, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem.errors import CostOverflowError, DomainError, ScheduleError
from longmem.schedule import (
    PRESETS,
    CellSchedule,
    build_preset,
    constant_schedule,
    cost_multiply_adds,
    desk_schedule,
    length_mismatch,
    lookup_cell,
    schedule_from_json,
    segment_costs,
)


def test_preset_total_lengths():
    for name in ("lm-baseline", "lm-powerlaw", "lm-exp"):
        assert build_preset(name).total_length == 128, name
    for name in ("seqrec-baseline", "seqrec-powerlaw", "seqrec-exp", "seqrec-extrexp"):
        assert build_preset(name).total_length == 512, name


def test_preset_names_exposed():
    assert set(PRESETS) == {
        "lm-baseline",
        "lm-powerlaw",
        "lm-exp",
        "seqrec-baseline",
        "seqrec-powerlaw",
        "seqrec-exp",
        "seqrec-extrexp",
    }
    with pytest.raises(ScheduleError):
        build_preset("nope")


def test_cost_small_hand_computed():
    assert cost_multiply_adds(CellSchedule(((2, 3),))) == 18
    assert cost_multiply_adds(CellSchedule(((1, 2), (3, 4)))) == 4 + 48


def test_cost_constant_schedule_formula():
    assert cost_multiply_adds(constant_schedule(64, 128)) == 64 * 128 * 128


def test_cost_overflow_raises():
    with pytest.raises(CostOverflowError):
        cost_multiply_adds(CellSchedule(((1, 4_000_000_000),)))


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        CellSchedule(())
    with pytest.raises(ScheduleError):
        CellSchedule(((0, 4),))
    with pytest.raises(ScheduleError):
        CellSchedule(((4, 0),))


def test_schedule_properties():
    schedule = CellSchedule(((6, 2), (8, 4), (4, 8), (2, 16)))
    assert schedule.total_length == 20
    assert schedule.hidden_sizes == (2, 4, 8, 16)
    assert schedule.max_hidden == 16


def test_lookup_constant_schedule():
    schedule = constant_schedule(10, 7)
    for t in range(10):
        assert lookup_cell(t, 10, schedule) == (0, 7)


def test_lookup_appendix_boundaries():
    schedule = CellSchedule(((6, 2), (8, 4), (4, 8), (2, 16)))
    hidden_by_t_prime = {0: 16, 1: 16, 2: 8, 5: 8, 6: 4, 13: 4, 14: 2, 19: 2}
    for t_prime, hidden in hidden_by_t_prime.items():
        _, got = lookup_cell(19 - t_prime, 20, schedule)
        assert got == hidden, f"t'={t_prime}"


def test_lookup_excess_steps_use_first_segment():
    schedule = CellSchedule(((2, 3), (2, 5)))
    # length 10 > total 4: the 6 earliest steps fall beyond the map and
    # reuse the earliest (smallest) cell
    for t in range(6):
        assert lookup_cell(t, 10, schedule) == (0, 3)
    assert lookup_cell(6, 10, schedule) == (0, 3)
    assert lookup_cell(8, 10, schedule) == (1, 5)


def test_lookup_rejects_bad_t():
    schedule = constant_schedule(4, 2)
    with pytest.raises(DomainError):
        lookup_cell(-1, 4, schedule)
    with pytest.raises(DomainError):
        lookup_cell(4, 4, schedule)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 16)), min_size=1, max_size=5
    )
)
def test_lookup_partitions_sequence(segments):
    schedule = CellSchedule(tuple(segments))
    length = schedule.total_length
    counts = {}
    for t in range(length):
        seg, hidden = lookup_cell(t, length, schedule)
        assert schedule.segments[seg][1] == hidden
        counts[seg] = counts.get(seg, 0) + 1
    assert counts == {i: seg_len for i, (seg_len, _) in enumerate(segments)}


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 16)), min_size=1, max_size=5
    ),
    st.integers(0, 30),
    st.integers(0, 10),
)
def test_lookup_is_keyed_from_sequence_end(segments, extra1, extra2):
    schedule = CellSchedule(tuple(segments))
    base = schedule.total_length
    len1, len2 = base + extra1, base + extra2
    for t_prime in range(base):
        a = lookup_cell(len1 - 1 - t_prime, len1, schedule)
        b = lookup_cell(len2 - 1 - t_prime, len2, schedule)
        assert a == b


def test_validate_schedule_diagnostics():
    schedule = CellSchedule(((2, 3), (2, 5)))
    assert length_mismatch(schedule, 4) is None
    assert segment_costs(schedule) == (18, 50)
    assert "expected 6" in length_mismatch(schedule, 6)


def test_schedule_json_roundtrip():
    schedule = CellSchedule(((6, 2), (8, 4), (4, 8), (2, 16)))
    text = json.dumps([list(segment) for segment in schedule.segments])
    assert schedule_from_json(text) == schedule


def test_schedule_json_rejects_garbage():
    with pytest.raises(ScheduleError):
        schedule_from_json("not json")
    with pytest.raises(ScheduleError):
        schedule_from_json("[[1]]")
    with pytest.raises(ScheduleError):
        schedule_from_json("{}")
    # entries must be JSON integers: no truncated floats, booleans or strings
    for text in ("[[2.7, 4]]", "[[4, 2.0]]", "[[true, 4]]", '[["a", 4]]', "[[null, 4]]"):
        with pytest.raises(ScheduleError):
            schedule_from_json(text)


def test_desk_powerlaw_reproduces_published_shape():
    assert desk_schedule("powerlaw", 128, 2048) == build_preset("lm-powerlaw")


def test_desk_constant_matches_constant_schedule():
    assert desk_schedule("constant", 64, 128) == constant_schedule(64, 128)


def test_desk_powerlaw_structure_at_toy_scale():
    schedule = desk_schedule("powerlaw", 64, 128)
    assert schedule.total_length == 64
    assert schedule.max_hidden == 128
    hiddens = schedule.hidden_sizes
    assert all(a < b for a, b in zip(hiddens, hiddens[1:]))



@pytest.mark.parametrize("kind, floor", [("constant", 1), ("powerlaw", 2), ("extrexp", 2)])
@pytest.mark.parametrize("max_hidden", [-5, 0, 1, 2, 3, 8, 128])
def test_desk_schedule_honours_max_hidden_or_names_it(kind, floor, max_hidden):
    if max_hidden < floor:
        with pytest.raises(ScheduleError, match="max_hidden"):
            desk_schedule(kind, 64, max_hidden)
        return
    for seq_len in (1, 5, 9, 64, 200):
        schedule = desk_schedule(kind, seq_len, max_hidden)
        assert schedule.total_length == seq_len
        assert schedule.max_hidden == max_hidden
