"""Cell schedules: per-position hidden sizes keyed by distance to the end.

A schedule is an ordered list of (length, hidden) segments, earliest first.
Positions are resolved from the sequence END: with t' = L - 1 - t, the last
listed segment covers the smallest t' (the most recent positions get the
largest cells in the presets). Sequences longer than the covered span fall
into the earliest segment, which is open-ended.

The cost model counts hidden-to-hidden multiply-adds asymptotically:
sum over segments of length * hidden^2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import CostOverflowError, DomainError, ScheduleError

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class CellSchedule:
    """Ordered (length, hidden) segments, earliest segment first."""

    segments: tuple[tuple[int, int], ...]

    def __init__(self, segments: Sequence[Sequence[int]]):
        cleaned = []
        for seg in segments:
            length, hidden = int(seg[0]), int(seg[1])
            if length < 1 or hidden < 1:
                raise ScheduleError(
                    f"segment lengths and hidden sizes must be >= 1, got ({length}, {hidden})"
                )
            cleaned.append((length, hidden))
        if not cleaned:
            raise ScheduleError("schedule must contain at least one segment")
        object.__setattr__(self, "segments", tuple(cleaned))

    @property
    def total_length(self) -> int:
        return sum(length for length, _ in self.segments)

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(hidden for _, hidden in self.segments)

    @property
    def max_hidden(self) -> int:
        return max(self.hidden_sizes)


#: Published preset rows: (lengths, hidden sizes) listed earliest-first.
PRESETS: dict[str, CellSchedule] = {
    "lm-baseline": CellSchedule([(128, 2048)]),
    "lm-powerlaw": CellSchedule(
        [(64, 64), (32, 128), (16, 256), (8, 512), (4, 1024), (4, 2048)]
    ),
    "lm-exp": CellSchedule(
        [(108, 64), (4, 128), (4, 256), (4, 512), (4, 1024), (4, 2048)]
    ),
    "seqrec-baseline": CellSchedule([(512, 256)]),
    "seqrec-powerlaw": CellSchedule(
        [(256, 32), (128, 64), (64, 128), (32, 256), (32, 256)]
    ),
    "seqrec-exp": CellSchedule(
        [(384, 34), (32, 69), (32, 138), (32, 276), (32, 276)]
    ),
    "seqrec-extrexp": CellSchedule([(480, 2), (8, 8), (8, 64), (8, 256), (8, 1024)]),
}


def build_preset(name: str) -> CellSchedule:
    """Return a published preset schedule by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ScheduleError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def constant_schedule(length: int, hidden: int) -> CellSchedule:
    """A single-segment schedule: every position uses the same cell size."""
    return CellSchedule([(length, hidden)])


#: The smallest `max_hidden` each desk shape can honour: the shrinking shapes stop at 2.
DESK_FLOORS = {"constant": 1, "powerlaw": 2, "extrexp": 2}


def desk_schedule(kind: str, seq_len: int, max_hidden: int) -> CellSchedule:
    """Desk-scale schedule shapes mirroring the published preset families.

    `kind` is "constant", "powerlaw" or "extrexp"; the schedule covers
    `seq_len` positions with hidden sizes up to `max_hidden`, which must be
    at least the kind's `DESK_FLOORS` entry.
    """
    floor = DESK_FLOORS.get(kind)
    if floor is None:
        raise ScheduleError(f"unknown schedule kind {kind!r}")
    if max_hidden < floor:
        raise ScheduleError(f"max_hidden must be >= {floor} for a {kind} schedule, got {max_hidden}")
    if kind == "constant":
        return constant_schedule(seq_len, max_hidden)
    segments_end_first = []
    remaining = seq_len
    hidden = max_hidden
    if kind == "powerlaw":
        # from the end: two length-4 segments, then doubling lengths,
        # hidden sizes halving from max_hidden (floor 2)
        length = 4
        while hidden > 2 and length < remaining:
            segments_end_first.append((length, hidden))
            remaining -= length
            if len(segments_end_first) >= 2:
                length *= 2
            hidden = max(hidden // 2, 2)
    else:
        # from the end: length-8 segments with hidden sizes dividing by 4,
        # the earliest segment absorbing the rest at hidden size 2
        while remaining > 8 and hidden > 2:
            segments_end_first.append((8, hidden))
            remaining -= 8
            hidden = max(hidden // 4, 2)
    segments_end_first.append((remaining, hidden))
    return CellSchedule(list(reversed(segments_end_first)))


def lookup_cell(t: int, length: int, schedule: CellSchedule) -> tuple[int, int]:
    """Resolve position t in a length-L sequence to (segment index, hidden).

    Walks segments from the end of the list: the last segment covers
    t' = L - 1 - t in [0, l_last), the one before the next span, and any t'
    beyond the covered span falls into the earliest segment.
    """
    if not 0 <= t < length:
        raise DomainError(f"position {t} outside [0, {length})")
    t_prime = length - 1 - t
    span = 0
    for index in range(len(schedule.segments) - 1, 0, -1):
        span += schedule.segments[index][0]
        if t_prime < span:
            return index, schedule.segments[index][1]
    return 0, schedule.segments[0][1]


def segment_costs(schedule: CellSchedule) -> tuple[int, ...]:
    """Each segment's exact multiply-add cost, length * hidden^2."""
    return tuple(length * hidden * hidden for length, hidden in schedule.segments)


def cost_multiply_adds(schedule: CellSchedule) -> int:
    """Exact integer sum of `segment_costs`."""
    total = 0
    for (length, hidden), cost in zip(schedule.segments, segment_costs(schedule)):
        total += cost
        if total > _INT64_MAX:
            raise CostOverflowError(
                f"cost exceeds the 64-bit integer range at segment ({length}, {hidden})"
            )
    return total


def length_mismatch(schedule: CellSchedule, length: int) -> str | None:
    """Why the segment lengths do not sum to `length`, or None when they do."""
    total = schedule.total_length
    return None if total == length else f"segment lengths sum to {total}, expected {length}"


def schedule_from_json(text: str) -> CellSchedule:
    """Parse a schedule from a JSON array of [length, hidden] integer pairs."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScheduleError(f"invalid schedule JSON: {exc}") from None
    return schedule_from_pairs(data)


def schedule_from_pairs(data: object) -> CellSchedule:
    """A schedule from decoded JSON [length, hidden] pairs; non-integer entries raise."""
    if not isinstance(data, list):
        raise ScheduleError("schedule JSON must be an array of [length, hidden] pairs")
    for seg in data:
        if not (
            isinstance(seg, list)
            and len(seg) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in seg)
        ):
            raise ScheduleError(
                f"schedule entries must be [length, hidden] integer pairs, got {seg!r}"
            )
    return CellSchedule(data)

