"""Unidirectional morph steps and the sequences that chain them.

A morph step moves every vertex along one axis only: the other coordinate
is pinned, so the step is a linear interpolation whose fixed-axis values
agree exactly between its two endpoint drawings.  A morph sequence strings
steps together, optionally interleaved with discrete graph edits (edge or
vertex insertions and removals at frozen coordinates), and is the unit the
verifier certifies and the step-count bounds are measured on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple, Union

from .plane_graph import Drawing, PreconditionViolated


class Direction(enum.Enum):
    """Axis a step moves along. The other coordinate stays put."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"

    @property
    def moving_axis(self) -> int:
        return 0 if self is Direction.HORIZONTAL else 1

    @property
    def fixed_axis(self) -> int:
        return 1 if self is Direction.HORIZONTAL else 0


def _same_drawing(a: Drawing, b: Drawing) -> bool:
    # the (ints, den) form is canonical
    return a.graph == b.graph and a.den == b.den and a.ints == b.ints


@dataclass(frozen=True)
class MorphStep:
    """One linear move of a drawing along a single axis.

    Both endpoints draw the same plane graph and agree exactly on the
    fixed-axis coordinate of every vertex.  provenance is a free-form
    note describing which operation emitted the step.
    """

    direction: Direction
    start: Drawing
    end: Drawing
    provenance: str = ""

    def __post_init__(self):
        if self.start.graph != self.end.graph:
            raise PreconditionViolated("step endpoints draw different graphs")
        ax = self.direction.fixed_axis
        s_den, e_den = self.start.den, self.end.den
        end = self.end.ints
        for v, p in self.start.ints.items():
            if p[ax] * e_den != end[v][ax] * s_den:
                raise PreconditionViolated(
                    f"vertex {v} moves on the fixed axis of a "
                    f"{self.direction.value} step")

    def is_identity(self) -> bool:
        return (self.start.den == self.end.den
                and self.start.ints == self.end.ints)

    def merged_with(self, other: "MorphStep") -> "MorphStep":
        """Compose two consecutive moves along the same axis into one step."""
        if self.direction is not other.direction:
            raise PreconditionViolated("cannot merge steps across directions")
        if not _same_drawing(self.end, other.start):
            raise PreconditionViolated("merged steps do not chain")
        notes = [s for s in (self.provenance, other.provenance) if s]
        return MorphStep(self.direction, self.start, other.end,
                         "; ".join(dict.fromkeys(notes)))


@dataclass(frozen=True)
class GraphEdit:
    """A discrete change of the graph with every shared vertex frozen."""

    start: Drawing
    end: Drawing
    label: str = ""

    def __post_init__(self):
        s_den, e_den = self.start.den, self.end.den
        start, end = self.start.ints, self.end.ints
        for v in start.keys() & end.keys():
            (sx, sy), (ex, ey) = start[v], end[v]
            if sx * e_den != ex * s_den or sy * e_den != ey * s_den:
                raise PreconditionViolated(
                    f"vertex {v} moves during a graph edit")


Event = Union[MorphStep, GraphEdit]


@dataclass(frozen=True)
class MorphSequence:
    """Chained steps and edits: each event starts where the last one ended."""

    initial: Drawing
    events: Tuple[Event, ...] = ()

    def __post_init__(self):
        cur = self.initial
        for i, ev in enumerate(self.events):
            if not _same_drawing(ev.start, cur):
                raise PreconditionViolated(f"event {i} does not chain")
            cur = ev.end

    @property
    def final(self) -> Drawing:
        return self.events[-1].end if self.events else self.initial

    @property
    def steps(self) -> Tuple[MorphStep, ...]:
        return tuple(e for e in self.events if isinstance(e, MorphStep))

    @property
    def edits(self) -> Tuple[GraphEdit, ...]:
        return tuple(e for e in self.events if isinstance(e, GraphEdit))

    @property
    def step_count(self) -> int:
        return sum(1 for e in self.events if isinstance(e, MorphStep))


class SequenceBuilder:
    """Accumulates events, dropping identity moves and merging consecutive
    moves along the same axis into a single step."""

    def __init__(self, start: Drawing):
        self._initial = start
        self._events: List[Event] = []

    @property
    def current(self) -> Drawing:
        return self._events[-1].end if self._events else self._initial

    def move(self, direction: Direction, end: Drawing,
             provenance: str = "") -> None:
        step = MorphStep(direction, self.current, end, provenance)
        if step.is_identity():
            return
        last = self._events[-1] if self._events else None
        if isinstance(last, MorphStep) and last.direction is direction:
            merged = last.merged_with(step)
            if merged.is_identity():
                self._events.pop()
            else:
                self._events[-1] = merged
        else:
            self._events.append(step)

    def edit(self, end: Drawing, label: str = "") -> None:
        self._events.append(GraphEdit(self.current, end, label))

    def build(self) -> MorphSequence:
        return MorphSequence(self._initial, tuple(self._events))
