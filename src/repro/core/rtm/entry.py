"""One Reuse Trace Memory entry (Figure 1 of the paper).

An entry stores everything needed to *skip* a trace: the starting PC,
the live-in identifiers with their values (the reuse test), the
live-out identifiers with their values (the state update) and the
next PC (where fetch resumes).  Note that the instructions themselves
are **not** stored — the trace length is kept only so the simulator
can account for skipped instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import loc_is_mem


@dataclass(frozen=True, slots=True)
class RTMEntry:
    """A stored trace, identified by its input and output."""

    start_pc: int
    length: int
    inputs: tuple[tuple[int, int | float], ...]
    outputs: tuple[tuple[int, int | float], ...]
    next_pc: int

    def matches(self, current: dict[int, int | float]) -> bool:
        """The reuse test: every live-in holds its recorded value.

        ``current`` maps location ids to current architectural values;
        a live-in location missing from the map cannot be verified and
        fails the test.
        """
        sentinel = object()
        for loc, val in self.inputs:
            if current.get(loc, sentinel) != val:
                return False
        return True

    @property
    def input_count(self) -> int:
        """Number of live-in values stored."""
        return len(self.inputs)

    @property
    def output_count(self) -> int:
        """Number of live-out values stored."""
        return len(self.outputs)

    @property
    def reg_input_count(self) -> int:
        """Live-in registers."""
        return sum(1 for loc, _ in self.inputs if not loc_is_mem(loc))

    @property
    def mem_input_count(self) -> int:
        """Live-in memory words."""
        return sum(1 for loc, _ in self.inputs if loc_is_mem(loc))

    @property
    def reg_output_count(self) -> int:
        """Live-out registers."""
        return sum(1 for loc, _ in self.outputs if not loc_is_mem(loc))

    @property
    def mem_output_count(self) -> int:
        """Live-out memory words."""
        return sum(1 for loc, _ in self.outputs if loc_is_mem(loc))

    def identity(self) -> tuple:
        """Dedup key: two entries with equal identity are the same trace."""
        return (self.start_pc, self.length, self.inputs)


_new = object.__new__
_set = object.__setattr__


def new_entry(
    start_pc: int,
    length: int,
    inputs: tuple[tuple[int, int | float], ...],
    outputs: tuple[tuple[int, int | float], ...],
    next_pc: int,
) -> RTMEntry:
    """``RTMEntry(...)`` for the collector's per-trace insert path.

    Equal to the generated constructor's result, at about half its
    cost: the fields are set positionally on a bare instance, without
    keyword binding.
    """
    entry = _new(RTMEntry)
    _set(entry, "start_pc", start_pc)
    _set(entry, "length", length)
    _set(entry, "inputs", inputs)
    _set(entry, "outputs", outputs)
    _set(entry, "next_pc", next_pc)
    return entry
