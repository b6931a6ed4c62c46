"""Completion-time analysis of dynamic instruction streams.

The model is the paper's extension of Austin & Sohi's dynamic
dependence analysis (section 4):

- **Infinite window.**  ``completion(i) = max(ready[l] for every
  location l read by i) + latency(i)``, where ``ready[l]`` is the
  completion time of the last writer of ``l`` (registers, FP registers
  and memory words all live in one table).  ``IPC = N / max
  completion``.

- **W-entry window.**  Graduation times are tracked in program order:
  ``grad(i) = max(grad(i-1), completion(i))``.  A *fetched*
  instruction additionally waits for the graduation of the fetched
  instruction W slots above it: ``completion(i) = max(producers...,
  grad(fetched i-W)) + latency(i)``.

- **Reuse plans.**  A :class:`ReusePoint` attached to instruction ``i``
  says: this instruction may instead complete at ``max(ready[l] for l
  in inputs) + reuse_latency``; the model takes the better of the two
  (the paper's oracle).  ``fetch_free`` reuse points (trace-level
  reuse) are not fetched, so they neither consume a window slot nor
  suffer the window constraint.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.vm.trace import AnyTrace, DynInst


@dataclass(frozen=True, slots=True)
class ReusePoint:
    """Reuse opportunity for one dynamic instruction.

    Attributes
    ----------
    inputs:
        Location ids whose producers gate the reuse (for instruction-
        level reuse these are the instruction's own read locations;
        for trace-level reuse the *trace's* live-in locations).
    latency:
        The reuse latency in cycles (table lookup + comparisons).
    fetch_free:
        True when the instruction is skipped by the fetch unit
        entirely (trace-level reuse): it occupies no window slot and
        ignores the window constraint.
    """

    inputs: tuple[int, ...]
    latency: float
    fetch_free: bool = False


@dataclass(slots=True)
class TimingResult:
    """Outcome of a timing analysis over one stream."""

    instruction_count: int
    total_cycles: float
    window_size: int | None
    #: number of instructions that actually used their reuse point
    reused_count: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle (the paper's headline metric)."""
        if self.instruction_count == 0:
            return 0.0
        return self.instruction_count / self.total_cycles

    def speedup_over(self, baseline: "TimingResult") -> float:
        """Speed-up of this result relative to a baseline run."""
        if self.total_cycles <= 0:
            raise ValueError("degenerate timing result")
        return baseline.total_cycles / self.total_cycles


class DataflowModel:
    """Reusable analyzer configured with a window size.

    Parameters
    ----------
    window_size:
        ``None`` for the infinite-window scenario, otherwise the
        number of instruction-window entries W (the paper uses 256).
    """

    def __init__(self, window_size: int | None = None):
        if window_size is not None and window_size <= 0:
            raise ValueError("window_size must be positive or None")
        self.window_size = window_size

    def analyze(
        self,
        trace: AnyTrace | Sequence[DynInst],
        reuse_plan: Sequence[ReusePoint | None] | None = None,
    ) -> TimingResult:
        """Compute the stream's execution time under this model.

        ``reuse_plan``, when given, must align 1:1 with the stream;
        ``None`` entries mean "no reuse opportunity here".

        ``trace`` may also be a chunk stream
        (:mod:`repro.vm.tracestream`): the scan folds dependence state
        chunk by chunk and never materialises the stream — the
        ``ready`` table and the window ring are O(state), not O(n).
        """
        from repro.vm.tracestream import iter_insts, stream_length

        instructions = iter_insts(trace)
        known = stream_length(trace)
        if reuse_plan is not None and known is not None \
                and len(reuse_plan) != known:
            raise ValueError(
                f"reuse plan length {len(reuse_plan)} != stream length {known}"
            )

        ready: dict[int, float] = {}
        window = self.window_size
        # graduation times of the last `window` *fetched* instructions,
        # used as a ring buffer
        ring: list[float] = [0.0] * window if window else []
        fetched = 0
        grad_running = 0.0
        max_completion = 0.0
        reused_count = 0
        # A trace-level reuse point is shared by every instruction of its
        # span; its gate (max over live-in producers) must be evaluated
        # once, at trace entry, *before* intra-trace writes update the
        # ready table — that is what lets a dependent chain collapse.
        last_point: ReusePoint | None = None
        cached_reuse_start = 0.0
        plan_len = len(reuse_plan) if reuse_plan is not None else 0

        n = 0
        for i, inst in enumerate(instructions):
            n = i + 1
            if reuse_plan is None:
                point = None
            else:
                if i >= plan_len:
                    raise ValueError(
                        f"reuse plan length {plan_len} < stream length"
                    )
                point = reuse_plan[i]
            fetchable = point is None or not point.fetch_free

            # normal execution time (only meaningful if fetched)
            start = 0.0
            for loc, _value in inst.reads:
                t = ready.get(loc)
                if t is not None and t > start:
                    start = t
            if window and fetchable and fetched >= window:
                gate = ring[(fetched - window) % window]
                if gate > start:
                    start = gate
            normal = start + inst.latency

            if point is None:
                completion = normal
                last_point = None
            else:
                if point is last_point:
                    reuse_start = cached_reuse_start
                else:
                    reuse_start = 0.0
                    for loc in point.inputs:
                        t = ready.get(loc)
                        if t is not None and t > reuse_start:
                            reuse_start = t
                    last_point = point
                    cached_reuse_start = reuse_start
                reused = reuse_start + point.latency
                if point.fetch_free:
                    # the trace is reused (no fetch, no window slot); the
                    # paper's oracle still caps each instruction by its
                    # pure-dataflow normal time
                    completion = reused if reused < normal else normal
                    reused_count += 1
                elif reused < normal:
                    completion = reused
                    reused_count += 1
                else:
                    completion = normal

            for loc, _value in inst.writes:
                ready[loc] = completion

            if completion > max_completion:
                max_completion = completion
            if completion > grad_running:
                grad_running = completion
            if window and fetchable:
                ring[fetched % window] = grad_running
                fetched += 1

        if reuse_plan is not None and plan_len != n:
            raise ValueError(
                f"reuse plan length {plan_len} != stream length {n}"
            )
        return TimingResult(
            instruction_count=n,
            total_cycles=max(max_completion, 1.0) if n else 0.0,
            window_size=window,
            reused_count=reused_count,
        )


@dataclass(frozen=True, slots=True)
class Scenario:
    """One timing scenario for
    :class:`~repro.dataflow.streaming.StreamingDataflowEngine`.

    ``kind`` selects the reuse plan family:

    - ``"base"`` — no reuse (plain dataflow limit);
    - ``"ilr"`` — instruction-level reuse: every flagged instruction
      may complete at ``max(own producers) + latency``;
    - ``"tlr"`` — trace-level reuse: every span instruction may
      complete at ``max(span live-in producers) + span latency``.

    ``latency`` is the constant reuse latency for ``"ilr"``/``"tlr"``;
    ``k`` (exclusive with ``latency``) selects the proportional model
    ``K * (live-ins + live-outs)`` for ``"tlr"``.
    """

    kind: str
    window_size: int | None = None
    latency: float = 1.0
    k: float | None = None
    fetch_free: bool = True

    def __post_init__(self):
        if self.kind not in ("base", "ilr", "tlr"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.window_size is not None and self.window_size <= 0:
            raise ValueError("window_size must be positive or None")
        if self.k is not None and self.kind != "tlr":
            raise ValueError("proportional latency only applies to tlr")
