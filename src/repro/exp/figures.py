"""Figure assembly: one function per paper figure.

Each function reduces :class:`~repro.exp.runner.BenchmarkProfile`
records into a :class:`FigureResult` mirroring the paper's reporting
conventions: per-program values plus AVG_FP, AVG_INT and AVERAGE
rows, with harmonic means for speed-ups and arithmetic means for
percentages and trace sizes (section 4.1).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.rtm.memory import RTM_PRESETS
from repro.core.rtm.collector import FixedLengthHeuristic, Heuristic, ILRHeuristic
from repro.core.rtm.simulator import FiniteReuseResult, FiniteReuseSimulator
from repro.exp.config import ExperimentConfig
from repro.exp.runner import BenchmarkProfile
from repro.util.means import arithmetic_mean, harmonic_mean
from repro.util.parallel import parallel_map
from repro.workloads.base import run_workload


@dataclass(slots=True)
class FigureResult:
    """A rendered experiment table."""

    figure_id: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)

    def row_for(self, label: str) -> list[object]:
        """Find a row by its first cell (program name or series label)."""
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(f"no row labelled {label!r} in {self.figure_id}")

    def value(self, label: str, column: str) -> object:
        """Cell lookup by row label and column header."""
        return self.row_for(label)[self.headers.index(column)]


def _with_suite_averages(
    profiles: Sequence[BenchmarkProfile],
    extract: Callable[[BenchmarkProfile], float],
    mean: Callable,
) -> list[list[object]]:
    """Per-program rows followed by AVG_FP / AVG_INT / AVERAGE."""
    rows: list[list[object]] = []
    fp_vals: list[float] = []
    int_vals: list[float] = []
    ordered = [p for p in profiles if p.suite == "FP"] + [
        p for p in profiles if p.suite == "INT"
    ]
    for profile in ordered:
        value = extract(profile)
        rows.append([profile.name, value])
        (fp_vals if profile.suite == "FP" else int_vals).append(value)
    if fp_vals:
        rows.append(["AVG_FP", mean(fp_vals)])
    if int_vals:
        rows.append(["AVG_INT", mean(int_vals)])
    rows.append(["AVERAGE", mean(fp_vals + int_vals)])
    return rows


def figure3(profiles: Sequence[BenchmarkProfile]) -> FigureResult:
    """Instruction-level reusability for a perfect engine (Figure 3)."""
    return FigureResult(
        figure_id="fig3",
        title="Figure 3: instruction-level reusability (%), perfect engine",
        headers=["program", "reusable_pct"],
        rows=_with_suite_averages(
            profiles, lambda p: p.percent_reusable, arithmetic_mean
        ),
    )


def _speedup_figure(
    profiles: Sequence[BenchmarkProfile],
    figure_id: str,
    title: str,
    per_program: Callable[[BenchmarkProfile], float],
    by_latency: Callable[[BenchmarkProfile, int], float],
    latencies: Sequence[int],
) -> FigureResult:
    """Shared shape of figures 4/5/6: per-program at 1 cycle plus the
    latency sweep averages."""
    result = FigureResult(
        figure_id=figure_id,
        title=title,
        headers=["program", "speedup"],
        rows=_with_suite_averages(profiles, per_program, harmonic_mean),
    )
    for latency in latencies:
        vals = [by_latency(p, latency) for p in profiles]
        result.rows.append([f"AVG@latency={latency}", harmonic_mean(vals)])
    return result


def figure4(
    profiles: Sequence[BenchmarkProfile],
    config: ExperimentConfig | None = None,
) -> FigureResult:
    """ILR speed-up, infinite window (Figure 4a at 1 cycle, 4b sweep)."""
    if config is None:
        config = ExperimentConfig()
    return _speedup_figure(
        profiles,
        "fig4",
        "Figure 4: instruction-level reuse speed-up, infinite window",
        lambda p: p.ilr_speedup_inf[1],
        lambda p, lat: p.ilr_speedup_inf[lat],
        config.reuse_latencies,
    )


def figure5(
    profiles: Sequence[BenchmarkProfile],
    config: ExperimentConfig | None = None,
) -> FigureResult:
    """ILR speed-up, 256-entry window (Figure 5a at 1 cycle, 5b sweep)."""
    if config is None:
        config = ExperimentConfig()
    return _speedup_figure(
        profiles,
        "fig5",
        "Figure 5: instruction-level reuse speed-up, 256-entry window",
        lambda p: p.ilr_speedup_win[1],
        lambda p, lat: p.ilr_speedup_win[lat],
        config.reuse_latencies,
    )


def figure6(profiles: Sequence[BenchmarkProfile]) -> FigureResult:
    """TLR speed-up at 1-cycle reuse latency (Figure 6a/6b)."""
    result = FigureResult(
        figure_id="fig6",
        title="Figure 6: trace-level reuse speed-up, 1-cycle reuse latency",
        headers=["program", "speedup_inf", "speedup_w256"],
    )
    fp_inf, fp_win, int_inf, int_win = [], [], [], []
    ordered = [p for p in profiles if p.suite == "FP"] + [
        p for p in profiles if p.suite == "INT"
    ]
    for p in ordered:
        result.rows.append([p.name, p.tlr_speedup_inf[1], p.tlr_speedup_win[1]])
        if p.suite == "FP":
            fp_inf.append(p.tlr_speedup_inf[1])
            fp_win.append(p.tlr_speedup_win[1])
        else:
            int_inf.append(p.tlr_speedup_inf[1])
            int_win.append(p.tlr_speedup_win[1])
    if fp_inf:
        result.rows.append(["AVG_FP", harmonic_mean(fp_inf), harmonic_mean(fp_win)])
    if int_inf:
        result.rows.append(["AVG_INT", harmonic_mean(int_inf), harmonic_mean(int_win)])
    result.rows.append(
        ["AVERAGE", harmonic_mean(fp_inf + int_inf), harmonic_mean(fp_win + int_win)]
    )
    return result


def figure7(profiles: Sequence[BenchmarkProfile]) -> FigureResult:
    """Average maximal reusable trace size (Figure 7)."""
    return FigureResult(
        figure_id="fig7",
        title="Figure 7: average trace size (instructions)",
        headers=["program", "avg_trace_size"],
        rows=_with_suite_averages(profiles, lambda p: p.avg_trace_size, arithmetic_mean),
    )


def figure8(
    profiles: Sequence[BenchmarkProfile],
    config: ExperimentConfig | None = None,
) -> FigureResult:
    """TLR speed-up vs reuse latency, 256-entry window (Figure 8a/8b)."""
    if config is None:
        config = ExperimentConfig()
    result = FigureResult(
        figure_id="fig8",
        title="Figure 8: trace-level reuse speed-up vs reuse latency, "
        "256-entry window",
        headers=["series", "speedup"],
    )
    for latency in config.reuse_latencies:
        vals = [p.tlr_speedup_win[latency] for p in profiles]
        result.rows.append([f"constant@{latency}cyc", harmonic_mean(vals)])
    for k in config.proportional_ks:
        vals = [p.tlr_speedup_win_prop[k] for p in profiles]
        result.rows.append([f"proportional@K=1/{round(1 / k)}", harmonic_mean(vals)])
    return result


def trace_io_summary(profiles: Sequence[BenchmarkProfile]) -> FigureResult:
    """Section 4.5 trace I/O statistics (paper: 6.5 in / 5.0 out /
    15.0 instructions per trace; 0.43 reads and 0.33 writes per
    reused instruction)."""
    result = FigureResult(
        figure_id="sec4.5",
        title="Section 4.5: per-trace input/output statistics",
        headers=[
            "program",
            "avg_inputs",
            "reg_in",
            "mem_in",
            "avg_outputs",
            "reg_out",
            "mem_out",
            "trace_size",
            "reads_per_instr",
            "writes_per_instr",
        ],
    )
    agg: dict[str, list[float]] = {h: [] for h in result.headers[1:]}
    for p in profiles:
        stats = p.io_stats
        row = [
            p.name,
            stats.avg_inputs,
            stats.avg_reg_inputs,
            stats.avg_mem_inputs,
            stats.avg_outputs,
            stats.avg_reg_outputs,
            stats.avg_mem_outputs,
            stats.avg_trace_size,
            stats.reads_per_instruction,
            stats.writes_per_instruction,
        ]
        result.rows.append(row)
        for header, value in zip(result.headers[1:], row[1:]):
            agg[header].append(value)
    result.rows.append(
        ["AVERAGE"] + [arithmetic_mean(agg[h]) for h in result.headers[1:]]
    )
    return result


# ---------------------------------------------------------------------------
# Figure 9: the finite-table study
# ---------------------------------------------------------------------------

#: The paper's heuristic line-up for figure 9.
FIG9_HEURISTICS: list[Heuristic] = [
    ILRHeuristic(expand=False),
    ILRHeuristic(expand=True),
    *[FixedLengthHeuristic(n) for n in range(1, 9)],
]


def _fig9_task(
    args: tuple[str, Heuristic, tuple[str, ...], int, int, bool, str | None]
) -> list[tuple[str, str, str, float, float]]:
    """One worker: one benchmark x one heuristic across all RTM sizes."""
    name, heuristic, rtm_names, max_instructions, scale, use_cache, backend = args
    trace = run_workload(
        name, scale=scale, max_instructions=max_instructions,
        use_cache=use_cache, backend=backend,
    )
    out = []
    for rtm_name in rtm_names:
        sim = FiniteReuseSimulator(RTM_PRESETS[rtm_name], heuristic)
        result: FiniteReuseResult = sim.run(trace)
        out.append(
            (
                name,
                heuristic.name,
                rtm_name,
                result.percent_reused,
                result.avg_reused_trace_size,
            )
        )
    return out


def figure9(
    config: ExperimentConfig | None = None,
    *,
    rtm_names: tuple[str, ...] = ("512", "4K", "32K", "256K"),
    heuristics: Sequence[Heuristic] | None = None,
) -> FigureResult:
    """Finite-RTM reusability and trace size (Figure 9a/9b).

    Rows are ``(heuristic, RTM size)`` pairs with the two metrics
    averaged arithmetically over the benchmark suite, exactly like the
    paper's bar chart.
    """
    if config is None:
        config = ExperimentConfig()
    heuristics = list(heuristics) if heuristics is not None else FIG9_HEURISTICS
    tasks = [
        (name, h, rtm_names, config.max_instructions, config.scale,
         config.use_cache, config.backend)
        for h in heuristics
        for name in config.workloads
    ]
    per_task = parallel_map(_fig9_task, tasks, max_workers=config.max_workers)
    flat = [item for sub in per_task for item in sub]

    result = FigureResult(
        figure_id="fig9",
        title="Figure 9: finite-RTM reusability (%) and avg reused trace size",
        headers=["heuristic", "rtm", "reused_pct", "avg_trace_size"],
    )
    for h in heuristics:
        for rtm_name in rtm_names:
            cell = [
                (pct, size)
                for (name, hname, rname, pct, size) in flat
                if hname == h.name and rname == rtm_name
            ]
            result.rows.append(
                [
                    h.name,
                    rtm_name,
                    arithmetic_mean([c[0] for c in cell]),
                    arithmetic_mean([c[1] for c in cell]),
                ]
            )
    return result
