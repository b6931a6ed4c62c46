"""Experiment layer: profiles, figure assembly, reporting."""

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.figures import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    trace_io_summary,
)
from repro.exp.report import render, render_markdown
from repro.exp.runner import collect_profiles, run_profile

SMALL = ExperimentConfig(
    max_instructions=3000,
    workloads=("hydro2d", "applu", "compress", "li"),
)


@pytest.fixture(scope="module")
def profiles():
    return collect_profiles(SMALL)


class TestRunner:
    def test_profile_fields(self):
        p = run_profile("compress", SMALL)
        assert p.name == "compress" and p.suite == "INT"
        assert p.dynamic_count == 3000
        assert 0 <= p.percent_reusable <= 100
        assert p.base_ipc_inf >= p.base_ipc_win - 1e-9
        assert set(p.ilr_speedup_inf) == {1, 2, 3, 4}
        assert set(p.tlr_speedup_win_prop) == set(SMALL.proportional_ks)
        assert p.io_stats is not None

    def test_speedups_at_least_one(self, profiles):
        for p in profiles:
            for d in (p.ilr_speedup_inf, p.ilr_speedup_win,
                      p.tlr_speedup_inf, p.tlr_speedup_win):
                for v in d.values():
                    assert v >= 1.0 - 1e-9

    def test_collect_order_matches_config(self, profiles):
        assert [p.name for p in profiles] == list(SMALL.workloads)

    def test_config_suite_helpers(self):
        assert SMALL.fp_names() == ["hydro2d", "applu"]
        assert SMALL.int_names() == ["compress", "li"]


class TestFigures:
    def test_figure3_shape(self, profiles):
        fig = figure3(profiles)
        labels = [row[0] for row in fig.rows]
        assert "AVG_FP" in labels and "AVG_INT" in labels and "AVERAGE" in labels
        assert 0 <= fig.value("AVERAGE", "reusable_pct") <= 100

    def test_figure3_fp_first_ordering(self, profiles):
        fig = figure3(profiles)
        labels = [row[0] for row in fig.rows]
        assert labels.index("hydro2d") < labels.index("compress")

    def test_figure4_latency_sweep_rows(self, profiles):
        fig = figure4(profiles, SMALL)
        labels = [row[0] for row in fig.rows]
        for latency in (1, 2, 3, 4):
            assert f"AVG@latency={latency}" in labels

    def test_figure4_sweep_monotone(self, profiles):
        fig = figure4(profiles, SMALL)
        sweep = [
            fig.value(f"AVG@latency={lat}", "speedup") for lat in (1, 2, 3, 4)
        ]
        assert sweep == sorted(sweep, reverse=True)

    def test_figure5_uses_window(self, profiles):
        fig5 = figure5(profiles, SMALL)
        assert fig5.value("AVERAGE", "speedup") >= 1.0 - 1e-9

    def test_figure6_columns(self, profiles):
        fig = figure6(profiles)
        assert fig.headers == ["program", "speedup_inf", "speedup_w256"]
        avg = fig.row_for("AVERAGE")
        assert avg[1] >= 1.0 - 1e-9 and avg[2] >= 1.0 - 1e-9

    def test_tlr_beats_ilr_on_average(self, profiles):
        """The paper's core claim, at the averages level."""
        fig4 = figure4(profiles, SMALL)
        fig6 = figure6(profiles)
        assert fig6.value("AVERAGE", "speedup_w256") >= fig4.value(
            "AVG@latency=1", "speedup"
        )

    def test_figure7_positive_sizes(self, profiles):
        fig = figure7(profiles)
        for row in fig.rows:
            assert row[1] >= 0

    def test_figure8_series(self, profiles):
        fig = figure8(profiles, SMALL)
        labels = [row[0] for row in fig.rows]
        assert "constant@1cyc" in labels
        assert "proportional@K=1/16" in labels
        assert len(fig.rows) == 4 + 6

    def test_figure8_proportional_monotone(self, profiles):
        fig = figure8(profiles, SMALL)
        ks = [32, 16, 8, 4, 2, 1]
        series = [fig.value(f"proportional@K=1/{k}", "speedup") for k in ks]
        assert series == sorted(series, reverse=True)

    def test_trace_io_summary(self, profiles):
        fig = trace_io_summary(profiles)
        avg = fig.row_for("AVERAGE")
        assert len(avg) == len(fig.headers)
        # reads per reused instruction are far below one-per-instruction
        assert fig.value("AVERAGE", "reads_per_instr") < 2.0

    def test_value_errors(self, profiles):
        fig = figure3(profiles)
        with pytest.raises(KeyError):
            fig.row_for("nonexistent")


class TestFigure9:
    def test_small_grid(self):
        from repro.core.rtm.collector import FixedLengthHeuristic, ILRHeuristic

        cfg = ExperimentConfig(max_instructions=2000, workloads=("compress", "li"))
        fig = figure9(
            cfg,
            rtm_names=("512", "4K"),
            heuristics=[ILRHeuristic(expand=True), FixedLengthHeuristic(4)],
        )
        assert len(fig.rows) == 4
        for row in fig.rows:
            assert 0 <= row[2] <= 100  # reused_pct
            assert row[3] >= 0  # avg trace size

    def test_runs_every_kernel_on_the_configured_backend(self, monkeypatch):
        from repro.core.rtm.collector import ILRHeuristic
        from repro.exp import figures

        calls = []
        real = figures.run_workload

        def recording(name, **kwargs):
            calls.append((name, kwargs.get("backend")))
            return real(name, **kwargs)

        monkeypatch.setattr(figures, "run_workload", recording)
        cfg = ExperimentConfig(max_instructions=1000, workloads=("compress", "li"),
                               backend="fast", max_workers=1)
        figure9(cfg, rtm_names=("512",), heuristics=[ILRHeuristic(True)])
        assert sorted(calls) == [("compress", "fast"), ("li", "fast")]

    def test_bigger_rtm_not_worse(self):
        from repro.core.rtm.collector import ILRHeuristic

        cfg = ExperimentConfig(max_instructions=4000, workloads=("compress",))
        fig = figure9(cfg, rtm_names=("512", "32K"), heuristics=[ILRHeuristic(True)])
        small = fig.rows[0][2]
        big = fig.rows[1][2]
        assert big >= small - 1.0  # allow tiny replacement noise


class TestReport:
    def test_render_text(self, profiles):
        text = render(figure3(profiles))
        assert "Figure 3" in text and "AVERAGE" in text

    def test_render_markdown(self, profiles):
        md = render_markdown(figure7(profiles))
        assert md.startswith("### ")
        assert "| program |" in md
