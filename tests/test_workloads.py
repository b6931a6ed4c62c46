"""The 14-kernel workload suite: registration, execution, character."""

import pytest

from repro.isa.opcodes import OpClass
from repro.vm.machine import Machine
from repro.workloads import FP_SUITE, INT_SUITE, all_workloads, get_workload
from repro.workloads.base import build_program, run_workload

ALL_NAMES = FP_SUITE + INT_SUITE


class TestRegistry:
    def test_all_fourteen_registered(self):
        names = [w.name for w in all_workloads()]
        assert names == ALL_NAMES
        assert len(names) == 14

    def test_suite_membership(self):
        for name in FP_SUITE:
            assert get_workload(name).suite == "FP"
        for name in INT_SUITE:
            assert get_workload(name).suite == "INT"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("doom")

    def test_descriptions_present(self):
        for w in all_workloads():
            assert len(w.description) > 10

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            get_workload("compress").source(scale=0)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryKernel:
    def test_assembles(self, name):
        program = build_program(name)
        assert len(program) > 10

    def test_runs_to_budget(self, name):
        trace = run_workload(name, max_instructions=4000)
        assert len(trace) == 4000  # kernels outlast any realistic budget
        assert trace.truncated and not trace.halted

    def test_deterministic(self, name):
        t1 = run_workload(name, max_instructions=1500)
        t2 = run_workload(name, max_instructions=1500)
        assert [repr(d) for d in t1] == [repr(d) for d in t2]

    def test_no_stray_memory_below_data_base(self, name):
        # kernels must address only the data segment and the stack
        machine = Machine(build_program(name))
        machine.run(max_instructions=4000)
        from repro.vm.program import DATA_BASE

        for addr in machine.memory:
            assert addr >= DATA_BASE or addr > 0x8000, (
                f"{name} wrote near-null address {addr:#x}"
            )


class TestSuiteCharacter:
    @pytest.mark.parametrize("name", FP_SUITE)
    def test_fp_kernels_use_fp(self, name):
        trace = run_workload(name, max_instructions=4000)
        hist = trace.class_histogram()
        fp_ops = sum(
            hist.get(cls, 0)
            for cls in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV,
                        OpClass.FP_SQRT, OpClass.FP_CVT)
        )
        assert fp_ops / len(trace) > 0.15, f"{name} has too little FP work"

    @pytest.mark.parametrize("name", INT_SUITE)
    def test_int_kernels_mostly_integer(self, name):
        trace = run_workload(name, max_instructions=4000)
        hist = trace.class_histogram()
        fp_ops = sum(
            hist.get(cls, 0)
            for cls in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV,
                        OpClass.FP_SQRT, OpClass.FP_CVT)
        )
        assert fp_ops == 0, f"{name} unexpectedly uses FP"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_kernels_access_memory(self, name):
        trace = run_workload(name, max_instructions=4000)
        hist = trace.class_histogram()
        assert hist.get(OpClass.LOAD, 0) > 0
        assert hist.get(OpClass.STORE, 0) > 0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_kernels_branch(self, name):
        trace = run_workload(name, max_instructions=4000)
        hist = trace.class_histogram()
        assert hist.get(OpClass.BRANCH, 0) > 0

    def test_applu_is_least_reusable(self):
        """The paper's figure 3 ordering: applu at the bottom."""
        from repro.baselines.ilr import instruction_reusability

        rates = {}
        for name in ("applu", "hydro2d", "compress"):
            trace = run_workload(name, max_instructions=20_000)
            rates[name] = instruction_reusability(trace).percent_reusable
        assert rates["applu"] < rates["compress"]
        assert rates["applu"] < rates["hydro2d"]

    def test_hydro2d_has_long_traces(self):
        """Figure 7's headline: hydro2d has by far the largest traces."""
        from repro.baselines.ilr import instruction_reusability
        from repro.core.traces import average_span_length, maximal_reusable_spans

        sizes = {}
        for name in ("hydro2d", "applu", "fpppp"):
            trace = run_workload(name, max_instructions=20_000)
            flags = instruction_reusability(trace).flags
            sizes[name] = average_span_length(maximal_reusable_spans(trace, flags))
        assert sizes["hydro2d"] > 5 * sizes["applu"]
        assert sizes["hydro2d"] > 5 * sizes["fpppp"]


def test_row_view_equals_per_row_records():
    """``ColumnarTrace.instructions`` (built in batched column passes)
    equals ``inst(i)`` field for field, with the very value objects."""
    from repro.vm.trace import ColumnarTrace

    assert ColumnarTrace().instructions == []
    for name in ALL_NAMES:
        trace = run_workload(name, max_instructions=1_500, use_cache=False)
        rows = trace.instructions
        assert len(rows) == len(trace)
        for i, row in enumerate(rows):
            want = trace.inst(i)
            for field in ("pc", "op", "latency", "next_pc"):
                got, exp = getattr(row, field), getattr(want, field)
                assert got == exp and type(got) is type(exp), (name, i, field)
            for got, exp in ((row.reads, want.reads), (row.writes, want.writes)):
                assert type(got) is tuple and got == exp, (name, i)
                assert all(a[1] is b[1] for a, b in zip(got, exp)), (name, i)
