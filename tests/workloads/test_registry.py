"""Tests for the benchmark registry."""

import pytest

from repro.trace.reference import RefKind
from repro.workloads.registry import (
    DEFAULT_MAX_REFS,
    benchmark_names,
    build_program,
    data_trace,
    describe,
    instruction_trace,
    mixed_trace,
    trace_by_kind,
)


class TestLookup:
    def test_names_sorted(self):
        names = benchmark_names()
        assert names == sorted(names)
        assert "gcc" in names

    def test_describe(self):
        assert describe("spice") == "circuit simulation"

    def test_describe_unknown(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            describe("nginx")

    def test_build_program(self):
        program = build_program("tomcatv")
        assert program.code_size > 0

    def test_build_unknown(self):
        with pytest.raises(ValueError):
            build_program("doom")


class TestTraceKinds:
    def test_instruction_trace_pure(self):
        trace = instruction_trace("li", 3_000)
        assert len(trace) == 3_000
        assert all(r.kind is RefKind.IFETCH for r in trace)

    def test_data_trace_pure(self):
        trace = data_trace("li", 3_000)
        assert len(trace) > 0
        assert all(r.kind.is_data for r in trace)

    def test_mixed_trace_budget(self):
        assert len(mixed_trace("li", 3_000)) == 3_000

    def test_trace_names(self):
        assert instruction_trace("li", 100).name == "li"
        assert data_trace("li", 100).name == "li"
        assert mixed_trace("li", 100).name == "li"

    def test_trace_by_kind_dispatch(self):
        instr = trace_by_kind("li", "instruction", 500)
        assert all(r.kind is RefKind.IFETCH for r in instr)
        data = trace_by_kind("li", "data", 500)
        assert all(r.kind.is_data for r in data)
        mixed = trace_by_kind("li", "mixed", 500)
        assert len(mixed) == 500

    def test_trace_by_kind_unknown(self):
        with pytest.raises(ValueError, match="unknown trace kind"):
            trace_by_kind("li", "video", 100)

    def test_default_budget_is_sane(self):
        assert DEFAULT_MAX_REFS >= 100_000

    @pytest.mark.parametrize("kind", ["instruction", "data", "mixed"])
    def test_negative_budget_rejected(self, kind):
        with pytest.raises(ValueError, match="got -5"):
            trace_by_kind("gcc", kind, -5)

    @pytest.mark.parametrize("kind", ["instruction", "data", "mixed"])
    def test_zero_budget_is_empty(self, kind):
        assert len(trace_by_kind("gcc", kind, 0)) == 0


class TestUnboundedBudget:
    def test_none_budget_runs_program_once(self):
        # tomcatv's program is finite; None must terminate with one run.
        trace = mixed_trace("tomcatv", max_refs=None)
        assert 0 < len(trace) < 5_000_000

    def test_none_budget_instruction_filter(self):
        trace = instruction_trace("tomcatv", max_refs=None)
        assert len(trace) > 0
        assert all(r.kind is RefKind.IFETCH for r in trace[:100])
