"""Tests for the synthetic program model."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.trace.reference import RefKind
from repro.workloads.data_model import (
    DataPattern,
    ScalarAccess,
    StackAccess,
    interleave_refs,
)
from repro.workloads.program import (
    Block,
    Call,
    Loop,
    Procedure,
    Program,
    Seq,
    Switch,
)


def simple_program(**kwargs):
    main = Procedure("main", [Block(4)])
    return Program([main], entry="main", **kwargs)


class TestLayout:
    def test_blocks_get_sequential_addresses(self):
        block_a = Block(2)
        block_b = Block(3)
        program = Program(
            [Procedure("main", [block_a, block_b])], entry="main", code_base=0x1000
        )
        assert block_a.address == 0x1000
        assert block_b.address == 0x1000 + 8
        assert program.code_size == 20

    def test_procedures_are_contiguous_with_gap(self):
        a = Procedure("a", [Block(4)])
        b = Procedure("b", [Block(4)])
        program = Program([a, b, Procedure("main", [Call("a")])],
                          entry="main", code_base=0, proc_gap=16)
        assert program.proc_addresses["a"] == 0
        assert program.proc_addresses["b"] == 16 + 16

    def test_loop_body_laid_out_once(self):
        block = Block(4)
        program = Program(
            [Procedure("main", [Loop(block, 10)])], entry="main", code_base=0
        )
        assert program.code_size == 16

    def test_switch_children_all_laid_out(self):
        x, y = Block(2), Block(2)
        program = Program(
            [Procedure("main", [Switch([x, y])])], entry="main", code_base=0
        )
        assert x.address == 0
        assert y.address == 8

    def test_duplicate_procedure_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Program([Procedure("p", [Block(1)]), Procedure("p", [Block(1)])],
                    entry="p")

    def test_unknown_entry_rejected(self):
        with pytest.raises(ValueError, match="entry"):
            Program([Procedure("p", [Block(1)])], entry="main")


class TestEmission:
    def test_block_emits_sequential_ifetches(self):
        program = simple_program(code_base=0x100)
        trace = program.trace()
        assert [r.addr for r in trace] == [0x100, 0x104, 0x108, 0x10C]
        assert all(r.kind is RefKind.IFETCH for r in trace)

    def test_loop_repeats_body(self):
        main = Procedure("main", [Loop(Block(2), trips=3)])
        trace = Program([main], entry="main", code_base=0).trace()
        assert len(trace) == 6

    def test_loop_trip_range_is_seed_deterministic(self):
        def build():
            main = Procedure("main", [Loop(Block(1), trips=(1, 10))])
            return Program([main], entry="main", seed=9).trace()

        assert build() == build()

    def test_call_jumps_to_callee(self):
        callee = Procedure("f", [Block(1)])
        main = Procedure("main", [Block(1), Call("f"), Block(1)])
        program = Program([callee, main], entry="main", code_base=0, proc_gap=0)
        addrs = [r.addr for r in program.trace()]
        # f is laid out first at 0; main's blocks follow at 4 and 8.
        assert addrs == [4, 0, 8]

    def test_call_to_unknown_procedure_raises(self):
        main = Procedure("main", [Call("ghost")])
        program = Program([main], entry="main")
        with pytest.raises(ValueError, match="undefined procedure"):
            program.trace()

    def test_recursion_bounded_by_max_call_depth(self):
        rec = Procedure("rec", [Block(1), Call("rec")])
        program = Program([rec], entry="rec", max_call_depth=5)
        trace = program.trace()
        assert len(trace) == 5

    def test_switch_selects_single_child(self):
        x, y = Block(1), Block(1)
        main = Procedure("main", [Switch([x, y])])
        trace = Program([main], entry="main").trace()
        assert len(trace) == 1

    def test_switch_weights_bias_selection(self):
        x, y = Block(1), Block(2)
        main = Procedure("main", [Loop(Switch([x, y], weights=[0.0, 1.0]), 10)])
        trace = Program([main], entry="main").trace()
        assert len(trace) == 20  # always the 2-word child

    def test_switch_validation(self):
        with pytest.raises(ValueError):
            Switch([])
        with pytest.raises(ValueError):
            Switch([Block(1)], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            Switch([Block(1)], weights=[0.0])

    def test_max_refs_truncates(self):
        main = Procedure("main", [Loop(Block(10), 100)])
        trace = Program([main], entry="main").trace(max_refs=25)
        assert len(trace) == 25

    def test_repeat_runs_entry_multiple_times(self):
        main = Procedure("main", [Block(3)])
        trace = Program([main], entry="main").trace(repeat=4)
        assert len(trace) == 12

    def test_trace_is_deterministic(self):
        main = Procedure("main", [Loop(Block(2), trips=(1, 5))])
        program = Program([main], entry="main", seed=3)
        assert program.trace() == program.trace()

    def test_trace_name(self):
        assert simple_program().trace(name="x").name == "x"

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match=f"got {budget}"):
            simple_program().trace(max_refs=budget)

    def test_zero_budget_is_empty(self):
        assert len(simple_program().trace(max_refs=0)) == 0


class TestDataIntegration:
    def test_block_data_patterns_emit(self):
        scalar = ScalarAccess(0x9000)
        main = Procedure("main", [Block(4, data=[scalar])])
        trace = Program([main], entry="main").trace()
        data = [r for r in trace if r.kind.is_data]
        assert len(data) == 1
        assert data[0].addr == 0x9000

    def test_stack_follows_call_depth(self):
        stack = StackAccess(0x8000, frame_size=64, refs_per_visit=1, seed=1)
        inner = Procedure("inner", [Block(1, data=[stack])])
        main = Procedure("main", [Block(1, data=[stack]), Call("inner")])
        program = Program([inner, main], entry="main", stack=stack)
        trace = program.trace()
        data = [r.addr for r in trace if r.kind.is_data]
        # main runs at depth 1, inner at depth 2.
        assert 0x8000 + 64 <= data[0] < 0x8000 + 128
        assert 0x8000 + 128 <= data[1] < 0x8000 + 192

    def test_patterns_reset_between_traces(self):
        scalar = ScalarAccess(0x9000, write_every=2)
        main = Procedure("main", [Block(1, data=[scalar])])
        program = Program([main], entry="main")
        first = program.trace()
        second = program.trace()
        assert first == second


class _Fixed(DataPattern):
    """Emits the same references on every activation."""

    def __init__(self, refs):
        self.refs = refs

    def emit(self):
        return list(self.refs)


class TestBlockEmission:
    """A block is emitted whole, in the order interleave_refs defines."""

    @given(
        n_instr=st.integers(0, 64),
        kinds=st.lists(st.sampled_from([RefKind.LOAD, RefKind.STORE]), max_size=64),
    )
    @example(n_instr=0, kinds=[RefKind.LOAD] * 3)
    @example(n_instr=2, kinds=[RefKind.STORE, RefKind.LOAD] * 3)
    @example(n_instr=64, kinds=[RefKind.LOAD] * 64)
    def test_order_matches_interleave_refs(self, n_instr, kinds):
        data = [(0x9000 + 4 * j, kind) for j, kind in enumerate(kinds)]
        block = Block(n_instr, data=[_Fixed(data)])
        program = Program([Procedure("main", [block])], entry="main", code_base=0)
        expected = [
            (addr, int(kind)) for addr, kind in interleave_refs(block._addrs, data)
        ]
        assert list(program.trace().pairs()) == expected
        # The slices cached for this data count give the same order again.
        assert list(program.trace().pairs()) == expected

    def test_data_count_may_change_between_executions(self):
        # A pattern whose reference count varies gets one cut per count.
        class Growing(DataPattern):
            def __init__(self):
                self.calls = 0

            def emit(self):
                self.calls += 1
                return [(0x9000, RefKind.LOAD)] * self.calls

            def reset(self):
                self.calls = 0

        pattern = Growing()
        block = Block(3, data=[pattern])
        trace = Program(
            [Procedure("main", [Loop(block, 3)])], entry="main", code_base=0
        ).trace()
        expected = []
        for calls in (1, 2, 3):
            data = [(0x9000, RefKind.LOAD)] * calls
            expected += [
                (addr, int(kind))
                for addr, kind in interleave_refs(block._addrs, data)
            ]
        assert list(trace.pairs()) == expected


class TestValidation:
    def test_negative_block_size_rejected(self):
        with pytest.raises(ValueError):
            Block(-1)

    def test_bad_trip_range_rejected(self):
        with pytest.raises(ValueError):
            Loop(Block(1), trips=(5, 2))

    def test_negative_trips_rejected(self):
        with pytest.raises(ValueError):
            Loop(Block(1), trips=-1)
