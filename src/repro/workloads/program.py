"""A tiny structured-program model that emits address traces.

The paper's trace substrate is ``pixie`` on a DECstation; ours is this
module.  A :class:`Program` is a set of :class:`Procedure` objects built
from four control constructs:

* :class:`Block` — straight-line code: N sequential instruction fetches,
  optionally generating data references from attached
  :class:`~repro.workloads.data_model.DataPattern` objects;
* :class:`Loop` — repeat a body a (possibly random) number of times;
* :class:`Call` — invoke another procedure (drives the shared stack
  pattern's push/pop);
* :class:`Switch` — pick one child per execution with given weights
  (models data-dependent branches and interpreter dispatch).

Code layout is linear: procedures get consecutive address ranges in
declaration order, so cache conflicts arise exactly the way they do in a
real linked binary — between code regions whose distance is a multiple
of the cache size.  This is what lets one synthetic program produce the
paper's conflict patterns at *every* cache size in a sweep.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..trace.reference import INSTRUCTION_SIZE, RefKind
from ..trace.trace import Trace
from .data_model import DataPattern, StackAccess

#: Trip counts may be fixed or a (low, high) inclusive range.
TripSpec = Union[int, Tuple[int, int]]

#: One instruction fetch's kind byte.
_IFETCH = bytes([RefKind.IFETCH])


class _EmissionDone(Exception):
    """Raised internally when the reference budget is exhausted."""


class Node:
    """Base class for program-structure nodes."""

    def _emit(self, ctx: "_EmitContext") -> None:
        raise NotImplementedError


class Block(Node):
    """``n_instr`` sequential instructions plus attached data patterns.

    One execution appends the whole block to the trace buffers: its
    instruction addresses are computed once, at layout, and data
    references are spliced between instruction slices in the order
    :func:`~repro.workloads.data_model.interleave_refs` defines.
    """

    def __init__(self, n_instr: int, data: Sequence[DataPattern] = ()) -> None:
        if n_instr < 0:
            raise ValueError("n_instr must be non-negative")
        self.n_instr = n_instr
        self.data = list(data)
        self.address: Optional[int] = None
        self._addrs: List[int] = []
        self._kinds = b""
        self._slice_cache: Dict[int, List[Tuple[List[int], bytes]]] = {}

    def _assign_address(self, address: int) -> int:
        """Place the block at ``address``; returns the address after it."""
        self.address = address
        self._addrs = [
            address + i * INSTRUCTION_SIZE for i in range(self.n_instr)
        ]
        self._kinds = _IFETCH * self.n_instr
        self._slice_cache = {}
        return address + self.n_instr * INSTRUCTION_SIZE

    def _slices(self, n_data: int) -> List[Tuple[List[int], bytes]]:
        """The instructions (addresses, kinds) emitted before each of
        ``n_data`` data references, cached per count.

        Data reference ``j`` follows the first ``ceil((j + 1) * n_instr
        / n_data)`` instructions, so the last one follows the last
        instruction and nothing trails it.
        """
        slices = self._slice_cache.get(n_data)
        if slices is None:
            n_instr, addrs, start = self.n_instr, self._addrs, 0
            slices = []
            for j in range(n_data):
                cut = -(-(j + 1) * n_instr // n_data)
                slices.append((addrs[start:cut], _IFETCH * (cut - start)))
                start = cut
            self._slice_cache[n_data] = slices
        return slices

    def _emit(self, ctx: "_EmitContext") -> None:
        if self.address is None:
            raise RuntimeError("block executed before layout")
        addrs, kinds = ctx.addrs, ctx.kinds
        refs = [ref for pattern in self.data for ref in pattern.emit()]
        if refs:
            for (piece, piece_kinds), (addr, kind) in zip(
                self._slices(len(refs)), refs
            ):
                addrs += piece
                addrs.append(addr)
                kinds += piece_kinds
                kinds.append(kind)
        else:
            addrs += self._addrs
            kinds += self._kinds
        ctx.check_budget()


class Seq(Node):
    """Execute children in order."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        self.nodes = list(nodes)

    def _emit(self, ctx: "_EmitContext") -> None:
        for node in self.nodes:
            node._emit(ctx)


class Loop(Node):
    """Repeat a body ``trips`` times (``trips`` may be a range)."""

    def __init__(self, body: Union[Node, Sequence[Node]], trips: TripSpec) -> None:
        self.body = body if isinstance(body, Node) else Seq(body)
        self.trips = trips
        _validate_trips(trips)

    def _emit(self, ctx: "_EmitContext") -> None:
        trips = _resolve_trips(self.trips, ctx.rng)
        body = self.body
        for _ in range(trips):
            body._emit(ctx)


class Call(Node):
    """Invoke a procedure by name."""

    def __init__(self, callee: str) -> None:
        self.callee = callee

    def _emit(self, ctx: "_EmitContext") -> None:
        ctx.call(self.callee)


class Switch(Node):
    """Pick one child per execution according to ``weights``."""

    def __init__(self, children: Sequence[Node], weights: Optional[Sequence[float]] = None) -> None:
        if not children:
            raise ValueError("Switch needs at least one child")
        self.children = list(children)
        if weights is None:
            weights = [1.0] * len(children)
        if len(weights) != len(children):
            raise ValueError("weights must match children")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cumulative.append(acc)

    def _emit(self, ctx: "_EmitContext") -> None:
        draw = ctx.rng.random()
        for child, edge in zip(self.children, self.cumulative):
            if draw <= edge:
                child._emit(ctx)
                return
        self.children[-1]._emit(ctx)


class Procedure:
    """A named body of nodes occupying one contiguous code range."""

    def __init__(self, name: str, body: Union[Node, Sequence[Node]]) -> None:
        self.name = name
        self.body = body if isinstance(body, Node) else Seq(body)


class Program:
    """A set of procedures plus layout and trace emission.

    Parameters
    ----------
    procedures:
        Declaration order defines code layout.
    entry:
        Name of the procedure executed by :meth:`trace`.
    code_base:
        Byte address of the first instruction.
    proc_gap:
        Padding bytes inserted between procedures (models alignment and
        unexecuted code).
    stack:
        Optional shared :class:`StackAccess`; pushed/popped around calls.
    seed:
        Seed for trip-count ranges and :class:`Switch` draws.
    max_call_depth:
        Recursion guard; calls beyond this depth are elided.
    """

    def __init__(
        self,
        procedures: Iterable[Procedure],
        entry: str,
        code_base: int = 0x1000,
        proc_gap: int = 0,
        stack: Optional[StackAccess] = None,
        seed: int = 0,
        max_call_depth: int = 200,
    ) -> None:
        self.procedures: Dict[str, Procedure] = {}
        for proc in procedures:
            if proc.name in self.procedures:
                raise ValueError(f"duplicate procedure {proc.name!r}")
            self.procedures[proc.name] = proc
        if entry not in self.procedures:
            raise ValueError(f"entry procedure {entry!r} not defined")
        self.entry = entry
        self.code_base = code_base
        self.proc_gap = proc_gap
        self.stack = stack
        self.seed = seed
        self.max_call_depth = max_call_depth
        self.proc_addresses: Dict[str, int] = {}
        self.code_size = 0
        self._layout()

    def _layout(self) -> None:
        address = self.code_base
        for proc in self.procedures.values():
            self.proc_addresses[proc.name] = address
            address = _layout_node(proc.body, address)
            address += self.proc_gap
        self.code_size = address - self.code_base

    def _reset_patterns(self) -> None:
        seen = set()
        for proc in self.procedures.values():
            for block in _blocks_of(proc.body):
                for pattern in block.data:
                    if id(pattern) not in seen:
                        seen.add(id(pattern))
                        pattern.reset()
        if self.stack is not None:
            self.stack.reset()

    def trace(
        self,
        max_refs: Optional[int] = None,
        repeat: int = 1,
        name: str = "",
    ) -> Trace:
        """Execute the program and return its address trace.

        ``repeat`` runs the entry procedure that many times (or until
        ``max_refs`` references have been emitted).  Pattern state and
        the RNG are reset first, so emission is deterministic.
        """
        if max_refs is not None and max_refs < 0:
            raise ValueError(f"max_refs must be non-negative, got {max_refs}")
        self._reset_patterns()
        ctx = _EmitContext(self, max_refs)
        try:
            for _ in range(repeat):
                ctx.call(self.entry)
        except _EmissionDone:
            pass
        if max_refs is not None:
            del ctx.addrs[max_refs:]
            del ctx.kinds[max_refs:]
        return Trace(ctx.addrs, ctx.kinds, name=name)


class _EmitContext:
    """Mutable state threaded through one emission run: the trace
    buffers, the RNG and the call depth."""

    def __init__(self, program: Program, max_refs: Optional[int]) -> None:
        self.program = program
        self.addrs: List[int] = []
        self.kinds = bytearray()
        self.max_refs = max_refs
        self.rng = random.Random(program.seed)
        self.depth = 0

    def check_budget(self) -> None:
        if self.max_refs is not None and len(self.addrs) >= self.max_refs:
            raise _EmissionDone

    def call(self, name: str) -> None:
        program = self.program
        if self.depth >= program.max_call_depth:
            return
        try:
            proc = program.procedures[name]
        except KeyError:
            raise ValueError(f"call to undefined procedure {name!r}") from None
        self.depth += 1
        if program.stack is not None:
            program.stack.push()
        try:
            proc.body._emit(self)
        finally:
            if program.stack is not None:
                program.stack.pop()
            self.depth -= 1


# -- helpers -----------------------------------------------------------------


def _validate_trips(trips: TripSpec) -> None:
    if isinstance(trips, int):
        if trips < 0:
            raise ValueError("trip count must be non-negative")
        return
    low, high = trips
    if low < 0 or high < low:
        raise ValueError(f"bad trip range {trips!r}")


def _resolve_trips(trips: TripSpec, rng: random.Random) -> int:
    if isinstance(trips, int):
        return trips
    low, high = trips
    return rng.randint(low, high)


def _layout_node(node: Node, address: int) -> int:
    """Assign addresses to every block under ``node``; returns the end."""
    if isinstance(node, Block):
        return node._assign_address(address)
    if isinstance(node, Seq):
        for child in node.nodes:
            address = _layout_node(child, address)
        return address
    if isinstance(node, Loop):
        return _layout_node(node.body, address)
    if isinstance(node, Switch):
        for child in node.children:
            address = _layout_node(child, address)
        return address
    if isinstance(node, Call):
        # A call occupies no code here; the jump instruction belongs to
        # the surrounding blocks.
        return address
    raise TypeError(f"unknown node type {type(node).__name__}")


def _blocks_of(node: Node) -> Iterable[Block]:
    if isinstance(node, Block):
        yield node
    elif isinstance(node, Seq):
        for child in node.nodes:
            yield from _blocks_of(child)
    elif isinstance(node, Loop):
        yield from _blocks_of(node.body)
    elif isinstance(node, Switch):
        for child in node.children:
            yield from _blocks_of(child)
