"""Data-reference patterns for the synthetic workloads.

Each pattern is a small stateful generator of load/store addresses,
attached to basic blocks of the program model
(:mod:`repro.workloads.program`).  Between them they cover the data
behaviours the paper's benchmark mix implies: streaming arrays
(matrix300, tomcatv, nasa7), loop-carried scalars, stack frames
(gcc, li), scattered heap structures (eqntott, espresso, li), and
pointer chasing (lisp cells).
"""

from __future__ import annotations

import abc
import random
from typing import Iterator, List, Tuple

from ..trace.reference import RefKind

#: One emitted data reference: (address, kind).
DataRef = Tuple[int, RefKind]


class DataPattern(abc.ABC):
    """A stateful stream of data references."""

    @abc.abstractmethod
    def emit(self) -> List[DataRef]:
        """References produced by one activation (one block execution)."""

    def reset(self) -> None:
        """Return to the initial state (default: nothing to do)."""


class ScalarAccess(DataPattern):
    """A loop-carried scalar: the same word every activation."""

    def __init__(self, addr: int, write_every: int = 0) -> None:
        if addr < 0:
            raise ValueError("address must be non-negative")
        self.addr = addr
        self.write_every = write_every
        self._count = 0

    def emit(self) -> List[DataRef]:
        self._count += 1
        if self.write_every and self._count % self.write_every == 0:
            return [(self.addr, RefKind.STORE)]
        return [(self.addr, RefKind.LOAD)]

    def reset(self) -> None:
        self._count = 0


class StridedAccess(DataPattern):
    """A streaming array walk: ``refs_per_visit`` elements per
    activation, advancing by ``stride`` and wrapping at ``length`` bytes
    (the vector loops of tomcatv/matrix300/nasa7)."""

    def __init__(
        self,
        base: int,
        length: int,
        stride: int = 4,
        refs_per_visit: int = 1,
        write_fraction: float = 0.0,
    ) -> None:
        if length <= 0 or stride <= 0 or refs_per_visit <= 0:
            raise ValueError("length, stride and refs_per_visit must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        self.base = base
        self.length = length
        self.stride = stride
        self.refs_per_visit = refs_per_visit
        self.write_fraction = write_fraction
        self._offset = 0
        self._emitted = 0

    def emit(self) -> List[DataRef]:
        refs: List[DataRef] = []
        writes_per = self.write_fraction
        for _ in range(self.refs_per_visit):
            addr = self.base + self._offset
            self._emitted += 1
            # Deterministic write spacing: every 1/write_fraction refs.
            is_write = writes_per > 0.0 and (self._emitted * writes_per) % 1.0 < writes_per
            refs.append((addr, RefKind.STORE if is_write else RefKind.LOAD))
            self._offset = (self._offset + self.stride) % self.length
        return refs

    def reset(self) -> None:
        self._offset = 0
        self._emitted = 0


class RandomAccess(DataPattern):
    """Uniform references inside a region (hash tables, symbol tables)."""

    def __init__(
        self,
        base: int,
        size: int,
        refs_per_visit: int = 1,
        write_fraction: float = 0.0,
        granule: int = 4,
        seed: int = 0,
    ) -> None:
        if size < granule:
            raise ValueError("region smaller than one granule")
        self.base = base
        self.size = size
        self.refs_per_visit = refs_per_visit
        self.write_fraction = write_fraction
        self.granule = granule
        self._seed = seed
        self._rng = random.Random(seed)

    def emit(self) -> List[DataRef]:
        rng = self._rng
        slots = self.size // self.granule
        refs: List[DataRef] = []
        for _ in range(self.refs_per_visit):
            addr = self.base + rng.randrange(slots) * self.granule
            kind = RefKind.STORE if rng.random() < self.write_fraction else RefKind.LOAD
            refs.append((addr, kind))
        return refs

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class PointerChase(DataPattern):
    """Follow a fixed random permutation of nodes (lisp cons cells).

    The chain is a single cycle through all nodes, so successive
    activations have no spatial locality but perfect long-term reuse.
    """

    def __init__(
        self,
        base: int,
        num_nodes: int,
        node_size: int = 16,
        hops_per_visit: int = 1,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.base = base
        self.node_size = node_size
        self.hops_per_visit = hops_per_visit
        rng = random.Random(seed)
        order = list(range(num_nodes))
        rng.shuffle(order)
        # next_node[order[i]] = order[i+1] forms one big cycle.
        self._next = [0] * num_nodes
        for i, node in enumerate(order):
            self._next[node] = order[(i + 1) % num_nodes]
        self._current = order[0]
        self._start = order[0]

    def emit(self) -> List[DataRef]:
        refs: List[DataRef] = []
        for _ in range(self.hops_per_visit):
            refs.append((self.base + self._current * self.node_size, RefKind.LOAD))
            self._current = self._next[self._current]
        return refs

    def reset(self) -> None:
        self._current = self._start


class StackAccess(DataPattern):
    """Stack-frame traffic: a handful of words near a frame pointer.

    ``push``/``pop`` move the frame; the program model wires these to
    call/return events so recursive benchmarks get realistic stack
    locality.
    """

    def __init__(
        self,
        base: int,
        frame_size: int = 32,
        refs_per_visit: int = 2,
        write_fraction: float = 0.5,
        max_depth: int = 64,
        seed: int = 0,
    ) -> None:
        self.base = base
        self.frame_size = frame_size
        self.refs_per_visit = refs_per_visit
        self.write_fraction = write_fraction
        self.max_depth = max_depth
        self._seed = seed
        self._rng = random.Random(seed)
        self._depth = 0

    def push(self) -> None:
        if self._depth < self.max_depth:
            self._depth += 1

    def pop(self) -> None:
        if self._depth > 0:
            self._depth -= 1

    @property
    def depth(self) -> int:
        return self._depth

    def emit(self) -> List[DataRef]:
        rng = self._rng
        frame_base = self.base + self._depth * self.frame_size
        slots = max(1, self.frame_size // 4)
        refs: List[DataRef] = []
        for _ in range(self.refs_per_visit):
            addr = frame_base + rng.randrange(slots) * 4
            kind = RefKind.STORE if rng.random() < self.write_fraction else RefKind.LOAD
            refs.append((addr, kind))
        return refs

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._depth = 0


def interleave_refs(
    instructions: List[int], data: List[DataRef]
) -> Iterator[Tuple[int, RefKind]]:
    """Merge a block's instruction fetches with its data references,
    spreading the data references evenly between the instructions.

    This defines the order in which :class:`~repro.workloads.program.Block`
    emits a whole block; the tests hold the block emitter to it.
    """
    n_instr = len(instructions)
    n_data = len(data)
    if n_instr == 0:
        yield from data
        return
    emitted = 0
    for i, addr in enumerate(instructions):
        yield addr, RefKind.IFETCH
        # How many data refs should have been emitted after instr i.
        target = (i + 1) * n_data // n_instr
        while emitted < target:
            yield data[emitted]
            emitted += 1
