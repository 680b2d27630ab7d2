"""The dynamic-exclusion finite state machine (paper Figure 1).

This module is the *readable reference implementation* of the FSM: a
pure decision function plus a tiny per-line state record.  The
reference model (:mod:`repro.core.exclusion_cache`, the oracle the
compiled kernels are tested against) writes the same transitions out in
its ``access``; the test suite differentially checks the two against
each other.

Per cache line the FSM keeps:

* the resident tag,
* the **sticky** level ``s`` (the paper uses one bit; the McF91a
  extension generalises it to a small saturating counter, selected here
  with ``sticky_levels``), and
* ``hl`` — the L1 copy of the resident word's **hit-last** bit.

The backing hit-last store (one bit per memory word, in principle) is
abstracted by :mod:`repro.core.hitlast`.

Transitions on an access to ``x`` with resident ``y`` (Section 4 of the
paper, reconstructed in DESIGN.md §4):

====================================  =======================================
condition                             action
====================================  =======================================
``x == y``                            hit; ``s := max``, ``hl := 1``
miss, line empty                      load ``x``; ``s := max``, ``hl := 1``
miss, ``s == 0``                      write back ``h[y] := hl``; load ``x``;
                                      ``s := max``, ``hl := 1``
miss, ``s > 0`` and ``h[x]``          write back ``h[y] := hl``; load ``x``;
                                      ``s := max``, ``hl := 0``
miss, ``s > 0`` and not ``h[x]``      bypass; ``s := s - 1``
====================================  =======================================

The third row is the paper's "sets h[b] even though b did not hit"
transition (``A,!s -> B,s``); the fourth row's ``hl := 0`` is what resets
``h[b]`` when an instruction loaded on the strength of its hit-last bit
is evicted without ever hitting — the paper's loop-level example relies
on this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .hitlast import HitLastStore


class Decision(enum.Enum):
    """What the FSM decided for one access."""

    HIT = "hit"
    LOAD = "load"          # miss; store the fetched word (cold or !s or h[x])
    BYPASS = "bypass"      # miss; forward to CPU without storing


@dataclass
class LineState:
    """Mutable dynamic-exclusion state for one cache line."""

    tag: Optional[int] = None
    sticky: int = 0
    hit_last: bool = False

    def copy(self) -> "LineState":
        return LineState(self.tag, self.sticky, self.hit_last)


class DynamicExclusionFSM:
    """The per-line decision logic, shared by every DE cache model.

    Parameters
    ----------
    store:
        The backing hit-last store.
    sticky_levels:
        Maximum sticky value (1 reproduces the paper's single sticky
    bit; larger values give a resident line more conflict "lives",
        the McF91a multi-sticky extension).
    """

    def __init__(self, store: HitLastStore, sticky_levels: int = 1) -> None:
        if sticky_levels < 1:
            raise ValueError("sticky_levels must be at least 1")
        self.store = store
        self.sticky_levels = sticky_levels

    def step(self, line: LineState, incoming: int) -> Decision:
        """Apply one access to ``line`` in place and return the decision."""
        max_sticky = self.sticky_levels
        if line.tag == incoming:
            line.sticky = max_sticky
            line.hit_last = True
            return Decision.HIT
        if line.tag is None:
            line.tag = incoming
            line.sticky = max_sticky
            line.hit_last = True
            return Decision.LOAD
        if line.sticky == 0:
            self.store.update(line.tag, line.hit_last)
            line.tag = incoming
            line.sticky = max_sticky
            line.hit_last = True
            return Decision.LOAD
        if self.store.lookup(incoming):
            self.store.update(line.tag, line.hit_last)
            line.tag = incoming
            line.sticky = max_sticky
            line.hit_last = False
            return Decision.LOAD
        line.sticky -= 1
        return Decision.BYPASS
