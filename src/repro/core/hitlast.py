"""Hit-last bit storage strategies (paper Section 5).

In principle there is one hit-last bit per memory word; in practice the
bit has to live somewhere affordable.  The paper considers:

* an idealised per-word table (used for the main Figures 3-5, 11-15),
* keeping the bit with the corresponding **L2 line**, with a fallback
  assumption (*assume-hit* / *assume-miss*) when the word misses in L2,
* a **hashed** table of untagged bits held in the L1 cache itself
  (about four bits per L1 line suffice, per Figure 7's observation that
  an L2 four times the L1 size captures most of the benefit).

All stores share the tiny :class:`HitLastStore` interface consumed by
the FSM: ``lookup(word)`` on a miss, ``update(word, bit)`` at write-back
time (when the word's line leaves the L1 cache).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Set


class HitLastStore(abc.ABC):
    """Backing storage for hit-last bits."""

    @abc.abstractmethod
    def lookup(self, word: int) -> bool:
        """The hit-last bit for ``word`` (including any fallback rule)."""

    @abc.abstractmethod
    def update(self, word: int, bit: bool) -> None:
        """Write back the bit for ``word`` (may be dropped by the store)."""

    def reset(self) -> None:
        """Forget everything (default: stateless stores need not override)."""


class IdealHitLastStore(HitLastStore):
    """One bit per memory word, unbounded (the paper's idealisation).

    ``default`` is the bit's cold value; the paper's FSM analysis covers
    both polarities and the ablation benchmark compares them.  True
    ("assume hit") lets new words into the cache faster.
    """

    def __init__(self, default: bool = True) -> None:
        self.default = default
        self._bits: Dict[int, bool] = {}

    def lookup(self, word: int) -> bool:
        return self._bits.get(word, self.default)

    def update(self, word: int, bit: bool) -> None:
        self._bits[word] = bit

    def reset(self) -> None:
        self._bits.clear()

    def is_cold(self) -> bool:
        """Whether no bit has been written since construction or reset."""
        return not self._bits

    def __len__(self) -> int:
        return len(self._bits)


class HashedHitLastStore(HitLastStore):
    """A fixed-size, untagged bit table indexed by a hash of the word.

    Collisions silently share a bit — exactly the hardware behaviour of
    the paper's hashing strategy ("there is no need to insure that the
    current instruction matches").  ``num_bits`` must be a power of two.
    """

    def __init__(self, num_bits: int, default: bool = True) -> None:
        self.validate(num_bits)
        self.num_bits = num_bits
        self.default = default
        self._bits = [default] * num_bits
        self._mask = num_bits - 1

    @staticmethod
    def validate(num_bits: int) -> None:
        """Raise :class:`ValueError` unless ``num_bits`` is a positive power of two."""
        if num_bits <= 0 or num_bits & (num_bits - 1):
            raise ValueError("num_bits must be a positive power of two")

    def _index(self, word: int) -> int:
        # Plain low-address indexing: with k bits per cache line the
        # table covers log2(k) tag bits beyond the cache index, so up
        # to k words aliasing one cache line keep distinct hit-last
        # bits — the paper's "four hit-last bits per cache line".
        return word & self._mask

    def lookup(self, word: int) -> bool:
        return self._bits[self._index(word)]

    def update(self, word: int, bit: bool) -> None:
        self._bits[self._index(word)] = bit

    def reset(self) -> None:
        self._bits = [self.default] * self.num_bits

    def is_cold(self) -> bool:
        """Whether every bit still holds the cold default."""
        return self._bits.count(self.default) == self.num_bits


class L2BackedHitLastStore(HitLastStore):
    """Hit-last bits that live with the corresponding L2 cache line.

    ``resident`` is a callable mapping an L2 line address to "is this
    line in L2 right now"; ``l2_line_of`` maps a word to its L2 line
    address.  When the word's L2 line is absent the ``assume_hit``
    fallback applies; write-backs to absent lines are dropped, and
    :meth:`invalidate` must be called when L2 evicts a line so its bits
    die with it.
    """

    def __init__(
        self,
        resident: Callable[[int], bool],
        l2_line_of: Callable[[int], int],
        assume_hit: bool,
        record_when_absent: bool = False,
    ) -> None:
        self._resident = resident
        self._l2_line_of = l2_line_of
        self.assume_hit = assume_hit
        self.record_when_absent = record_when_absent
        self._bits: Dict[int, bool] = {}

    def lookup(self, word: int) -> bool:
        if self._resident(self._l2_line_of(word)):
            return self._bits.get(word, self.assume_hit)
        return self.assume_hit

    def update(self, word: int, bit: bool) -> None:
        if self.record_when_absent or self._resident(self._l2_line_of(word)):
            # ``record_when_absent`` models the victim transfer in an
            # exclusive hierarchy: the write-back races the line's own
            # move into L2, so the bit must not be dropped.
            self._bits[word] = bit

    def invalidate(self, l2_line: int, words: Optional[Set[int]] = None) -> None:
        """Drop the bits belonging to an evicted L2 line.

        If ``words`` is given only those are dropped; otherwise every
        stored word mapping to ``l2_line`` is swept (slower).
        """
        if words is not None:
            for word in words:
                self._bits.pop(word, None)
            return
        line_of = self._l2_line_of
        stale = [word for word in self._bits if line_of(word) == l2_line]
        for word in stale:
            del self._bits[word]

    def reset(self) -> None:
        self._bits.clear()


def make_hitlast_store(kind: str, **kwargs: object) -> HitLastStore:
    """Build a store by name: ``ideal`` or ``hashed``.

    (The L2-backed stores need live L2 callbacks and are constructed by
    :mod:`repro.hierarchy.two_level` directly.)
    """
    if kind == "ideal":
        return IdealHitLastStore(**kwargs)  # type: ignore[arg-type]
    if kind == "hashed":
        return HashedHitLastStore(**kwargs)  # type: ignore[arg-type]
    raise ValueError(f"unknown hit-last store kind {kind!r}")
