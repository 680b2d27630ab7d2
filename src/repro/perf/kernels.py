"""Set-partitioned simulation kernels.

A direct-mapped cache (with or without dynamic exclusion) decomposes
exactly: each set's behaviour depends only on the subsequence of
references that map to it, and sets never interact.  Every kernel here
goes through one seam:

1. :func:`_set_order` sorts the trace's references by set index (a
   stable argsort over a narrow integer dtype, so each set's
   subsequence keeps its program order) and marks where each set group
   starts; :func:`_set_partition` gathers the line addresses in that
   order;
2. :func:`_runs` compresses each group into runs of identical
   consecutive line addresses, as ``(words, lengths, new_set)`` arrays;
3. the kernel's own decision loop runs once per run, not once per
   reference, carrying only the state of the current set;
4. :func:`_stats` builds the :class:`~repro.caches.stats.CacheStats`
   from the loop's counts and checks it.

:func:`simulate_direct_mapped` and :func:`simulate_victim` stop after
step 1: with always-allocate replacement a hit is "same line as the
predecessor within the set group", one vectorized compare, and the
victim buffer loops over the misses alone, in program order.  A last-line buffer needs no
kernel of its own: :func:`~repro.caches.base.simulate_line_events` runs
the inner model's kernel on the line events.  Every kernel's result
is field-for-field identical to its reference simulator's
(``tests/perf/test_engine_equivalence.py`` proves it differentially),
and every result passes :meth:`~repro.caches.stats.CacheStats.check`
before it is returned, so a kernel bug fails loudly instead of skewing
a figure.
"""

from __future__ import annotations

import numpy as np

from ..caches.geometry import CacheGeometry
from ..caches.optimal import NEVER, next_use_array
from ..caches.stats import CacheStats, ExclusionEvents
from ..core.hitlast import HashedHitLastStore
from ..hierarchy.two_level import Strategy, TwoLevelResult
from ..trace.trace import Trace


def _require_direct_mapped(geometry: CacheGeometry) -> None:
    if geometry.associativity != 1:
        raise ValueError("this set-partitioned kernel requires associativity 1")


def _set_order(trace: Trace, geometry: CacheGeometry):
    """``(order, new_set)``: the stable argsort of the trace's set
    indices, which lists each set's positions in program order, set by
    set, and the boolean mask marking the first position of each set
    group in that order.  Both are empty for an empty trace.

    The set indices are narrowed to the smallest integer dtype before
    the stable argsort — numpy's radix sort is per-byte, so sorting
    16-bit keys is roughly twice as fast as sorting the raw ``uint64``
    line addresses.
    """
    lines = trace.lines(geometry.offset_bits)
    sets = lines & np.uint64(geometry.num_sets - 1)
    if geometry.num_sets <= 1 << 16:
        sets = sets.astype(np.uint16)
    elif geometry.num_sets <= 1 << 32:
        sets = sets.astype(np.uint32)
    order = np.argsort(sets, kind="stable")
    grouped_sets = sets[order]
    new_set = np.empty(len(lines), dtype=bool)
    new_set[:1] = True
    np.not_equal(grouped_sets[1:], grouped_sets[:-1], out=new_set[1:])
    return order, new_set


def _set_partition(trace: Trace, geometry: CacheGeometry):
    """``(grouped_lines, new_set)``: line addresses reordered set-by-set
    (program order preserved within a set) and the boolean mask marking
    the first position of each set group."""
    order, new_set = _set_order(trace, geometry)
    return trace.lines(geometry.offset_bits)[order], new_set


def _runs(trace: Trace, geometry: CacheGeometry):
    """``(words, lengths, new_set)``, one entry per run of identical
    consecutive line addresses within a set group, in set order: the
    run's line address, its reference count, and whether it starts a
    set group."""
    grouped_lines, new_set = _set_partition(trace, geometry)
    boundary = new_set.copy()
    boundary[1:] |= grouped_lines[1:] != grouped_lines[:-1]
    starts = np.flatnonzero(boundary)
    lengths = np.diff(starts, append=len(grouped_lines))
    return grouped_lines[starts], lengths, new_set[starts]


def _stats(
    n: int,
    hits: int,
    cold: int,
    evictions: int,
    bypasses: int = 0,
    buffer_hits: int = 0,
) -> CacheStats:
    """A kernel's checked :class:`CacheStats` over ``n`` references."""
    stats = CacheStats(
        accesses=n,
        hits=hits,
        misses=n - hits,
        bypasses=bypasses,
        evictions=evictions,
        buffer_hits=buffer_hits,
        cold_misses=cold,
    )
    stats.check()
    return stats


def simulate_direct_mapped(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Vectorized direct-mapped simulation (always-allocate).

    Within each set group the resident line is always the previously
    referenced line, so hits are exactly the positions equal to their
    predecessor; the first position of each group is the set's one cold
    miss and every other miss displaces a line.
    """
    _require_direct_mapped(geometry)
    n = len(trace)
    grouped_lines, new_set = _set_partition(trace, geometry)
    same_line = grouped_lines[1:] == grouped_lines[:-1]
    hits = int(np.count_nonzero(same_line & ~new_set[1:]))
    cold = int(np.count_nonzero(new_set))
    return _stats(n, hits, cold, n - hits - cold)


def simulate_victim(
    trace: Trace, geometry: CacheGeometry, entries: int
) -> CacheStats:
    """Direct-mapped partition plus a loop over the L1 misses.

    Models :class:`~repro.caches.victim.VictimCache`: a cold
    direct-mapped L1 behind an ``entries``-deep LRU victim buffer.  L1
    always takes the referenced line, on a miss and on a buffer hit
    alike, so it holds what an always-allocate direct-mapped cache
    holds: a reference misses L1 exactly when it differs from its
    predecessor in its set group, and that predecessor is the line the
    miss displaces into the buffer.  The first reference of a group is
    a cold miss that displaces nothing, and a line never sits in L1
    and the buffer at once.  Only the buffer needs program order: one
    pass over the displacing misses runs it, and a miss that finds its
    line there is a buffer hit.
    """
    _require_direct_mapped(geometry)
    n = len(trace)
    lines = trace.lines(geometry.offset_bits)
    order, new_set = _set_order(trace, geometry)
    grouped_lines = lines[order]
    # Scatter each grouped position's flags and predecessor back to
    # program order.
    displacing = np.zeros(n, dtype=bool)
    displacing[order[1:]] = (grouped_lines[1:] != grouped_lines[:-1]) & ~new_set[1:]
    displaced = np.empty(n, dtype=lines.dtype)
    displaced[order[1:]] = grouped_lines[:-1]
    miss_lines = lines[displacing].tolist()
    miss_victims = displaced[displacing].tolist()

    # line -> None, least recently inserted first.
    buffer: "dict[int, None]" = {}
    buffer_hits = 0
    for line, victim in zip(miss_lines, miss_victims):
        if line in buffer:
            del buffer[line]
            buffer_hits += 1
        elif len(buffer) == entries:
            del buffer[next(iter(buffer))]
        buffer[victim] = None
    cold = int(np.count_nonzero(new_set))
    l1_hits = n - cold - len(miss_lines)
    return _stats(
        n,
        l1_hits + buffer_hits,
        cold,
        len(miss_lines) - buffer_hits,
        buffer_hits=buffer_hits,
    )


def simulate_dynamic_exclusion(
    trace: Trace,
    geometry: CacheGeometry,
    default_hit_last: bool = True,
    num_bits: "int | None" = None,
) -> CacheStats:
    """Run-compressed dynamic-exclusion simulation.

    Models :class:`~repro.core.exclusion_cache.DynamicExclusionCache`
    with ``sticky_levels=1``, starting from a cold cache and a fresh
    store whose cold value is ``default_hit_last``: an
    :class:`~repro.core.hitlast.IdealHitLastStore` when ``num_bits`` is
    None, else a :class:`~repro.core.hitlast.HashedHitLastStore` of
    ``num_bits`` bits.  The hashed table keys a word's bit by
    ``word & (num_bits - 1)``; with at least one bit per set, words that
    share a bit share a set, so each set group still runs alone.
    """
    _require_direct_mapped(geometry)
    words, lengths, new_set = _runs(trace, geometry)
    run_words = words.tolist()
    # Each run's key into the store: the word itself, or its low bits.
    run_keys = run_words
    if num_bits is not None:
        HashedHitLastStore.validate(num_bits)
        if num_bits < geometry.num_sets:
            raise ValueError("the hashed kernel needs at least one bit per set")
        run_keys = (words & np.uint64(num_bits - 1)).tolist()

    bits: "dict[int, bool]" = {}
    bits_get = bits.get
    hits = cold = evictions = bypasses = 0
    # Paper-mechanism event counters, matching the reference cache's
    # ExclusionEvents definitions (see caches/stats.py): a write-back
    # "flips" when it changes the store's answer for that word,
    # including the first write over the cold default.
    hit_last_loads = flips = 0
    # Per-set FSM registers (sticky_levels == 1 throughout).  The store
    # is touched only on replacement decisions, so the dict costs scale
    # with conflict traffic, not trace length.
    resident = resident_key = -1
    sticky = 0
    hit_last = False
    for word, key, length, starts_set in zip(
        run_words, run_keys, lengths.tolist(), new_set.tolist()
    ):
        if starts_set:
            resident = -1
            sticky = 0
            hit_last = False
        if word == resident:
            # k hits: each refreshes sticky and sets the hl copy.
            hits += length
            sticky = 1
            hit_last = True
        elif resident < 0:
            # Cold set: allocate, then k-1 hits.
            cold += 1
            hits += length - 1
            resident, resident_key = word, key
            sticky = 1
            hit_last = True
        elif sticky == 0:
            # Unsticky resident: replace (write back its hl copy) with
            # the optimistic hl=1 start, then k-1 hits.
            if bits_get(resident_key, default_hit_last) != hit_last:
                flips += 1
            bits[resident_key] = hit_last
            evictions += 1
            hits += length - 1
            resident, resident_key = word, key
            sticky = 1
            hit_last = True
        elif bits_get(key, default_hit_last):
            # Sticky resident loses to a hit-last word: replace with the
            # pessimistic hl=0 start; any repeat is a hit (hl back to 1).
            hit_last_loads += 1
            if bits_get(resident_key, default_hit_last) != hit_last:
                flips += 1
            bits[resident_key] = hit_last
            evictions += 1
            resident, resident_key = word, key
            sticky = 1
            if length > 1:
                hits += length - 1
                hit_last = True
            else:
                hit_last = False
        else:
            # Sticky resident wins: bypass and clear the sticky bit.  A
            # repeat then replaces (sticky exhausted) and the rest hit.
            bypasses += 1
            sticky = 0
            if length > 1:
                if bits_get(resident_key, default_hit_last) != hit_last:
                    flips += 1
                bits[resident_key] = hit_last
                evictions += 1
                hits += length - 2
                resident, resident_key = word, key
                sticky = 1
                hit_last = True
    ExclusionEvents(
        sticky_saves=bypasses,
        hit_last_loads=hit_last_loads,
        exclusion_flips=flips,
    ).publish(trace.name, engine="fast")
    return _stats(len(trace), hits, cold, evictions, bypasses)


def simulate_belady(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Belady-with-bypass over set-partitioned, run-compressed groups.

    Models :class:`~repro.caches.optimal.OptimalCache` (and therefore
    :class:`~repro.caches.optimal.OptimalDirectMappedCache`) at any
    associativity.

    Run compression is exact here because a run of ``k > 1`` identical
    references can never bypass: the incoming line's next use is the
    run's own second element, while every resident line of the set is
    next referenced only *after* the run ends (a line maps to exactly
    one set, and the run is consecutive in the set's subsequence), so
    the keep-sooner rule always installs the incoming line.  The
    ``k - 1`` following references are then hits whose only effect is
    to advance the stored next-use time.

    The keep-sooner comparisons only ever rank next-use times of lines
    in the *same* set, and within one set the global reference order is
    the group order is the run order — so the greedy rule is computed in
    **run coordinates**: the next-use array is built vectorised over the
    compressed run words (:func:`~repro.caches.optimal.next_use_array`,
    an argsort over the runs instead of the reference's per-reference
    Python dict scan), and a run whose length exceeds 1 is its own
    "immediate" next use.  This is order-isomorphic to the reference's
    global positions, so every decision — including NEVER-vs-NEVER
    victim ties, which Python's insertion-ordered ``max`` resolves the
    same way in both simulators — is identical.
    """
    words, lengths, new_set = _runs(trace, geometry)
    # Next run referencing the same word; a word belongs to exactly one
    # set, so this is automatically per-set.
    run_next = next_use_array(words).tolist()
    run_words = words.tolist()
    run_new_set = new_set.tolist()
    # Runs longer than one reference re-reference their word immediately
    # and therefore always install (see above).
    run_immediate = (lengths > 1).tolist()

    # Every run contributes length-1 hits except a fully-hitting run,
    # which contributes one more, and a bypassed run (always length 1),
    # which contributes length-1 = 0.  So only the run *classification*
    # is tracked in the loop.
    hit_runs = cold = evictions = bypasses = 0
    if geometry.associativity == 1:
        resident = -1
        resident_next = NEVER
        for word, nxt, starts_set, immediate in zip(
            run_words, run_next, run_new_set, run_immediate
        ):
            if starts_set:
                resident = -1
            if word == resident:
                hit_runs += 1
                resident_next = nxt
            elif resident < 0:
                cold += 1
                resident = word
                resident_next = nxt
            elif immediate or nxt < resident_next:
                evictions += 1
                resident = word
                resident_next = nxt
            else:
                bypasses += 1
    else:
        ways = geometry.associativity
        # One line -> next-use dict per set.  The dict sees the same
        # insert/delete sequence as the reference simulator's per-set
        # dict, so ``max`` resolves victim ties to the same line.
        content: "dict[int, int]" = {}
        for word, nxt, starts_set, immediate in zip(
            run_words, run_next, run_new_set, run_immediate
        ):
            if starts_set:
                content = {}
            if word in content:
                hit_runs += 1
                content[word] = nxt
            elif len(content) < ways:
                cold += 1
                content[word] = nxt
            else:
                victim = max(content, key=content.__getitem__)
                if immediate or nxt < content[victim]:
                    del content[victim]
                    evictions += 1
                    content[word] = nxt
                else:
                    bypasses += 1
    n = len(trace)
    return _stats(n, n - len(run_words) + hit_runs, cold, evictions, bypasses)


def simulate_lru(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Set-associative LRU simulation over run-compressed set groups.

    Models :class:`~repro.caches.set_associative.SetAssociativeCache`
    with the ``lru`` policy at any associativity.  Each set's recency
    stack is an insertion-ordered dict (least recently used first): a
    hit deletes and reinserts the line (O(1) move-to-back), a fill
    appends, and the victim is the first key.  LRU always allocates, so
    every run installs its line on the first reference and the rest of
    the run hits.
    """
    run_words, run_lengths, run_new_set = (a.tolist() for a in _runs(trace, geometry))

    ways = geometry.associativity
    hits = cold = evictions = 0
    recency: "dict[int, None]" = {}
    for word, length, starts_set in zip(run_words, run_lengths, run_new_set):
        if starts_set:
            recency = {}
        if word in recency:
            hits += length
            del recency[word]
            recency[word] = None
        else:
            if len(recency) < ways:
                cold += 1
            else:
                del recency[next(iter(recency))]
                evictions += 1
            recency[word] = None
            hits += length - 1
    return _stats(len(trace), hits, cold, evictions)


def simulate_set_associative_exclusion(
    trace: Trace, geometry: CacheGeometry, default_hit_last: bool = True
) -> CacheStats:
    """Set-associative dynamic exclusion over run-compressed set groups.

    Models :class:`~repro.core.set_assoc_exclusion.SetAssociativeExclusionCache`
    with ``sticky_levels=1`` and a fresh
    :class:`~repro.core.hitlast.IdealHitLastStore` (cold value
    ``default_hit_last``) at any associativity.  Each set is a dict
    from resident word to its hit-last copy, least recently used first,
    as in :func:`simulate_lru`: the LRU way is the first key.  Every way
    is sticky except possibly the LRU one, because only a bypass clears
    a sticky bit, a bypass clears the LRU way's and leaves the order
    alone, and every touch sets the touched way's sticky bit.  So one
    word per set, ``unsticky``, carries the sticky state.  Runs follow
    :func:`simulate_dynamic_exclusion`: a bypass leaves the LRU way
    unsticky, so a run's second reference replaces it.  At
    associativity 1 the result equals that kernel's.
    """
    run_words, run_lengths, run_new_set = (a.tolist() for a in _runs(trace, geometry))

    ways = geometry.associativity
    bits: "dict[int, bool]" = {}
    bits_get = bits.get
    hits = cold = evictions = bypasses = 0
    content: "dict[int, bool]" = {}
    unsticky = -1
    for word, length, starts_set in zip(run_words, run_lengths, run_new_set):
        if starts_set:
            content = {}
            unsticky = -1
        if word in content:
            # k hits: move to MRU, sticky, hl copy set.
            hits += length
            del content[word]
            content[word] = True
            if word == unsticky:
                unsticky = -1
        elif len(content) < ways:
            # Empty way: fill, then k-1 hits.
            cold += 1
            hits += length - 1
            content[word] = True
        else:
            victim = next(iter(content))
            if victim == unsticky:
                # Unsticky LRU way: replace with the optimistic hl=1.
                bits[victim] = content.pop(victim)
                evictions += 1
                hits += length - 1
                content[word] = True
                unsticky = -1
            elif bits_get(word, default_hit_last):
                # Hit-last gate: replace with hl=0; a repeat hits.
                bits[victim] = content.pop(victim)
                evictions += 1
                hits += length - 1
                content[word] = length > 1
            else:
                # Sticky LRU way wins: bypass and clear its sticky bit;
                # a repeat then replaces it and the rest hit.
                bypasses += 1
                if length > 1:
                    bits[victim] = content.pop(victim)
                    evictions += 1
                    hits += length - 2
                    content[word] = True
                else:
                    unsticky = victim
    return _stats(len(trace), hits, cold, evictions, bypasses)


def simulate_two_level(
    trace: Trace,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    strategy: "Strategy | str",
    hashed_bits_per_line: int = 4,
) -> TwoLevelResult:
    """Set-partitioned, run-compressed two-level hierarchy simulation.

    Models a cold :class:`~repro.hierarchy.two_level.TwoLevelCache` of
    any strategy with ``sticky_levels=1`` and equal L1 and L2 line
    sizes.  An L2 line is then an L1 line, and L2 has a multiple of
    L1's sets, so every L2 set holds lines of one L1 set only; so does
    every hashed-table slot (the table has at least one bit per L1
    set) and every per-word hit-last bit.  Each L1 set group therefore
    runs alone, against L2 tags and bits that no other group touches.

    Within a group, a run of ``k`` references to one word costs at most
    two L1-miss steps: a step that installs the word leaves ``k - 1``
    L1 hits, and a bypass clears the sticky bit, so the run's second
    reference replaces.  Each step follows the reference's order: the
    L1 FSM reads and writes the hit-last store against the L2 contents
    *before* this reference's L2 access, then L2 is accessed, then an
    exclusive L2 takes the bypassed word or the L1 victim (a bypass
    step precedes the replacing step, so within a run the bypassed
    word is installed before the victim).  Installs count nothing, and
    an exclusive L2's no-allocate misses count as bypasses.  L2-backed
    bits die with their L2 line.  No ``fsm.*`` events are published,
    matching the reference hierarchy.
    """
    strategy = Strategy(strategy)
    if l1_geometry.line_size != l2_geometry.line_size:
        raise ValueError("the two-level kernel requires equal L1 and L2 line sizes")
    _require_direct_mapped(l1_geometry)
    _require_direct_mapped(l2_geometry)
    run_words, run_lengths, run_new_set = (
        a.tolist() for a in _runs(trace, l1_geometry)
    )

    exclusion = strategy.uses_exclusion
    exclusive = strategy.exclusive_l2
    l2_backed = strategy in (Strategy.ASSUME_HIT, Strategy.ASSUME_MISS)
    # Assume-hit drops write-backs of words whose L2 line is absent.
    guarded = strategy is Strategy.ASSUME_HIT
    default = strategy is not Strategy.ASSUME_MISS
    bit_mask = -1  # per-word bits; the hashed table keeps the low bits
    if strategy is Strategy.HASHED:
        bit_mask = l1_geometry.num_lines * hashed_bits_per_line - 1
    l2_mask = l2_geometry.num_sets - 1
    bits: "dict[int, bool]" = {}
    bits_get = bits.get
    tags: "dict[int, int]" = {}  # L2 set index -> resident line
    tags_get = tags.get
    hits = cold = evictions = bypasses = 0
    l2_hits = l2_cold = l2_evictions = l2_bypasses = 0
    resident = -1
    sticky = hit_last = False
    for word, left, starts_set in zip(run_words, run_lengths, run_new_set):
        if starts_set:
            resident = -1
            sticky = hit_last = False
        if word == resident:
            hits += left
            sticky = hit_last = True
            continue
        while left:
            left -= 1
            bypassed = False
            victim = -1
            if resident < 0:
                cold += 1
                resident = word
                sticky = hit_last = True
            elif exclusion and sticky and not (
                bits_get(word & bit_mask, default)
                if not l2_backed or tags_get(word & l2_mask) == word
                else default
            ):
                sticky = False
                bypasses += 1
                bypassed = True
            else:
                if exclusion and (
                    not guarded or tags_get(resident & l2_mask) == resident
                ):
                    bits[resident & bit_mask] = hit_last
                evictions += 1
                victim = resident
                resident = word
                # A hit-last load over a sticky resident starts at 0.
                hit_last = not sticky
                sticky = True
            index = word & l2_mask
            held = tags_get(index)
            if held == word:
                l2_hits += 1
            elif exclusive:
                l2_bypasses += 1
            else:
                tags[index] = word
                if held is None:
                    l2_cold += 1
                else:
                    l2_evictions += 1
                    if l2_backed:
                        bits.pop(held, None)
            if exclusive:
                moved = word if bypassed else victim
                if moved >= 0:
                    index = moved & l2_mask
                    held = tags_get(index)
                    tags[index] = moved
                    if l2_backed and held is not None and held != moved:
                        bits.pop(held, None)
            if not bypassed:
                if left:
                    hits += left
                    hit_last = True
                break
    l1 = _stats(len(trace), hits, cold, evictions, bypasses)
    l2 = _stats(l1.misses, l2_hits, l2_cold, l2_evictions, l2_bypasses)
    return TwoLevelResult(strategy=strategy, l1=l1, l2=l2)
