"""Property tests linking the long-line wrapper to the collapse
transform — two independent implementations of Section 6's semantics."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import IdealHitLastStore
from repro.core.long_lines import LastLineBufferCache
from repro.trace.trace import Trace
from repro.trace.transforms import collapse_sequential_lines

GEOMETRY = CacheGeometry(128, 16)

addresses = st.lists(
    st.integers(min_value=0, max_value=255).map(lambda slot: slot * 4),
    min_size=1,
    max_size=150,
)


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


@given(addrs=addresses, default=st.booleans())
@settings(max_examples=60, deadline=None)
def test_wrapper_equals_de_on_collapsed_trace(addrs, default):
    """The last-line buffer wrapper must produce exactly the misses of a
    plain DE cache fed the collapsed line-event stream."""
    trace = itrace(addrs)
    wrapped = LastLineBufferCache(
        DynamicExclusionCache(GEOMETRY, store=IdealHitLastStore(default=default))
    ).simulate(trace)
    collapsed = collapse_sequential_lines(trace, GEOMETRY.line_size)
    plain = DynamicExclusionCache(
        GEOMETRY, store=IdealHitLastStore(default=default)
    ).simulate(collapsed)
    assert wrapped.misses == plain.misses
    assert wrapped.bypasses == plain.bypasses
    assert wrapped.evictions == plain.evictions
    assert wrapped.cold_misses == plain.cold_misses
    assert wrapped.buffer_hits == len(trace) - len(collapsed)


@given(addrs=addresses)
@settings(max_examples=60, deadline=None)
def test_wrapper_around_direct_mapped_changes_nothing(addrs):
    """A conventional DM cache hits sequential words anyway, so the
    buffer must not change its miss count."""
    trace = itrace(addrs)
    wrapped = LastLineBufferCache(DirectMappedCache(GEOMETRY)).simulate(trace)
    plain = DirectMappedCache(GEOMETRY).simulate(trace)
    assert wrapped.misses == plain.misses


@given(addrs=addresses, default=st.booleans())
@settings(max_examples=60, deadline=None)
def test_wrapper_stats_consistent(addrs, default):
    trace = itrace(addrs)
    cache = LastLineBufferCache(
        DynamicExclusionCache(GEOMETRY, store=IdealHitLastStore(default=default))
    )
    stats = cache.simulate(trace)
    stats.check()
    # The inner cache saw exactly the collapsed events.
    collapsed = collapse_sequential_lines(trace, GEOMETRY.line_size)
    assert cache.inner.stats.accesses == len(collapsed)
