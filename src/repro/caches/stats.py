"""Hit/miss accounting shared by every cache simulator."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters accumulated by a cache over a simulation.

    ``bypasses`` counts misses where the fetched line was deliberately
    *not* stored (dynamic exclusion or optimal bypass); they are a subset
    of ``misses``.  ``buffer_hits`` counts references satisfied by an
    auxiliary structure (last-line buffer, victim cache, stream buffer)
    and are a subset of ``hits``.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    buffer_hits: int = 0
    cold_misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0.0 for an untouched cache)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Hits per access."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two stats objects."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            bypasses=self.bypasses + other.bypasses,
            evictions=self.evictions + other.evictions,
            buffer_hits=self.buffer_hits + other.buffer_hits,
            cold_misses=self.cold_misses + other.cold_misses,
        )

    def check(self) -> None:
        """Assert the internal consistency invariants."""
        if self.hits + self.misses != self.accesses:
            raise AssertionError(
                f"hits({self.hits}) + misses({self.misses}) != accesses({self.accesses})"
            )
        if self.bypasses > self.misses:
            raise AssertionError("bypasses cannot exceed misses")
        if self.buffer_hits > self.hits:
            raise AssertionError("buffer hits cannot exceed hits")
        if self.cold_misses > self.misses:
            raise AssertionError("cold misses cannot exceed misses")


@dataclass
class ExclusionEvents:
    """Paper-mechanism event counts for one dynamic-exclusion run.

    These sit *beside* :class:`CacheStats` (never inside it — the stats
    shape is part of the serialisation/golden contract) and name the
    Figure 1 FSM activity the paper's argument rests on:

    * ``sticky_saves`` — bypasses where the sticky resident won the
      conflict (FSM row 5): each is one eviction the mechanism avoided;
    * ``hit_last_loads`` — evictions of a *sticky* resident forced
      because the incoming word's hit-last bit was set (row 4);
    * ``exclusion_flips`` — hit-last write-backs that changed the
      store's answer for that word (including the first write over the
      cold default): the store actually learning, as opposed to
      re-confirming.

    Both engines publish the same counts per (benchmark, engine) to the
    obs metrics registry via :meth:`publish`, which is how the fast
    kernels are checked against the reference cache mechanism-for-
    mechanism, not just miss-rate-for-miss-rate.
    """

    sticky_saves: int = 0
    hit_last_loads: int = 0
    exclusion_flips: int = 0

    def since(self, earlier: "ExclusionEvents") -> "ExclusionEvents":
        """The events counted after ``earlier``, a copy of these taken then."""
        return ExclusionEvents(
            sticky_saves=self.sticky_saves - earlier.sticky_saves,
            hit_last_loads=self.hit_last_loads - earlier.hit_last_loads,
            exclusion_flips=self.exclusion_flips - earlier.exclusion_flips,
        )

    def as_dict(self) -> dict:
        return {
            "sticky_saves": self.sticky_saves,
            "hit_last_loads": self.hit_last_loads,
            "exclusion_flips": self.exclusion_flips,
        }

    def publish(self, benchmark: "str | None", engine: str) -> None:
        """Fold these counts into the obs metrics registry."""
        from ..obs import metrics as obs_metrics

        labels = {"benchmark": benchmark or "<unnamed>", "engine": engine}
        obs_metrics.counter("fsm.sticky_saves", self.sticky_saves, **labels)
        obs_metrics.counter("fsm.hit_last_loads", self.hit_last_loads, **labels)
        obs_metrics.counter("fsm.exclusion_flips", self.exclusion_flips, **labels)


@dataclass(frozen=True)
class SimulationResult:
    """A finished simulation: the configuration label plus its stats."""

    label: str
    stats: CacheStats
    trace_name: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate


def percent_reduction(baseline: float, improved: float) -> float:
    """Relative miss-rate reduction, in percent (positive = better).

    Matches the paper's "percentage reduction from the normal
    direct-mapped cache miss rate".

    A zero baseline with a zero improved rate is a genuine "no change"
    (0.0); a zero baseline with a nonzero improved rate is a regression
    whose relative size is undefined, and silently reporting "no
    change" would hide it — that case raises :class:`ValueError`.
    """
    if baseline == 0.0:
        if improved == 0.0:
            return 0.0
        raise ValueError(
            f"percent reduction from a 0.0 baseline is undefined "
            f"(improved miss rate is {improved!r}, a regression)"
        )
    return 100.0 * (baseline - improved) / baseline
