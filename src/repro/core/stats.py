"""Mergeable streaming sketches: O(metrics) aggregation at any fleet size.

A population study ("how does launch behaviour distribute over a sampled
fleet of devices?") must not materialise every
:class:`~repro.core.results.RunResult` the way :class:`SweepResult`
does — a thousand-device fleet would hold a thousand full profiler
snapshots just to report a handful of percentiles.  A
:class:`MetricSketch` instead folds each observation in as it arrives and
keeps only

- exact **count / mean / min / max** — the running total is kept as an
  exact rational (:class:`fractions.Fraction`), so sums are independent
  of arrival order: a process pool completing units in any order, or
  shards merged in any order, produce bit-identical totals (float
  addition would not);
- a **bottom-k hash sample** for percentiles: every observation carries a
  stable unit key (e.g. ``device 17``) and the sketch keeps the
  *capacity* observations with the smallest ``blake2b(key)`` values.
  Hashing the unit identity (never the value) makes the sample a uniform
  pseudo-random subset of the population that is *order-independent* and
  *mergeable*: the bottom-k of a union is the bottom-k of the two
  bottom-k sets, so merged shards reproduce the unsharded sketch
  byte-for-byte.  With ``count <= capacity`` the sample holds the whole
  population and percentiles are exact; beyond that they are standard
  order-statistic estimates from a uniform sample of size k (error in
  *rank* space concentrates around ``O(sqrt(q(1-q)/k))``, ~1.6 rank
  percentage points at k=1024 and the median).

:class:`SketchSet` bundles one sketch per named metric and is the
aggregation payload of a fleet run; both layers JSON-round-trip and
``merge`` across shards exactly like :class:`SweepResult` does.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Mapping as _MappingABC
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.core.results import RunResult

#: Default bottom-k sample bound: the constant in "O(metrics) memory".
DEFAULT_SAMPLE_CAPACITY = 1024


def unit_hash(key: str) -> int:
    """The stable 64-bit sampling hash of one unit key.

    Independent of process, platform and ``PYTHONHASHSEED`` (unlike
    ``hash``), so every shard ranks the same unit identically.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _fraction_to_json(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_json(text: str) -> Fraction:
    numerator, _, denominator = str(text).partition("/")
    return Fraction(int(numerator), int(denominator or "1"))


class MetricSketch:
    """Streaming summary of one metric over a population of units.

    ``add`` is the only write path; every derived statistic is a pure
    read.  All state is order-independent, so two sketches fed the same
    (key, value) observations in any order — including via shard
    :meth:`merge` — serialise to identical JSON.
    """

    __slots__ = ("capacity", "count", "total", "minimum", "maximum", "_sample")

    def __init__(self, capacity: int = DEFAULT_SAMPLE_CAPACITY) -> None:
        if capacity < 1:
            raise AnalysisError(f"sketch capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        #: Exact running sum (order-independent rational arithmetic).
        self.total = Fraction(0)
        self.minimum: float | None = None
        self.maximum: float | None = None
        #: Bottom-k by unit hash: ``(hash, key, value)``, kept sorted.
        self._sample: list[tuple[int, str, float]] = []

    # ------------------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        """Fold in one unit's observation."""
        value = float(value)
        self.count += 1
        self.total += Fraction(value)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        entry = (unit_hash(key), key, value)
        if len(self._sample) >= self.capacity and entry >= self._sample[-1]:
            return  # ranks below the retained bottom-k; never sampled
        bisect.insort(self._sample, entry)
        if len(self._sample) > self.capacity:
            self._sample.pop()

    def merge(self, other: "MetricSketch") -> None:
        """Fold another shard's sketch into this one.

        Capacities must match — the bottom-k of a union is only
        reconstructible from two bottom-k sets cut at the same k.
        """
        if other.capacity != self.capacity:
            raise AnalysisError(
                f"cannot merge sketches of capacity {self.capacity} and "
                f"{other.capacity}"
            )
        self.count += other.count
        self.total += other.total
        for extreme in (other.minimum,):
            if extreme is not None and (
                self.minimum is None or extreme < self.minimum
            ):
                self.minimum = extreme
        for extreme in (other.maximum,):
            if extreme is not None and (
                self.maximum is None or extreme > self.maximum
            ):
                self.maximum = extreme
        merged = sorted(set(self._sample) | set(other._sample))
        del merged[self.capacity:]
        self._sample = merged

    # ------------------------------------------------------------------
    # Derived statistics

    @property
    def exact(self) -> bool:
        """Whether the sample still holds the entire population (every
        percentile is exact, not an estimate)."""
        return self.count <= self.capacity

    @property
    def sample_size(self) -> int:
        return len(self._sample)

    def mean(self) -> float:
        """Exact population mean."""
        if not self.count:
            return 0.0
        return float(self.total / self.count)

    def sample_values(self) -> list[float]:
        """The sampled observations, sorted by value."""
        return sorted(value for _, _, value in self._sample)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), linearly interpolated over the
        sample (exact while :attr:`exact` holds)."""
        if not 0.0 <= q <= 100.0:
            raise AnalysisError(f"percentile must be in [0, 100], got {q}")
        values = self.sample_values()
        if not values:
            return 0.0
        rank = (len(values) - 1) * (q / 100.0)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    # ------------------------------------------------------------------
    # Serialisation

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (sample in canonical hash order, so
        equal sketches serialise to equal bytes)."""
        return {
            "capacity": self.capacity,
            "count": self.count,
            "total": _fraction_to_json(self.total),
            "min": self.minimum,
            "max": self.maximum,
            "sample": [[h, key, value] for h, key, value in self._sample],
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "MetricSketch":
        """Inverse of :meth:`to_json_dict`."""
        out = cls(capacity=int(raw["capacity"]))
        out.count = int(raw["count"])
        out.total = _fraction_from_json(raw["total"])
        out.minimum = None if raw["min"] is None else float(raw["min"])
        out.maximum = None if raw["max"] is None else float(raw["max"])
        out._sample = sorted(
            (int(h), str(key), float(value)) for h, key, value in raw["sample"]
        )
        if len(out._sample) > out.capacity:
            raise AnalysisError(
                f"sketch sample of {len(out._sample)} exceeds its declared "
                f"capacity {out.capacity}"
            )
        return out


#: A named metric over one run, e.g. ``lambda run: float(run.total_refs)``.
MetricFn = Callable[["RunResult"], float]

#: The default per-device metrics a fleet run aggregates.  All derive
#: from fields every RunResult already carries (``tlp`` and
#: ``big_refs_share`` degenerate gracefully on single-core runs; the
#: meta-derived app metrics read 0 for SPEC workloads).
FLEET_METRICS: "dict[str, MetricFn]" = {
    "total_refs": lambda run: float(run.total_refs),
    "total_instr": lambda run: float(run.total_instr),
    "total_data": lambda run: float(run.total_data),
    "threads": lambda run: float(run.thread_count()),
    "processes": lambda run: float(run.process_count()),
    "tlp": lambda run: run.tlp(),
    "big_refs_share": lambda run: 100.0 * run.big_refs_share(),
    "frames_drawn": lambda run: float(run.meta.get("frames_drawn", 0)),
    "gc_cycles": lambda run: float(run.meta.get("gc_cycles", 0)),
}


class SketchSet:
    """One :class:`MetricSketch` per named metric — the entire
    aggregation state of a streaming reduction.

    Constructed with metric callables for observing live runs; a set
    deserialised from JSON carries statistics only (it can merge and
    report, but not observe new runs).
    """

    def __init__(
        self,
        metrics: "Mapping[str, MetricFn] | Iterable[str]" = FLEET_METRICS,
        capacity: int = DEFAULT_SAMPLE_CAPACITY,
    ) -> None:
        if isinstance(metrics, _MappingABC):
            self._fns: "dict[str, MetricFn]" = dict(metrics)
            names = list(metrics)
        else:
            self._fns = {}
            names = list(metrics)
        if not names:
            raise AnalysisError("a sketch set needs at least one metric")
        self.capacity = capacity
        self.sketches: "dict[str, MetricSketch]" = {
            name: MetricSketch(capacity) for name in names
        }

    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Metric names, in declaration order."""
        return list(self.sketches)

    def observe(self, key: str, run: "RunResult") -> None:
        """Fold one run's metrics in under unit key *key*."""
        if not self._fns:
            raise AnalysisError(
                "this sketch set was deserialised without metric callables "
                "and cannot observe new runs"
            )
        for name, fn in self._fns.items():
            self.sketches[name].add(key, fn(run))

    def merge(self, other: "SketchSet") -> None:
        """Fold another shard's sketches in (metric-by-metric)."""
        if other.names() != self.names():
            raise AnalysisError(
                f"cannot merge sketch sets over different metrics "
                f"({self.names()} vs {other.names()})"
            )
        for name, sketch in self.sketches.items():
            sketch.merge(other.sketches[name])

    def __getitem__(self, name: str) -> MetricSketch:
        try:
            return self.sketches[name]
        except KeyError:
            raise AnalysisError(
                f"no sketch for metric {name!r}; "
                f"tracked: {', '.join(self.sketches)}"
            ) from None

    # ------------------------------------------------------------------
    # Serialisation

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (metric declaration order kept)."""
        return {
            "capacity": self.capacity,
            "metrics": {
                name: sketch.to_json_dict()
                for name, sketch in self.sketches.items()
            },
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "SketchSet":
        """Inverse of :meth:`to_json_dict` (statistics only — the result
        can merge and report but not observe)."""
        names = list(raw["metrics"])
        out = cls(metrics=names, capacity=int(raw["capacity"]))
        out.sketches = {
            name: MetricSketch.from_json_dict(raw["metrics"][name])
            for name in names
        }
        return out
