"""Process-local metric registry: counters, gauges, histograms.

The observability layer's second leg (the first is the span tracer in
:mod:`repro.obs.tracer`).  A :class:`MetricRegistry` is a plain,
process-local name -> instrument map with no background threads, no
global state, and no export dependencies; callers read it out as a JSON
document (:meth:`MetricRegistry.as_dict`) or as Prometheus text
exposition (:meth:`MetricRegistry.render_prometheus`).

Metric names follow the ``subsystem_quantity`` convention used across
the run ledger (``oracle_calls``, ``gate_units``, ``marked_cache_hits``,
``resilience_attempts``, ``perf_masks_scanned``, ...) so a ledger's
span totals and the registry's counters describe the same quantities
under the same names.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]

#: Default histogram bucket upper bounds (``+inf`` is implicit).
_DEFAULT_BUCKETS = (0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
                    2.5, 5.0, 10.0, 100.0, 1_000.0, 10_000.0)


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without the ``.0``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max.

    Buckets are upper bounds (``le`` semantics, Prometheus style); the
    implicit ``+inf`` bucket catches everything.
    """

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else _DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram buckets must be ascending, got {bounds}")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def mean(self) -> float | None:
        return self.total / self.count if self.count else None


class MetricRegistry:
    """Name -> instrument map; one per traced run (or per process).

    ``counter``/``gauge``/``histogram`` get-or-create by name, so
    instrumented code never has to pre-register anything.  Asking for an
    existing name with a different instrument kind is an error — that is
    always an accounting bug, never a feature.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get(self, name: str, kind: type, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, help, buckets))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """All counter values by name (the slice the ledger reconciles)."""
        return {
            name: m.value
            for name, m in sorted(self._metrics.items())
            if isinstance(m, Counter)
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot of every instrument."""
        out: dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, m in sorted(self._metrics.items()):
            if isinstance(m, Counter):
                out["counters"][name] = m.value
            elif isinstance(m, Gauge):
                out["gauges"][name] = m.value
            else:
                out["histograms"][name] = {
                    "count": m.count,
                    "sum": m.total,
                    "min": None if m.count == 0 else m.min,
                    "max": None if m.count == 0 else m.max,
                    "buckets": {
                        _format_value(b): c
                        for b, c in zip(m.buckets, m.bucket_counts)
                    } | {"+Inf": m.bucket_counts[-1]},
                }
        return out

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition format (one block per metric)."""
        lines: list[str] = []
        for name, m in sorted(self._metrics.items()):
            full = prefix + name
            if m.help:
                lines.append(f"# HELP {full} {m.help}")
            if isinstance(m, Counter):
                lines.append(f"# TYPE {full} counter")
                lines.append(f"{full}_total {_format_value(m.value)}")
            elif isinstance(m, Gauge):
                lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {_format_value(m.value)}")
            else:
                lines.append(f"# TYPE {full} histogram")
                cumulative = 0
                for bound, count in zip(m.buckets, m.bucket_counts):
                    cumulative += count
                    lines.append(
                        f'{full}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                    )
                lines.append(f'{full}_bucket{{le="+Inf"}} {m.count}')
                lines.append(f"{full}_sum {_format_value(m.total)}")
                lines.append(f"{full}_count {m.count}")
        return "\n".join(lines) + ("\n" if lines else "")
