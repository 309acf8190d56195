"""Gateway observability: ring-buffer time series + Prometheus exposition.

Two collectors feed the ``/metrics`` and ``/v1/stats`` endpoints:

* :class:`LatencyWindow` — a bounded reservoir of recent request latencies,
  kept per label (per tenant and per priority class), from which p50/p95 are
  computed on demand.  The service itself only tracks mean/max; percentiles
  are a gateway concern because only the gateway sees per-tenant identity.
* :class:`StatsSampler` — a daemon thread that snapshots
  ``CompileService.stats()`` every ``interval`` seconds into a ring buffer
  (`deque(maxlen=...)`), giving ``/v1/stats`` a queue-depth / worker-count /
  hit-rate time series without any external metrics stack.

:func:`render_prometheus` serialises both (plus the tenant and fair-share
counters) in the Prometheus text exposition format, so a real deployment can
scrape the gateway directly.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import deque

__all__ = ["LatencyWindow", "StatsSampler", "render_prometheus", "quantile"]


def quantile(samples: "list[float]", q: float) -> float:
    """Nearest-rank quantile over unsorted samples (0.0 for an empty list).

    The rank is rounded half-up via ``floor(rank + 0.5)`` — ``round()``
    would use banker's rounding (``round(0.5) == 0``), which picks the
    sample *below* the requested rank whenever ``q * (n - 1)`` lands exactly
    on ``.5`` (e.g. the median of two samples).
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(
        len(ordered) - 1, max(0, int(math.floor(q * (len(ordered) - 1) + 0.5)))
    )
    return ordered[index]


class LatencyWindow:
    """Recent request latencies, bucketed by a label (tenant, priority, ...).

    Two views over the same observations:

    * a bounded reservoir per label from which p50/p95 are computed on
      demand (:meth:`summary`) — human-friendly, but quantiles of quantiles
      cannot be aggregated by a scrape stack;
    * a cumulative histogram per label (:meth:`histogram`) with the
      Prometheus bucket convention (``le`` upper bounds, counts never
      reset), which *can* be summed across instances and turned into any
      quantile server-side.
    """

    #: histogram upper bounds in seconds (``+Inf`` is implicit)
    HISTOGRAM_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

    def __init__(self, window: int = 512):
        self.window = window
        self._buckets: dict[str, deque] = {}
        self._totals: dict[str, int] = {}
        #: label -> per-bucket counts (len(HISTOGRAM_BUCKETS) + 1 for +Inf)
        self._hist_counts: dict[str, list[int]] = {}
        self._hist_sums: dict[str, float] = {}
        self._lock = threading.Lock()

    def observe(self, label: str, seconds: float) -> None:
        with self._lock:
            bucket = self._buckets.get(label)
            if bucket is None:
                bucket = self._buckets[label] = deque(maxlen=self.window)
                self._hist_counts[label] = [0] * (len(self.HISTOGRAM_BUCKETS) + 1)
                self._hist_sums[label] = 0.0
            bucket.append(seconds)
            self._totals[label] = self._totals.get(label, 0) + 1
            self._hist_counts[label][bisect.bisect_left(self.HISTOGRAM_BUCKETS, seconds)] += 1
            self._hist_sums[label] += seconds

    def histogram(self) -> dict:
        """``{label: {buckets: [(le, cumulative_count), ...], sum, count}}``.

        Bucket counts are cumulative (every observation ``<= le``) and never
        reset, matching the Prometheus histogram exposition contract; the
        trailing ``+Inf`` bucket equals ``count``.
        """
        with self._lock:
            counts = {label: list(row) for label, row in self._hist_counts.items()}
            sums = dict(self._hist_sums)
        out: dict = {}
        for label, row in counts.items():
            cumulative = 0
            buckets = []
            for bound, count in zip(self.HISTOGRAM_BUCKETS, row):
                cumulative += count
                buckets.append((bound, cumulative))
            buckets.append((float("inf"), cumulative + row[-1]))
            out[label] = {
                "buckets": buckets,
                "sum": sums[label],
                "count": buckets[-1][1],
            }
        return out

    def summary(self) -> dict:
        """``{label: {count, p50, p95, mean}}`` over the retained window."""
        with self._lock:
            snapshot = {label: list(bucket) for label, bucket in self._buckets.items()}
            totals = dict(self._totals)
        return {
            label: {
                "count": totals[label],
                "window": len(samples),
                "p50_seconds": quantile(samples, 0.50),
                "p95_seconds": quantile(samples, 0.95),
                "mean_seconds": sum(samples) / len(samples) if samples else 0.0,
            }
            for label, samples in snapshot.items()
        }


class StatsSampler:
    """Ring-buffer time series over a ``stats()``-shaped callable."""

    def __init__(self, stats_fn, *, interval: float = 1.0, capacity: int = 600):
        self._stats_fn = stats_fn
        self.interval = interval
        self._samples: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def start(self) -> "StatsSampler":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="gateway-stats-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2)
            self._thread = None

    def sample_once(self) -> "dict | None":
        """Take one sample immediately (also what the loop calls)."""
        try:
            stats = self._stats_fn()
        except Exception:  # noqa: BLE001 - a dying service must not kill sampling
            return None
        point = {
            "time": time.time(),
            "queue_depth": stats.get("queue_depth", 0),
            "in_flight": stats.get("in_flight", 0),
            "submitted": stats.get("submitted", 0),
            "completed": stats.get("completed", 0),
            "failed": stats.get("failed", 0),
            "cache_hit_rate": stats.get("cache", {}).get("hit_rate", 0.0),
            "lane_workers": {
                name: lane.get("workers", 0)
                for name, lane in stats.get("lanes", {}).items()
            },
        }
        with self._lock:
            self._samples.append(point)
        return point

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def series(self, last: "int | None" = None) -> list[dict]:
        with self._lock:
            samples = list(self._samples)
        return samples[-last:] if last else samples


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _line(name: str, value, labels: "dict | None" = None) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items()))
        return f"{name}{{{body}}} {value}"
    return f"{name} {value}"


def render_prometheus(
    service_stats: dict,
    *,
    gateway_counters: "dict | None" = None,
    tenant_stats: "dict | None" = None,
    latency: "LatencyWindow | None" = None,
    health: "dict | None" = None,
) -> str:
    """Serialise service + gateway metrics in Prometheus text format."""
    lines: list[str] = []

    def metric(name: str, kind: str, help_text: str, rows: list[str]) -> None:
        if not rows:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(rows)

    metric(
        "repro_service_requests_total",
        "counter",
        "Requests accepted by the compile service.",
        [_line("repro_service_requests_total", service_stats.get("submitted", 0))],
    )
    metric(
        "repro_service_completed_total",
        "counter",
        "Requests resolved (including structured failures).",
        [_line("repro_service_completed_total", service_stats.get("completed", 0))],
    )
    metric(
        "repro_service_failed_total",
        "counter",
        "Requests resolved as failures (compile errors, deadline expiries).",
        [_line("repro_service_failed_total", service_stats.get("failed", 0))],
    )
    metric(
        "repro_service_queue_depth",
        "gauge",
        "Requests waiting in the scheduler and lane queues.",
        [_line("repro_service_queue_depth", service_stats.get("queue_depth", 0))],
    )
    metric(
        "repro_service_in_flight",
        "gauge",
        "Requests currently being compiled.",
        [_line("repro_service_in_flight", service_stats.get("in_flight", 0))],
    )
    cache = service_stats.get("cache", {})
    metric(
        "repro_service_cache_hit_rate",
        "gauge",
        "Service result-cache hit rate.",
        [_line("repro_service_cache_hit_rate", round(cache.get("hit_rate", 0.0), 6))],
    )
    lanes = service_stats.get("lanes", {})
    metric(
        "repro_service_lane_workers",
        "gauge",
        "Live worker threads per backend lane.",
        [
            _line("repro_service_lane_workers", lane.get("workers", 0), {"lane": name})
            for name, lane in sorted(lanes.items())
        ],
    )
    metric(
        "repro_service_lane_queue_depth",
        "gauge",
        "Queued requests per backend lane.",
        [
            _line(
                "repro_service_lane_queue_depth", lane.get("queue_depth", 0), {"lane": name}
            )
            for name, lane in sorted(lanes.items())
        ],
    )
    profiling = service_stats.get("profiling", {})
    if profiling.get("enabled"):
        counters = profiling.get("counters", {})
        metric(
            "repro_service_hotpath_seconds_total",
            "counter",
            "Wall time spent per profiled site: pass, kernel, gateway decode/encode "
            "(requires --profile).",
            [
                _line(
                    "repro_service_hotpath_seconds_total",
                    round(entry.get("total_seconds", 0.0), 6),
                    {"site": name},
                )
                for name, entry in sorted(counters.items())
            ],
        )
        metric(
            "repro_service_hotpath_calls_total",
            "counter",
            "Invocations per profiled site: pass, kernel, gateway decode/encode "
            "(requires --profile).",
            [
                _line(
                    "repro_service_hotpath_calls_total",
                    entry.get("calls", 0),
                    {"site": name},
                )
                for name, entry in sorted(counters.items())
            ],
        )
        metric(
            "repro_service_hotpath_items_total",
            "counter",
            "Work items (gates, circuits) processed per profiled site.",
            [
                _line(
                    "repro_service_hotpath_items_total",
                    entry.get("items", 0),
                    {"site": name},
                )
                for name, entry in sorted(counters.items())
                if entry.get("items", 0)
            ],
        )
    if health is not None:
        metric(
            "repro_gateway_ready",
            "gauge",
            "1 while the gateway accepts new work, 0 while draining/stopped.",
            [_line("repro_gateway_ready", 1 if health.get("status") == "ok" else 0)],
        )
    for name, value in sorted((gateway_counters or {}).items()):
        metric(
            f"repro_gateway_{name}_total",
            "counter",
            f"Gateway counter: {name.replace('_', ' ')}.",
            [_line(f"repro_gateway_{name}_total", value)],
        )
    tenant_rows_served = []
    tenant_rows_limited = []
    for name, entry in sorted((tenant_stats or {}).items()):
        tenant_rows_served.append(
            _line("repro_gateway_tenant_served_total", entry["served"], {"tenant": name})
        )
        tenant_rows_limited.append(
            _line(
                "repro_gateway_tenant_rate_limited_total",
                entry["rate_limited"],
                {"tenant": name},
            )
        )
    metric(
        "repro_gateway_tenant_served_total",
        "counter",
        "Accepted compile submissions per tenant.",
        tenant_rows_served,
    )
    metric(
        "repro_gateway_tenant_rate_limited_total",
        "counter",
        "429 responses per tenant.",
        tenant_rows_limited,
    )
    if latency is not None:
        rows = []
        for label, entry in sorted(latency.summary().items()):
            for q_name, q_value in (("0.5", entry["p50_seconds"]), ("0.95", entry["p95_seconds"])):
                rows.append(
                    _line(
                        "repro_gateway_request_latency_quantile_seconds",
                        round(q_value, 6),
                        {"label": label, "quantile": q_name},
                    )
                )
        metric(
            "repro_gateway_request_latency_quantile_seconds",
            "gauge",
            "Recent request latency quantiles per tenant / priority class "
            "(windowed; not aggregatable — prefer the histogram).",
            rows,
        )
        # The aggregatable view: cumulative histogram buckets a scrape stack
        # can sum across gateway instances and re-quantile server-side.
        hist_rows = []
        for label, entry in sorted(latency.histogram().items()):
            for bound, count in entry["buckets"]:
                le = "+Inf" if math.isinf(bound) else format(bound, "g")
                hist_rows.append(
                    _line(
                        "repro_gateway_request_latency_seconds_bucket",
                        count,
                        {"label": label, "le": le},
                    )
                )
            hist_rows.append(
                _line(
                    "repro_gateway_request_latency_seconds_sum",
                    round(entry["sum"], 6),
                    {"label": label},
                )
            )
            hist_rows.append(
                _line(
                    "repro_gateway_request_latency_seconds_count",
                    entry["count"],
                    {"label": label},
                )
            )
        metric(
            "repro_gateway_request_latency_seconds",
            "histogram",
            "Request latency per tenant / priority class (cumulative buckets).",
            hist_rows,
        )
    return "\n".join(lines) + "\n"
