"""Per-layer metrics of one traced iteration, from its spans, the
per-packet aggregates and the counters the program already returns."""

from __future__ import annotations

from typing import Dict, List, Sequence

from perfbench.stats import median, percentile
from perfbench.tracing import HotStats, Span, layer_of, self_times

#: Every per-layer metric with its unit, in report order.  Layers a
#: workload never reaches report 0.
PER_LAYER = (
    ("profiler.replays", "count"),
    ("profiler.replay_s", "s"),
    ("profiler.packets", "count"),
    ("sim.pps", "1/s"),
    ("sim.cache_hit_rate", "ratio"),
    ("sim.cache_invalidations", "count"),
    ("fastpath.specialize_calls", "count"),
    ("fastpath.specialize_s", "s"),
    ("fastpath.batch_s", "s"),
    ("fastpath.closures", "count"),
    ("fastpath.closure_s", "s"),
    ("target.compiles", "count"),
    ("target.compile_s", "s"),
    ("session.compile_calls", "count"),
    ("session.compile_executions", "count"),
    ("session.profile_calls", "count"),
    ("session.profile_executions", "count"),
    ("session.memo_hit_rate", "ratio"),
    ("session.disk_hit_rate", "ratio"),
    ("passes.dependencies_s", "s"),
    ("passes.memory_s", "s"),
    ("passes.offload_s", "s"),
    ("passes.profile_s", "s"),
    ("store.loads", "count"),
    ("store.load_s", "s"),
    ("store.load_hit_rate", "ratio"),
    ("store.writes", "count"),
    ("store.write_s", "s"),
    ("store.bytes", "bytes"),
    ("store.errors", "count"),
    ("lease.claims", "count"),
    ("lease.waits", "count"),
    ("lease.wait_s", "s"),
    ("lease.wait_hits", "count"),
    ("lease.reaped", "count"),
    ("fleet.switch_s", "s"),
    ("fleet.critical_switch_s", "s"),
    ("fleet.worker_idle_share", "ratio"),
    ("fleet.probe_executions", "count"),
    ("fleet.disk_reuse_rate", "ratio"),
    ("sim.serve_process_us", "us"),
    ("online.process_us", "us"),
    ("online.alerts", "count"),
    ("online.reoptimize_s", "s"),
    ("equivalence.gate_s", "s"),
    ("serve.swap_ms", "ms"),
    ("serve.reoptimizations", "count"),
    ("serve.swaps", "count"),
    ("serve.rejected_promotions", "count"),
    ("serve.alerts_coalesced", "count"),
    ("serve.lateness_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)

#: Pass labels (``Phase`` names) -> metric names.
PASS_METRICS = {
    "passes.remove_dependencies": "passes.dependencies_s",
    "passes.reduce_memory": "passes.memory_s",
    "passes.offload_code": "passes.offload_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _named(spans: Sequence[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def _total(spans: Sequence[Span]) -> float:
    return sum(s.duration for s in spans)


def _median_or_zero(values: Sequence[float]) -> float:
    return median(values) if values else 0.0


def layer_metrics(
    spans: Sequence[Span],
    hot: Dict[str, HotStats],
    samples: Dict[str, list],
    overhead_share: float,
) -> Dict[str, float]:
    m: Dict[str, float] = {name: 0 for name, _unit in PER_LAYER}

    replays = _named(spans, "profiler.run")
    m["profiler.replays"] = len(replays)
    m["profiler.replay_s"] = _total(replays)
    m["profiler.packets"] = sum(s.attrs["packets"] for s in replays)
    m["sim.pps"] = _ratio(m["profiler.packets"], m["profiler.replay_s"])
    hits = sum(s.attrs["cache_hits"] for s in replays)
    misses = sum(s.attrs["cache_misses"] for s in replays)
    m["sim.cache_hit_rate"] = _ratio(hits, hits + misses)
    m["sim.cache_invalidations"] = sum(
        s.attrs["cache_invalidations"] for s in replays
    )

    specialize = _named(spans, "fastpath.specialize")
    m["fastpath.specialize_calls"] = len(specialize)
    m["fastpath.specialize_s"] = _total(specialize)
    m["fastpath.batch_s"] = _total(_named(spans, "fastpath.batch"))
    if "fastpath.closure" in hot:
        m["fastpath.closures"] = hot["fastpath.closure"].count
        m["fastpath.closure_s"] = hot["fastpath.closure"].total

    compiles = _named(spans, "target.compile")
    m["target.compiles"] = len(compiles)
    m["target.compile_s"] = _total(compiles)

    counters: Dict[str, int] = {}
    for snapshot in samples.get("session", []):
        for key, value in snapshot.items():
            counters[key] = counters.get(key, 0) + value
    for fleet in samples.get("fleet", []):
        for switch in fleet.switches:
            snapshot = switch.result.session_counters.as_dict()
            for key, value in snapshot.items():
                counters[key] = counters.get(key, 0) + value
    calls = counters.get("compile_calls", 0) + counters.get("profile_calls", 0)
    for key in ("compile_calls", "compile_executions", "profile_calls",
                "profile_executions"):
        m[f"session.{key}"] = counters.get(key, 0)
    m["session.memo_hit_rate"] = _ratio(
        counters.get("compile_hits", 0) + counters.get("profile_hits", 0),
        calls,
    )
    m["session.disk_hit_rate"] = _ratio(
        counters.get("compile_disk_hits", 0)
        + counters.get("profile_disk_hits", 0),
        calls,
    )

    pass_total = 0.0
    for label, metric in PASS_METRICS.items():
        m[metric] = _total(_named(spans, label))
        pass_total += m[metric]
    m["passes.profile_s"] = _total(_named(spans, "switch.execute")) - pass_total

    loads = _named(spans, "store.load")
    m["store.loads"] = len(loads)
    m["store.load_s"] = _total(loads)
    m["store.load_hit_rate"] = _ratio(
        sum(1 for s in loads if s.attrs["hit"]), len(loads)
    )
    writes = _named(spans, "store.write")
    m["store.writes"] = len(writes)
    m["store.write_s"] = _total(writes)
    m["store.bytes"] = sum(s.attrs["bytes"] for s in writes)
    claims = _named(spans, "lease.claim")
    m["lease.claims"] = sum(1 for s in claims if s.attrs["won"])
    waits = _named(spans, "lease.wait")
    m["lease.waits"] = len(waits)
    m["lease.wait_s"] = _total(waits)
    m["lease.wait_hits"] = sum(1 for s in waits if s.attrs["hit"])
    for fleet in samples.get("fleet", []):
        for switch in fleet.switches:
            stats = switch.result.store_stats or {}
            store_counters = stats.get("counters", {})
            m["store.errors"] += (
                store_counters.get("errors", 0)
                + store_counters.get("quarantined", 0)
            )
            m["lease.reaped"] += store_counters.get("leases_reaped", 0)

    fleets = samples.get("fleet", [])
    if fleets:
        cold = fleets[0]  # the traced iteration's cold run
        busy = [switch.seconds for switch in cold.switches]
        agg = cold.aggregate()
        m["fleet.switch_s"] = sum(busy)
        m["fleet.critical_switch_s"] = max(busy)
        m["fleet.worker_idle_share"] = 1.0 - _ratio(
            sum(busy), cold.wall_seconds * cold.workers
        )
        m["fleet.probe_executions"] = agg["probe_executions"]
        m["fleet.disk_reuse_rate"] = agg["disk_reuse_rate"]

    if "serve.packet" in hot:
        m["sim.serve_process_us"] = hot["sim.serve_process"].mean_us()
        m["online.process_us"] = hot["online.process"].mean_us()
    m["online.reoptimize_s"] = _median_or_zero(
        [s.duration for s in _named(spans, "online.reoptimize")]
    )
    m["equivalence.gate_s"] = _median_or_zero(
        [s.duration for s in _named(spans, "equivalence.gate")]
    )
    m["serve.swap_ms"] = _median_or_zero(
        [s.duration * 1e3 for s in _named(spans, "serve.swap")]
    )
    for stats in samples.get("serve", []):
        m["online.alerts"] += stats.drift_alerts + stats.combination_alerts
        m["serve.reoptimizations"] += stats.reoptimizations
        m["serve.swaps"] += stats.swaps
        m["serve.rejected_promotions"] += stats.rejected_promotions
        m["serve.alerts_coalesced"] += stats.alerts_coalesced
    if samples.get("lateness_s"):
        m["serve.lateness_ms"] = percentile(samples["lateness_s"], 99) * 1e3

    m["trace.overhead_share"] = overhead_share
    return m


def root_of(spans: Sequence[Span]) -> Dict[int, int]:
    """Each span's outermost ancestor."""
    parent = {s.sid: s.parent for s in spans}
    roots: Dict[int, int] = {}
    for sid in parent:
        node = sid
        while parent.get(node) is not None and parent[node] in parent:
            node = parent[node]
        roots[sid] = node
    return roots


def self_time_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds each layer spent in its own code (children excluded)."""
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span.name)
        layers[layer] = layers.get(layer, 0.0) + own[span.sid]
    return layers
