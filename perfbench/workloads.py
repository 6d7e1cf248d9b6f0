"""The four benchmark workloads, each driven through the public API.

Every workload builds its inputs from the seed (``setup``), runs one
*iteration* of timed jobs at a time (``iteration``), and afterwards
checks what the jobs produced against oracles outside the code path
under test (``check``).  An iteration yields samples of the one
end-to-end timing every workload shares, ``job_s``: the workload's
optimization job from a cold start — one ``P2GO.run()`` on a fresh
session (optimize workloads), one fleet run on an empty store (fleet),
or the daemon's start-up optimization, from ``run()`` to the first
packet pulled (serve).  Workload-specific figures (the warm fleet run,
the serve loop's re-optimization, packet rate and latencies) are
printed alongside under their own names by ``describe``.
"""

from __future__ import annotations

import functools
import gc
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.stats import (
    due_times, lateness, median, open_loop_latencies, percentile,
)

#: make_trace's own default seed: Table 2's 8 -> 7 -> 6 -> 3 holds there.
TABLE2_SEED = 1
TABLE2_STAGES = [8, 7, 6, 3]
TRACE_PACKETS = 4000
FABRIC_SIZE = 8
#: Per-switch trace length.  At 600 packets the enterprise switches'
#: optimization path depends on the trace seed (33 or 53 compiles); from
#: 1500 on it is the same on every seed, so seeds compare like for like.
FABRIC_PACKETS = 1500
FLEET_WORKERS = 2
#: Fleet runs on the full store after each cold run.
WARM_FLEETS = 3
SERVE_RATE = 1000.0


class Checks:
    """Counts checks made and the ones that failed, with a note each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Operations checked one by one (packets, cycles)."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.notes.append(f"FAILED: {what} ({failed} of {attempted})")


def _reference(config):
    """``config`` on the uncached reference interpreter."""
    ref = config.clone()
    ref.enable_flow_cache = False
    ref.enable_compiled_tables = False
    ref.enable_fastpath = False
    return ref


def check_equivalence(checks: Checks, original, config, result, trace,
                      label: str) -> None:
    """Optimized vs original on the reference interpreter; phase-4
    offloads are judged together with their controller."""
    from repro.controller.equivalence import (
        compare_behavior, compare_with_offload,
    )
    from repro.core.phase_offload import enumerate_candidates

    optimized = result.optimized_program
    config, opt_config = _reference(config), _reference(result.final_config)
    if not result.offloaded_tables:
        report = compare_behavior(original, config, optimized, opt_config,
                                  trace)
        checks.expect(
            report.equivalent and report.total == len(trace),
            f"{label}: optimized program misbehaves on "
            f"{len(report.mismatches)} of {report.total} packets",
        )
        return
    segments = [
        c for c in enumerate_candidates(original)
        if set(c.tables) == set(result.offloaded_tables)
    ]
    if not checks.expect(
        len(segments) == 1, f"{label}: offloaded segment not found"
    ):
        return
    report = compare_with_offload(original, config, optimized, opt_config,
                                  segments[0], trace)
    flagged = set(report.mismatches)
    dropped_on_switch = (
        _dropped_on_switch(original, config, optimized, opt_config,
                           segments[0], trace, flagged)
        if flagged else 0
    )
    if dropped_on_switch:
        checks.notes.append(
            f"note: {label}: compare_with_offload flags {dropped_on_switch} "
            "redirected packets that the optimized switch itself drops, as "
            "the original does; they count as agreeing"
        )
    checks.expect(
        report.total == len(trace) and len(flagged) == dropped_on_switch,
        f"{label}: switch + controller misbehave on "
        f"{len(flagged) - dropped_on_switch} of {report.total} packets",
    )


def _dropped_on_switch(original, config, optimized, opt_config, segment,
                       trace, flagged) -> int:
    """How many ``flagged`` packets the optimized switch drops itself
    while redirecting them, where the original drops them too and the
    controller raises the same notification.  ``compare_with_offload``
    takes only the segment-only controller's drop verdict for a
    redirected packet, so it flags these although the switch plus
    controller reproduce the original verdict."""
    from repro.controller.offload_runtime import OffloadController
    from repro.sim.switch import BehavioralSwitch

    switch_orig = BehavioralSwitch(original, config)
    switch_opt = BehavioralSwitch(optimized, opt_config)
    controller = OffloadController(original, segment, config)
    agreeing = 0
    for index, entry in enumerate(trace):
        data, port = entry if isinstance(entry, tuple) else (entry, 0)
        r_orig = switch_orig.process(data, port)
        r_opt = switch_opt.process(data, port)
        if not r_opt.to_controller:
            continue
        r_ctl = controller.handle_packet(data, port)
        if (
            index in flagged
            and r_opt.dropped and r_orig.dropped
            and r_ctl.to_controller == r_orig.to_controller
        ):
            agreeing += 1
    return agreeing


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------


class OptimizeWorkload:
    """``P2GO.run()`` on the Ex. 1 firewall, fast path pinned on or off."""

    def __init__(self, name: str, fastpath: bool):
        self.name = name
        self.fastpath = fastpath
        self.first = None
        self.outcomes = []

    def setup(self, seed: int, work: Path) -> None:
        from repro.programs import example_firewall as fw

        self.seed = seed
        self.target = fw.TARGET
        self.program = fw.build_program()
        self.config = fw.runtime_config()
        self.trace = fw.make_trace(TRACE_PACKETS, seed=seed)

    def iteration(self) -> Dict[str, list]:
        from repro.core.fleet import switch_fingerprint
        from repro.core.pipeline import P2GO

        result, seconds = _timed(lambda: P2GO(
            self.program, self.config, self.trace, self.target,
            store=False, workers=1, fastpath=self.fastpath,
        ).run())
        # Keep the first result whole for the check; the others by their
        # canonical fingerprint.
        if self.first is None:
            self.first = result
        self.outcomes.append((
            switch_fingerprint(result), result.fastpath,
            result.fastpath_reason,
        ))
        return {"job_s": [seconds],
                "session": [result.session_counters.as_dict()]}

    def check(self, checks: Checks) -> None:
        from repro.core.fleet import switch_fingerprint

        first = self.first
        reference = switch_fingerprint(first)
        for index, (fingerprint, fastpath, reason) in enumerate(
            self.outcomes
        ):
            checks.expect(
                fingerprint == reference,
                f"run {index} differs from the first run",
            )
            checks.expect(
                fastpath == self.fastpath,
                f"run {index}: fast path engaged={fastpath}, pinned "
                f"{self.fastpath} ({reason})",
            )
        stages = [s for _, s in first.stage_history()]
        if self.seed == TABLE2_SEED:
            checks.expect(
                stages == TABLE2_STAGES,
                f"Table 2 stages {stages} != {TABLE2_STAGES}",
            )
        else:
            checks.expect(
                stages[-1] < stages[0], f"no stage reclaimed: {stages}"
            )
        check_equivalence(checks, self.program, self.config, first,
                          self.trace, "optimize")

    def describe(self, samples: Dict[str, list]) -> List[Tuple]:
        return [_median_row("optimize_s", samples["job_s"], "s")]


# ----------------------------------------------------------------------


def store_entries(root: Path) -> int:
    """Entry files on disk: one per distinct probe that was executed."""
    base = root / "v1"
    return sum(
        1 for kind in ("compile", "profile")
        for path in (base / kind).glob("*.pkl")
    )


class FleetWorkload:
    """``run_fleet`` over an 8-switch fabric: cold store, then warm."""

    name = "fleet-fabric"

    def __init__(self) -> None:
        self.first = None  # the first cold FleetResult, whole
        self.runs = []  # (iteration, kind, aggregate, names, prints, entries)

    def setup(self, seed: int, work: Path) -> None:
        from repro.core.fleet import build_fabric

        self.work = work
        self.specs = build_fabric(
            FABRIC_SIZE, packets=FABRIC_PACKETS, seed=seed
        )

    def _keep(self, index: int, kind: str, fleet, root: Path) -> None:
        from repro.core.fleet import switch_fingerprint

        if self.first is None:
            self.first = fleet
        self.runs.append((
            index, kind, fleet.aggregate(),
            [s.name for s in fleet.switches],
            [switch_fingerprint(s.result) for s in fleet.switches],
            store_entries(root),
        ))

    def iteration(self) -> Dict[str, list]:
        from repro.core.fleet import run_fleet

        index = len({run[0] for run in self.runs})
        root = self.work / f"fleet-store-{index}"
        shutil.rmtree(root, ignore_errors=True)
        try:
            fleet = functools.partial(
                run_fleet, self.specs, store=str(root), workers=FLEET_WORKERS
            )
            cold, cold_s = _timed(fleet)
            self._keep(index, "cold", cold, root)
            warm_s = []
            for _ in range(WARM_FLEETS):
                warm, seconds = _timed(fleet)
                self._keep(index, "warm", warm, root)
                warm_s.append(seconds)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {"job_s": [cold_s], "warm_s": warm_s, "fleet": [cold]}

    def check(self, checks: Checks) -> None:
        reference = self.runs[0][4]
        names = [spec.name for spec in self.specs]
        for index, kind, agg, order, prints, entries in self.runs:
            label = f"iteration {index} {kind} fleet"
            checks.expect(
                order == names, f"{label}: results out of submission order"
            )
            checks.expect(
                prints == reference,
                f"{label}: per-switch results differ from the first cold "
                "run",
            )
            if kind == "cold":
                # Exactly once: every execution left one distinct entry.
                checks.expect(
                    agg["probe_executions"] == entries
                    and agg["leases_reaped"] == 0,
                    f"{label}: {agg['probe_executions']} probe executions "
                    f"for {entries} distinct probes",
                )
            else:
                checks.expect(
                    agg["probe_executions"] == 0,
                    f"{label}: {agg['probe_executions']} executions on a "
                    "full store",
                )
        # The critical switch's result, on the reference interpreter.
        spec, switch = self.specs[0], self.first.switches[0]
        check_equivalence(checks, spec.program, spec.config, switch.result,
                          spec.trace, spec.name)

    def describe(self, samples: Dict[str, list]) -> List[Tuple]:
        return [
            _median_row("fleet_cold_s", samples["job_s"], "s"),
            _median_row("fleet_warm_s", samples["warm_s"], "s"),
        ]


# ----------------------------------------------------------------------


class RecordingFeed:
    """Hands the daemon a fixed packet list and times every packet.

    Unpaced (``rate=None``) it is a closed loop: the next packet goes
    out as soon as the daemon asks.  Paced, packet ``i`` is due at
    ``start + i / rate``; a packet counts as done when the daemon asks
    for the next one, which it does only after processing it."""

    def __init__(self, packets: Sequence, rate: Optional[float] = None):
        self.trace = list(packets)
        self.rate = rate
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[float] = []

    def packets(self):
        clock = time.perf_counter
        start = clock()
        if self.rate is not None:
            self.due = due_times(start, len(self.trace), self.rate)
        for index, packet in enumerate(self.trace):
            if self.rate is not None:
                wait = self.due[index] - clock()
                if wait > 0:
                    time.sleep(wait)
            self.sent.append(clock())
            yield packet
            self.done.append(clock())

    def describe(self) -> str:
        pace = "closed loop" if self.rate is None else f"{self.rate:g} pkt/s"
        return f"recorded feed ({len(self.trace)} packets, {pace})"


def _optimizer_class():
    from repro.core.serve import ContinuousOptimizer

    class TimedOptimizer(ContinuousOptimizer):
        """Times each drift-triggered cycle that ends in a promotion."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.cycle_seconds: List[float] = []

        def _cycle(self, window):
            swaps = self.stats.swaps
            start = time.perf_counter()
            super()._cycle(window)
            if self.stats.swaps > swaps:
                self.cycle_seconds.append(time.perf_counter() - start)

    return TimedOptimizer


class ServeWorkload:
    """The continuous optimizer on the firewall drift feed, closed loop
    then open loop."""

    name = "serve-drift"

    def __init__(self) -> None:
        self.passes = []  # (loop, ServeStats, packets the feed saw done)

    def setup(self, seed: int, work: Path) -> None:
        from repro.core.serve import GeneratorFeed
        from repro.programs import example_firewall as fw

        self.target = fw.TARGET
        self.program = fw.build_program()
        self.config = fw.runtime_config()
        self.baseline = fw.make_trace(TRACE_PACKETS, seed=seed)
        self.feed = list(
            GeneratorFeed.firewall_drift(total=TRACE_PACKETS, seed=seed)
            .packets()
        )

    def _serve(self, rate: Optional[float]):
        # CLI defaults: one async re-optimization worker, window 1000,
        # tolerance 0.10, phases (2, 3); the store pinned off.
        optimizer = _optimizer_class()(
            self.program, self.config, self.baseline, self.target,
            workers=1, store=False, fastpath=False,
        )
        feed = RecordingFeed(self.feed, rate)
        gc.collect()
        start = time.perf_counter()
        result = optimizer.run(feed)
        self.passes.append(("closed" if rate is None else "open",
                            result.stats, len(feed.done)))
        return optimizer, result, feed, start

    def iteration(self) -> Dict[str, list]:
        closed, closed_result, closed_feed, closed_start = self._serve(None)
        opened, open_result, open_feed, open_start = self._serve(SERVE_RATE)
        span = closed_feed.done[-1] - closed_feed.sent[0]
        return {
            "job_s": [closed_feed.sent[0] - closed_start,
                      open_feed.sent[0] - open_start],
            # Open loop only: there the cycle always competes with the
            # same ingest load, while the closed loop's feed may end
            # mid-cycle.
            "cycle_s": opened.cycle_seconds,
            "closed_cycle_s": closed.cycle_seconds,
            "pps": [len(closed_feed.done) / span],
            "latency_s": open_loop_latencies(open_feed.due, open_feed.done),
            "lateness_s": lateness(open_feed.due, open_feed.sent),
            "serve": [closed.stats, opened.stats],
            "session": [closed_result.session_counters.as_dict(),
                        open_result.session_counters.as_dict()],
        }

    def check(self, checks: Checks) -> None:
        for loop, stats, done in self.passes:
            n = len(self.feed)
            checks.count(stats.packets_in, stats.misprocessed,
                         f"{loop} loop: misprocessed packets")
            checks.count(n, n - min(n, stats.packets_processed),
                         f"{loop} loop: packets lost")
            checks.expect(
                stats.packets_processed == stats.packets_in == n
                and done == n,
                f"{loop} loop: {stats.packets_processed} processed, "
                f"{stats.packets_in} ingested, {n} fed",
            )
            checks.count(stats.reoptimizations + stats.failed_reoptimizations,
                         stats.failed_reoptimizations,
                         f"{loop} loop: failed re-optimizations")
            checks.expect(stats.swaps >= 1, f"{loop} loop: no swap")

    def describe(self, samples: Dict[str, list]) -> List[Tuple]:
        latency_ms = [x * 1e3 for x in samples["latency_s"]]
        pace = f"open loop at {SERVE_RATE:g} pkt/s, n={len(latency_ms)}"
        return [
            _median_row("serve_startup_s", samples["job_s"], "s"),
            _median_row("serve_reoptimize_s", samples["cycle_s"], "s"),
            _median_row("serve_reoptimize_closed_s",
                        samples["closed_cycle_s"], "s"),
            _median_row("serve_pps", samples["pps"], "1/s"),
            ("serve_p50_ms", percentile(latency_ms, 50), "ms", pace),
            ("serve_p99_ms", percentile(latency_ms, 99), "ms", pace),
        ]


def _median_row(name: str, values: Sequence[float], unit: str) -> Tuple:
    # An empty sample (e.g. no promotion) already failed a check.
    value = median(values) if values else float("nan")
    return name, value, unit, f"median, n={len(values)}"


WORKLOADS = {
    "optimize-firewall": lambda: OptimizeWorkload("optimize-firewall", False),
    "optimize-firewall-fastpath": lambda: OptimizeWorkload(
        "optimize-firewall-fastpath", True
    ),
    "fleet-fabric": FleetWorkload,
    "serve-drift": ServeWorkload,
}

