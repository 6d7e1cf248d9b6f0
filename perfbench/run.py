"""P2GO end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload optimize-firewall --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``optimize-firewall``, ``optimize-firewall-fastpath``, ``fleet-fabric``
and ``serve-drift``.  Inputs are generated from ``--seed``; the program
sees only the generated traces.  The run repeats the workload's jobs
until ``--seconds`` is used up (at least once), checks every output
against an oracle outside the code path under test, prints each metric
by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced iteration and reports the per-layer metrics
from spans recorded around each layer's public entry points, plus the
tracing overhead.  A failed check makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import (  # noqa: E402
    PER_LAYER, layer_metrics, root_of, self_time_by_layer,
)
from perfbench.stats import median  # noqa: E402

#: Every environment knob the program reads, pinned per workload so an
#: exported CI setting cannot silently change what a workload measures.
KNOBS = ("P2GO_STORE", "P2GO_FASTPATH", "P2GO_WORKERS", "P2GO_REPLAY_EXECUTOR")

#: Fresh interpreters whose set-up time ``setup_s`` is the median of.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
)


def pin_knobs(fastpath: bool) -> None:
    os.environ["P2GO_STORE"] = ""
    os.environ["P2GO_FASTPATH"] = "on" if fastpath else "off"
    os.environ["P2GO_WORKERS"] = "1"
    os.environ["P2GO_REPLAY_EXECUTOR"] = "process"


def resolved_knobs() -> str:
    from repro.core.session import resolve_replay_executor, resolve_workers
    from repro.core.store import resolve_store
    from repro.sim.fastpath import resolve_fastpath

    env = " ".join(f"{k}={os.environ[k]!r}" for k in KNOBS)
    return (
        f"{env} -> store={resolve_store(None)} "
        f"fastpath={resolve_fastpath(None)} workers={resolve_workers(None)} "
        f"replay_executor={resolve_replay_executor(None)}"
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (the fleet's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def merge_samples(into, samples) -> None:
    for key, values in samples.items():
        into.setdefault(key, []).extend(values)


def run_iterations(workload, seconds: float):
    """Iterations until the next one would overrun ``seconds``."""
    samples, durations = {}, []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        merge_samples(samples, workload.iteration())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + median(durations) > seconds:
            return samples, durations


def line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<28} {value:>14.6g} {unit:<6} {note}".rstrip()


def print_described(workload, samples) -> None:
    """The workload's figures under the names they have in its domain."""
    for row in workload.describe(samples):
        print(line(*row))


def traced_run(workload, work: Path):
    """One untraced iteration (the overhead baseline), then one traced."""
    from perfbench.tracing import Tracer, Wrappers

    untraced = workload.iteration()
    tracer = Tracer()
    wrappers = Wrappers(tracer, work).install()
    try:
        traced = workload.iteration()
    finally:
        wrappers.remove()
    spans, hot = tracer.take()
    overhead = median(traced["job_s"]) / median(untraced["job_s"]) - 1.0
    return traced, spans, hot, layer_metrics(spans, hot, traced, overhead)


def fleet_shares(spans) -> None:
    """Where each fleet run's busy time went (base: its switches' busy
    seconds, summed over the pool workers)."""
    roots = root_of(spans)
    runs = [s for s in spans if s.name == "job.fleet"]
    for index, run in enumerate(sorted(runs, key=lambda s: s.start)):
        inside = [s for s in spans if roots[s.sid] == run.sid]
        busy = sum(s.duration for s in inside if s.name == "switch.execute")

        def share(name):
            total = sum(s.duration for s in inside if s.name == name)
            return f"{name} {total:.3f} s ({total / busy:.0%})"

        kind = "cold" if index == 0 else "warm"
        print(f"    {kind} run {run.duration:.3f} s wall, {busy:.3f} s busy: "
              + ", ".join(share(n) for n in (
                  "target.compile", "lease.wait", "store.load",
                  "store.write", "profiler.run")))


def print_layers(spans, hot, traced, metrics) -> None:
    job = median(traced["job_s"])
    print(f"  layer self time over the traced iteration "
          f"(job_s {job:.4f} s):")
    for layer, seconds in sorted(
        self_time_by_layer(spans).items(), key=lambda kv: -kv[1]
    ):
        print(f"    {layer:<40} {seconds:10.4f} s")
    if "serve.packet" in hot:
        packet = hot["serve.packet"]
        inner = hot["sim.serve_process"].total + hot["online.process"].total
        print(f"    {'repro.core.serve (per packet, self)':<40} "
              f"{packet.total - inner:10.4f} s over {packet.count} packets")
        print(f"    {'repro.sim (serving switch, per packet)':<40} "
              f"{hot['sim.serve_process'].total:10.4f} s")
        print(f"    {'repro.core.online (monitor, per packet)':<40} "
              f"{hot['online.process'].total:10.4f} s")
    for name, stats in sorted(hot.items()):
        buckets = " ".join(
            f"<{1 << bucket}us:{count}"
            for bucket, count in sorted(stats.histogram.items())
        )
        print(f"    {name} histogram: {buckets}")
    if "fastpath.closure" in hot:
        closure = hot["fastpath.closure"]
        print(f"    {'repro.sim.fastpath (replay closures)':<40} "
              f"{closure.total:10.4f} s over {closure.count} closures "
              "(inside fastpath.batch)")
    if any(s.name == "job.fleet" for s in spans):
        print("  per fleet run, time in each layer:")
        fleet_shares(spans)
    elif "serve" not in traced:
        print(f"  profiler.replay_s / job_s = "
              f"{metrics['profiler.replay_s'] / job:.1%}, "
              f"target.compile_s / job_s = "
              f"{metrics['target.compile_s'] / job:.1%} (base: job_s)")
    print("  per-layer metrics:")
    for name, unit in PER_LAYER:
        print(line(name, metrics[name], unit))


def build_workload(name: str, seed: int, work: Path):
    """Import what the workloads drive, then build one workload's
    inputs: everything a run pays before its first job."""
    import repro.controller.equivalence  # noqa: F401
    import repro.core.fleet  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.core.serve  # noqa: F401
    import repro.programs.example_firewall  # noqa: F401
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed, work)
    return workload


def measure_setup(args) -> list:
    """Set-up time of ``SETUP_REPEATS`` fresh interpreters, each
    importing the program and building this run's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout.split()[-1]))
    return times


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no P2GO sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    pin_knobs(fastpath=args.workload.endswith("-fastpath"))

    work = ROOT / ".perfbench-work" / str(os.getpid())
    if args.setup_only:
        build_workload(args.workload, args.seed, work)
        print(time.perf_counter() - started)
        return 0

    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        workload = build_workload(args.workload, args.seed, work)
        print(f"workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}")
        print(f"  knobs: {resolved_knobs()}")
        if args.trace:
            samples, spans, hot, layer = traced_run(workload, work)
        else:
            samples, durations = run_iterations(workload, args.seconds)
            print(f"  {len(durations)} iteration(s) in "
                  f"{sum(durations):.2f} s")
        workload.check(checks)
        # Read before the set-up probes add children of their own.
        rss = peak_rss_mb()
        setups = [] if args.trace else measure_setup(args)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for note in checks.notes:
        print(f"  {note}")
    error_rate = checks.failed / max(checks.attempted, 1)
    print(line("error_rate", error_rate, "ratio",
               f"{checks.failed} failed of {checks.attempted} checked"))
    if args.trace:
        print_layers(spans, hot, samples, layer)
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        values = {
            "setup_s": median(setups),
            "job_s": median(samples["job_s"]),
            "peak_rss_mb": rss,
        }
        for name in ("setup_s", "job_s"):
            series = setups if name == "setup_s" else samples[name]
            print(line(name, values[name], "s", f"median, n={len(series)}: "
                       + " ".join(f"{x:.4g}" for x in series)))
        print(line("peak_rss_mb", rss, "MB", "self + largest child"))
        print_described(workload, samples)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
