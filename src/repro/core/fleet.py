"""Fleet coordinator: the paper's network-wide "one big switch" (§6).

P2GO optimizes one switch at a time; a datacenter fabric runs dozens of
pipeline variants that share most of their programs.  The coordinator
drives N per-switch :class:`~repro.core.pipeline.SwitchRun` units —
variants of the evaluation programs with per-switch traffic — on a
process pool against **one shared persistent store**
(:class:`~repro.core.store.SessionStore`), so a probe any switch has
paid for answers every other switch's identical probe from disk, and
the store's probe leases dedupe probes that are *in flight* in two
processes at once (the cross-process analogue of ``probe_many``'s
in-process dedup).

Contract, mirroring PR 4's parallel-probing contract:

* **Determinism.**  Each switch's result is canonically identical to a
  standalone ``P2GO.run()`` over the same inputs, for any coordinator
  worker count, with or without the shared store — sharing changes who
  pays for a probe (``session_counters`` provenance), never the
  optimization outcome.  Results merge in submission order.
* **Exactly-once probing.**  With leases on, two processes never both
  execute the same fingerprinted probe (one claims, the other waits
  and gets a disk hit), so the fleet-wide execution count equals the
  number of *distinct* probes the fabric asks — the number the fleet
  benchmark gates on.  The only exception is a reaped lease (a holder
  dead past the TTL), where re-execution is the correct degradation.

The per-switch sessions run serial probes (``workers=1``): fleet
parallelism is at switch granularity, which avoids nested process
pools and keeps every child process a pure function of its spec.

:func:`run_jobs` is the single fan-out point: :func:`run_fleet` is
one job per switch plus the fabric roll-up, and the design-space
explorer (:mod:`repro.explore.explorer`) one job per point plus its
frontier.

``tests/test_fleet.py`` pins the contract; ``benchmarks/bench_fleet.py``
measures fleet-vs-independent wall clock and cross-switch reuse and
gates both in CI via the committed ``BENCH_fleet.json``.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import P2GOResult, SwitchRun
from repro.core.session import (
    SessionCounters,
    config_fingerprint,
    make_pool,
    program_fingerprint,
    resolve_workers,
)
from repro.core.store import SessionStore, resolve_store
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel
from repro.traffic.generators import TracePacket

__all__ = [
    "DEFAULT_FAMILIES",
    "FleetResult",
    "FleetSwitch",
    "JobResults",
    "SwitchSpec",
    "build_fabric",
    "family_inputs",
    "run_fleet",
    "run_jobs",
    "switch_fingerprint",
]

#: Program families a default fabric cycles through — the §4 evaluation
#: scenarios the ROADMAP names for the fleet story.
DEFAULT_FAMILIES = ("enterprise", "nat_gre", "sourceguard", "cgnat")


@dataclass
class SwitchSpec:
    """One switch of a fabric: concrete, picklable pipeline inputs.

    Fully self-contained on purpose: a spec crosses a process boundary,
    and "bit-identical to a standalone run" is only checkable when the
    spec *is* the standalone run's inputs.
    """

    name: str
    program: Program
    config: RuntimeConfig
    trace: List[TracePacket]
    target: TargetModel
    phases: Tuple[int, ...] = (2, 3, 4)
    fastpath: Optional[bool] = None
    candidate_policy: Optional[str] = None

    def build_run(self, lease_probes: bool = False) -> SwitchRun:
        """This spec as an executable :class:`SwitchRun` (serial
        probes — fleet parallelism is at switch granularity)."""
        return SwitchRun(
            self.program,
            self.config,
            self.trace,
            self.target,
            name=self.name,
            phases=self.phases,
            workers=1,
            fastpath=self.fastpath,
            lease_probes=lease_probes,
            candidate_policy=self.candidate_policy,
        )

    def run(
        self, store: Optional[SessionStore], lease_probes: bool = True
    ) -> P2GOResult:
        """This switch end to end against ``store`` — the fleet's
        :func:`run_jobs` task."""
        return self.build_run(lease_probes=lease_probes).execute(store=store)


def family_inputs(
    family: str, packets: Optional[int] = None,
    trace_seed: Optional[int] = 0,
) -> Tuple[Program, RuntimeConfig, List[TracePacket], TargetModel]:
    """Concrete pipeline inputs for one evaluation-program family:
    ``(program, config, trace, target)``.  ``packets`` overrides the
    family's default trace length; ``trace_seed`` feeds its traffic
    generator (None keeps the family's own default seed).  Shared by
    the fleet builder, the design-space explorer and the CLI's built-in
    scenarios so all of them run the same program corpus."""
    module = importlib.import_module(f"repro.programs.{family}")
    program = module.build_program()
    try:
        config = module.runtime_config(program)
    except TypeError:
        config = module.runtime_config()
    seed = {} if trace_seed is None else {"seed": trace_seed}
    if packets is None:
        trace = module.make_trace(**seed)
    else:
        trace = module.make_trace(packets, **seed)
    return program, config, trace, module.TARGET


def build_fabric(
    size: int,
    families: Sequence[str] = DEFAULT_FAMILIES,
    seed: int = 0,
    packets: Optional[int] = None,
) -> List[SwitchSpec]:
    """A fabric of ``size`` switches cycling through ``families``.

    Switch ``i`` runs family ``families[i % len(families)]`` with a
    per-switch trace (``seed + i`` feeds the family's traffic
    generator), modelling a datacenter row: many instances of few
    pipeline programs, each seeing its own traffic.  Same-family
    switches therefore share compile fingerprints (the cross-switch
    reuse the shared store harvests) while their profiles stay
    per-switch.  ``packets`` overrides each family's default trace
    length (smaller = faster fabrics for tests and CI).
    """
    if size < 1:
        raise ValueError("fabric size must be >= 1")
    if not families:
        raise ValueError("need at least one program family")
    specs = []
    for index in range(size):
        family = families[index % len(families)]
        program, config, trace, target = family_inputs(
            family, packets, seed + index
        )
        specs.append(
            SwitchSpec(
                name=f"sw{index:02d}-{family}",
                program=program,
                config=config,
                trace=trace,
                target=target,
            )
        )
    return specs


@dataclass
class FleetSwitch:
    """One switch's outcome within a fleet run."""

    name: str
    result: P2GOResult
    seconds: float


@dataclass
class FleetResult:
    """Everything one fleet run produces, in submission order."""

    switches: List[FleetSwitch]
    wall_seconds: float
    workers: int
    store_root: Optional[str]
    lease_probes: bool
    #: Aggregate cache (computed once by :meth:`aggregate`).
    _aggregate: Optional[Dict] = field(default=None, repr=False)

    def aggregate(self) -> Dict:
        """Fleet-wide totals: stages reclaimed, probe provenance,
        cross-switch disk reuse, lease contention, wall clock."""
        if self._aggregate is not None:
            return self._aggregate
        lease = {
            "lease_claims": 0,
            "lease_waits": 0,
            "lease_wait_hits": 0,
            "leases_reaped": 0,
        }
        stages_before = stages_after = 0
        for switch in self.switches:
            result = switch.result
            stages_before += result.stages_before
            stages_after += result.stages_after
            if result.store_stats is not None:
                store_counters = result.store_stats["counters"]
                for key in lease:
                    lease[key] += store_counters.get(key, 0)
        self._aggregate = {
            "switches": len(self.switches),
            "workers": self.workers,
            "store_root": self.store_root,
            "lease_probes": self.lease_probes,
            "stages_before": stages_before,
            "stages_after": stages_after,
            "stages_reclaimed": stages_before - stages_after,
            **SessionCounters.provenance(
                switch.result.session_counters for switch in self.switches
            ),
            "switch_seconds": round(
                sum(switch.seconds for switch in self.switches), 3
            ),
            "wall_seconds": round(self.wall_seconds, 3),
            **lease,
        }
        return self._aggregate


def switch_fingerprint(result: P2GOResult) -> Tuple:
    """Canonical identity of one switch's optimization outcome — what
    "bit-identical to a standalone run" compares (provenance counters
    deliberately excluded: sharing changes who pays, not the answer)."""
    return (
        program_fingerprint(result.optimized_program),
        config_fingerprint(result.final_config),
        tuple(result.stage_history()),
        result.offloaded_tables,
    )


@dataclass
class JobResults:
    """What :func:`run_jobs` hands back, in submission order: each
    job's task result and its seconds (timed where it ran)."""

    results: List
    seconds: List[float]
    wall_seconds: float
    workers: int
    store_root: Optional[str]


def _run_job(
    task: Callable, spec, store_root: Optional[str]
) -> Tuple[object, float]:
    """One timed job, with its own handle on the shared store."""
    t0 = time.perf_counter()
    store = SessionStore(store_root) if store_root is not None else None
    result = task(spec, store)
    return result, time.perf_counter() - t0


def run_jobs(
    specs: Sequence,
    task: Callable[[object, Optional[SessionStore]], object],
    store: Union[SessionStore, str, bool, None] = None,
    workers: Optional[int] = None,
) -> JobResults:
    """Run ``task(spec, store_handle)`` for every spec: the single
    fan-out point for fleet switches and design-space points.

    ``store`` (:func:`~repro.core.store.resolve_store` semantics) is
    resolved to a root once; each job opens its own handle on it where
    it runs, so per-job store counters stay per job.  ``workers`` (None
    → ``$P2GO_WORKERS``, then 1) sizes a :func:`make_pool` pool; one
    worker or one spec runs inline.  Results merge in **submission
    order**, independent of the worker count.
    """
    specs = list(specs)
    workers = resolve_workers(workers)
    resolved = resolve_store(store)
    store_root = None if resolved is None else str(resolved.root)
    t0 = time.perf_counter()
    if workers == 1 or len(specs) <= 1:
        done = [_run_job(task, spec, store_root) for spec in specs]
    else:
        with make_pool(min(workers, len(specs))) as pool:
            futures = [
                pool.submit(_run_job, task, spec, store_root)
                for spec in specs
            ]
            done = [future.result() for future in futures]
    return JobResults(
        results=[result for result, _ in done],
        seconds=[seconds for _, seconds in done],
        wall_seconds=time.perf_counter() - t0,
        workers=workers,
        store_root=store_root,
    )


def run_fleet(
    specs: Sequence[SwitchSpec],
    store: Union[SessionStore, str, bool, None] = None,
    workers: Optional[int] = None,
    lease_probes: bool = True,
) -> FleetResult:
    """Optimize a fabric against one shared store: one :func:`run_jobs`
    job per switch (``store``/``workers`` as there).  ``lease_probes``
    dedupes in-flight probes across worker processes through store
    leases (disabled without a store)."""
    specs = list(specs)
    jobs = run_jobs(
        specs,
        functools.partial(SwitchSpec.run, lease_probes=lease_probes),
        store=store,
        workers=workers,
    )
    return FleetResult(
        switches=[
            FleetSwitch(name=spec.name, result=result, seconds=seconds)
            for spec, result, seconds in zip(
                specs, jobs.results, jobs.seconds
            )
        ],
        wall_seconds=jobs.wall_seconds,
        workers=jobs.workers,
        store_root=jobs.store_root,
        lease_probes=lease_probes and jobs.store_root is not None,
    )
