"""The benchmark's four workloads and what one replay of each yields.

Every workload is an open-loop trace in simulated time: requests arrive
at their trace timestamps whatever the device is doing, and each
request's latency runs from that timestamp to its completion.  The host
replays the whole trace as one batch, in one process, with no threads.

One call of :meth:`Workload.run` is one *iteration*: it builds the inputs
from a seed, stands the backend up, preconditions it (``setup``), then
replays the measured trace (``measured``).  Simulated results cover the
measured phase only.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.experiments import ReplayConfig, replay
from repro.cluster import (
    ClusterReplayConfig,
    ClusterReplayer,
    TenantSpec,
    build_cluster,
)
from repro.core.replay import TraceReplayer
from repro.flash.introspect import ftls_of, space_waterfall
from repro.flash.raid import RAIS5
from repro.telemetry.probes import READ_LAYERS, WRITE_LAYERS, Telemetry
from repro.sim.engine import Simulator
from repro.traces.model import IORequest, Trace
from repro.traces.multitenant import make_tenant_streams
from repro.traces.workloads import make_workload

BLOCK = 4096

#: Simulated seconds of idle between the precondition fill and the
#: measured trace; the fill drains well inside it.
FILL_GAP_S = 1.0

#: Added to the seed for the warm-up trace, so it differs from the
#: measured trace (iteration seeds step by 1000).
WARMUP_SEED_OFFSET = 500

#: Latency target of every cluster tenant (graded, never enforced).
TENANT_SLO_S = 0.010


@dataclass
class Iteration:
    """Everything one setup + measured replay produced."""

    setup_s: float
    measured_s: float
    attempted: int
    completed: int
    failed: int
    #: simulated latencies of the measured phase, seconds
    write_s: np.ndarray
    read_s: np.ndarray
    #: measured-phase deltas of program counters (simulated quantities)
    counters: Dict[str, float]
    #: program counters at the midpoint of the measured phase
    mid: Dict[str, float]
    digests: Dict[str, str]
    problems: List[str] = field(default_factory=list)

    def signature(self) -> Tuple:
        """The simulated outcome, for traced-vs-untraced identity.

        ``lat.*`` counters exist only when ``Telemetry`` is attached, so
        they are left out.
        """
        def sim_only(counters: Dict[str, float]) -> Tuple:
            return tuple(sorted(
                (k, v) for k, v in counters.items() if not k.startswith("lat.")
            ))

        return (
            self.attempted, self.completed, self.failed,
            self.write_s.tobytes(), self.read_s.tobytes(),
            sim_only(self.counters), sim_only(self.mid),
            tuple(sorted(self.digests.items())),
        )


# ----------------------------------------------------------------------
# program counters
# ----------------------------------------------------------------------
def _ssds_of(backend) -> List[object]:
    members = getattr(backend, "devices", None)
    return list(members) if members else [backend]


def snapshot(sim: Simulator, devices: List[object], fleet=None) -> Dict[str, float]:
    """Cumulative simulated counters over ``devices`` (and the fleet)."""
    c: Dict[str, float] = {"sim.events": sim.dispatched}

    def add(key: str, value: float) -> None:
        c[key] = c.get(key, 0) + value

    for dev in devices:
        backend = dev.backend
        for ssd in _ssds_of(backend):
            add("flash.ssd.reads", ssd.stats.reads)
            add("flash.ssd.writes", ssd.stats.writes)
            add("flash.gc.stall_s", ssd.stats.gc_stall_time)
        for ftl in ftls_of(backend):
            add("flash.ftl.writes", ftl.stats.host_writes)
            add("flash.host_bytes", ftl.stats.host_bytes)
            add("flash.gc.runs", ftl.stats.gc_runs)
            add("flash.gc.moved_bytes", ftl.stats.relocated_bytes)
            add("flash.gc.reclaimed_bytes", ftl.collector.stats.reclaimed_bytes)
        if isinstance(backend, RAIS5):
            for key in ("reads", "writes", "rmw_writes", "full_stripe_writes"):
                add("flash.raid." + key, getattr(backend.stats, key))
        add("core.merged_runs", dev.stats.merged_runs)
        add("core.logical_bytes", dev.stats.logical_bytes)
        add("core.stored_bytes", dev.stats.stored_bytes)
        add("core.failed_ops", dev.unrecovered_writes + dev.unrecovered_reads
            + dev.corrupt_reads)
        add("core.writes_done", dev.write_latency.count)
        add("core.reads_done", dev.read_latency.count)
        add("sdgen.csize.hits", dev.content.cache_hits)
        add("sdgen.csize.misses", dev.content.cache_misses)
        tel = dev.telemetry
        if tel.enabled:
            for layer in WRITE_LAYERS:
                add("lat.write." + layer, tel.write_layers[layer])
            for layer in READ_LAYERS:
                add("lat.read." + layer, tel.read_layers[layer])
            add("lat.write.end_to_end", tel.write_end_to_end)
            add("lat.read.end_to_end", tel.read_end_to_end)
            add("lat.write.n", tel.write_requests)
            add("lat.read.n", tel.read_requests)
    if fleet is not None:
        st = fleet.cluster.stats
        add("cluster.parts", st.issued_writes + st.issued_reads)
        add("cluster.split_requests", st.split_requests)
        add("cluster.unrecovered_parts", st.unrecovered_parts)
        rep = fleet.replication.stats
        add("cluster.replica_writes", rep.replica_writes)
        add("cluster.retries", rep.retries)
        add("cluster.quorum_failures", rep.quorum_failures)
    return c


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def digests(devices: List[object]) -> Dict[str, str]:
    """Mapping, allocator and FTL-validity digests over every device."""
    parts: Dict[str, List[str]] = {"mapping": [], "allocator": [], "ftl": []}
    for dev in devices:
        parts["mapping"].append(dev.mapping.state_digest())
        parts["allocator"].append(dev.allocator.state_digest())
        parts["ftl"].extend(f.validity_digest() for f in ftls_of(dev.backend))
    return {
        k: hashlib.sha256("|".join(v).encode()).hexdigest()
        for k, v in parts.items()
    }


def check_devices(devices: List[object]) -> List[str]:
    """FTL, mapping and space-conservation invariants of every device."""
    problems: List[str] = []
    for i, dev in enumerate(devices):
        checks: List[Tuple[str, Callable[[], None]]] = [
            (f"device {i} mapping", dev.mapping.check_invariants),
            (f"device {i} space waterfall", space_waterfall(dev).verify),
        ]
        for j, ftl in enumerate(ftls_of(dev.backend)):
            checks.append((f"device {i} ftl {j}", ftl.check_invariants))
        for name, check in checks:
            try:
                check()
            except (AssertionError, ValueError, RuntimeError) as exc:
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
    return problems


def _measured_failure(attempted: int, completed: int, exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return (f"replay raised {type(exc).__name__}: {exc}; "
            f"{attempted - completed} of {attempted} requests unfinished")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One named workload: ``run(seed)`` is one iteration."""

    name = ""

    def run(self, seed: int, traced: bool = False, on_phase=None) -> Iteration:
        raise NotImplementedError


def fill_trace(nblocks: int, seed: int, spacing: float) -> Trace:
    """Every block of ``[0, nblocks)`` written once, 4 KB, in random order.

    ``spacing`` exceeds the Sequentiality Detector's flush timeout, so
    each fill write is its own single-block run, whose compressed size
    the content store has cached after the pool's first few hundred.
    """
    order = np.random.default_rng(seed).permutation(nblocks)
    return Trace("fill", [
        IORequest(i * spacing, "W", int(blk) * BLOCK, BLOCK)
        for i, blk in enumerate(order)
    ])


def shifted(trace: Trace, offset: float) -> Trace:
    return Trace(trace.name, [
        IORequest(r.time + offset, r.op, r.lba, r.nbytes) for r in trace
    ])


class DeviceWorkload(Workload):
    """One trace through ``repro.bench.experiments.replay`` (SSD or RAIS5)."""

    def __init__(self, name: str, trace: str, scheme: str,
                 cfg: ReplayConfig, requests: int,
                 fill_spacing: Optional[float] = None,
                 warmup: int = 0) -> None:
        self.name = name
        self.trace = trace
        self.scheme = scheme
        self.cfg = cfg
        self.requests = requests
        self.fill_spacing = fill_spacing
        self.warmup = warmup

    def precondition(self, seed: int) -> Trace:
        """The fill, then ``warmup`` requests of the workload's own trace.

        The fill alone leaves the device's live data laid out by the
        random fill order; the warm-up replays the trace's own overwrite
        pattern until GC reaches steady state.
        """
        fold = self.cfg.fold_bytes(BLOCK)
        pre = fill_trace(fold // BLOCK, seed, self.fill_spacing)
        if not self.warmup:
            return pre
        warm = make_workload(self.trace, duration=None,
                             max_requests=self.warmup,
                             seed=seed + WARMUP_SEED_OFFSET)
        warm = shifted(warm.scaled_addresses(fold, BLOCK),
                       pre.duration + FILL_GAP_S)
        return Trace("precondition", list(pre) + list(warm))

    def run(self, seed: int, traced: bool = False, on_phase=None) -> Iteration:
        t0 = time.perf_counter()
        trace = make_workload(self.trace, duration=None,
                              max_requests=self.requests, seed=seed)
        fill = None
        offset = 0.0
        if self.fill_spacing is not None:
            fill = self.precondition(seed)
            offset = fill.duration + FILL_GAP_S
        measured = shifted(trace, offset)
        mid_time = measured[len(measured) // 2].time
        box: Dict[str, object] = {}

        def on_built(sim, device, backend, devices) -> None:
            if fill is not None:
                TraceReplayer(sim, device).replay(fill)
                if sim.now >= offset:
                    raise RuntimeError(
                        f"fill drained at {sim.now:.3f}s, after the measured "
                        f"trace starts at {offset:.3f}s")
            box["sim"], box["device"] = sim, device
            box["before"] = snapshot(sim, [device])
            sim.schedule_at(
                mid_time,
                lambda: box.__setitem__("mid", snapshot(sim, [device])),
                daemon=True,
            )
            if on_phase is not None:
                on_phase("measured")
            box["t"] = time.perf_counter()

        telemetry = Telemetry(Simulator()) if traced else None
        problems: List[str] = []
        try:
            replay(measured, self.scheme, self.cfg, telemetry=telemetry,
                   on_built=on_built)
        except Exception as exc:  # the measured replay failed: count, go on
            if "t" not in box:
                raise
            box["error"] = exc
        t2 = time.perf_counter()
        if on_phase is not None:
            on_phase("check")
        sim, device = box["sim"], box["device"]
        counters = delta(snapshot(sim, [device]), box["before"])
        completed = int(counters["core.writes_done"] + counters["core.reads_done"])
        attempted = len(measured)
        failed = int(counters["core.failed_ops"]) + attempted - completed
        if "error" in box:
            problems.append(_measured_failure(attempted, completed, box["error"]))
        problems.extend(check_devices([device]))
        mid = delta(box.get("mid", box["before"]), box["before"])
        nw = int(box["before"]["core.writes_done"])
        nr = int(box["before"]["core.reads_done"])
        return Iteration(
            setup_s=box["t"] - t0,
            measured_s=t2 - box["t"],
            attempted=attempted,
            completed=completed,
            failed=failed,
            write_s=device.write_latency.samples()[nw:],
            read_s=device.read_latency.samples()[nr:],
            counters=counters,
            mid=mid,
            digests=digests([device]),
            problems=problems,
        )


class ClusterWorkload(Workload):
    """Per-tenant streams through ``build_cluster`` and ``ClusterReplayer``."""

    def __init__(self, name: str, cfg: ClusterReplayConfig,
                 tenants: int, requests_per_tenant: int) -> None:
        self.name = name
        self.cfg = cfg
        self.tenants = tenants
        self.requests_per_tenant = requests_per_tenant

    def run(self, seed: int, traced: bool = False, on_phase=None) -> Iteration:
        t0 = time.perf_counter()
        # Unthrottled tenants: a token bucket's backlog would set the
        # tail (hundreds of ms) by admission arithmetic alone.
        specs = [TenantSpec(f"tenant{i}", slo=TENANT_SLO_S)
                 for i in range(self.tenants)]
        streams = make_tenant_streams(
            [s.name for s in specs],
            max_requests=self.requests_per_tenant, seed=seed,
        )
        fleet = build_cluster(specs, self.cfg, tracing=traced)
        sim, cluster = fleet.sim, fleet.cluster
        devices = list(fleet.devices.values())
        lat: Dict[str, List[float]] = {"W": [], "R": []}

        def submit(req: IORequest, tenant: str) -> None:
            done = lat[req.op]
            cluster.submit(req, tenant,
                           on_complete=lambda: done.append(sim.now - req.time))

        attempted = 0
        for stream in streams:
            for req in stream.trace:
                sim.schedule_at(
                    req.time, lambda r=req, t=stream.tenant: submit(r, t))
            attempted += len(stream.trace)
        mid_time = float(np.median(
            [r.time for s in streams for r in s.trace]))
        before = snapshot(sim, devices, fleet)
        box: Dict[str, object] = {}
        sim.schedule_at(
            mid_time,
            lambda: box.__setitem__("mid", snapshot(sim, devices, fleet)),
            daemon=True,
        )
        if on_phase is not None:
            on_phase("measured")
        t1 = time.perf_counter()
        problems: List[str] = []
        try:
            sim.run()
            fleet.flush()
            sim.run()
        except Exception as exc:  # the measured replay failed: count, go on
            box["error"] = exc
        t2 = time.perf_counter()
        if on_phase is not None:
            on_phase("check")
        counters = delta(snapshot(sim, devices, fleet), before)
        completed = len(lat["W"]) + len(lat["R"])
        failed = attempted - completed + int(counters["cluster.unrecovered_parts"])
        if "error" in box:
            problems.append(_measured_failure(attempted, completed, box["error"]))
        else:
            problems.extend(self._check_cluster(fleet))
        problems.extend(check_devices(devices))
        return Iteration(
            setup_s=t1 - t0,
            measured_s=t2 - t1,
            attempted=attempted,
            completed=completed,
            failed=failed,
            write_s=np.asarray(lat["W"], dtype=np.float64),
            read_s=np.asarray(lat["R"], dtype=np.float64),
            counters=counters,
            mid=delta(box.get("mid", before), before),
            digests=digests(devices),
            problems=problems,
        )

    @staticmethod
    def _check_cluster(fleet) -> List[str]:
        """Drain bookkeeping, lost-write invariant and durability audit."""
        outcome = ClusterReplayer(fleet).run()
        problems: List[str] = []
        if outcome.lost_writes:
            problems.append(f"{len(outcome.lost_writes)} acked writes lost")
        audit = outcome.durability
        if audit.verdict != "RECOVERED":
            problems.append(
                f"durability audit {audit.verdict}: {len(audit.lost)} lost, "
                f"{len(audit.corrupt)} corrupt, "
                f"{len(audit.under_replicated)} ranges under-replicated")
        for name, t in outcome.tenants.items():
            if t.completed != t.submitted:
                problems.append(
                    f"tenant {name}: {t.submitted} submitted, "
                    f"{t.completed} completed")
        return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    DeviceWorkload(
        "fin1-edc-fresh",
        # 10,000 requests: a Fin1 trace holds one burst per thousand or
        # so, and the burst levels set the tail latencies and the share
        # of writes given the fast codec, which sets host cost.  At 5,000
        # requests read p99 and replay rate spread 0.12-0.16 across seeds.
        trace="Fin1", scheme="EDC", cfg=ReplayConfig(), requests=10000,
    ),
    DeviceWorkload(
        "fin1-native-aged",
        trace="Fin1", scheme="Native",
        # At fold 0.7 the 1650-IOPS bursts outrun the aged device, the
        # queue grows without bound for a burst's length, and write p99
        # swings from 11 to 32 ms between seeds.  At 0.5 GC still runs
        # (WA about 1.24) and the tail is set by GC stalls instead.
        cfg=ReplayConfig(capacity_mb=16, fold_fraction=0.5),
        requests=30000, fill_spacing=1e-3, warmup=10000,
    ),
    DeviceWorkload(
        "fin2-edc-rais5-filled",
        trace="Fin2", scheme="EDC",
        # Fold 0.5 leaves the filled array room: at 0.7-0.8 GC starts
        # partway through the measured phase and read p99 swings from
        # 0.4 to 2.7 ms between seeds, depending on when.
        cfg=ReplayConfig(backend="rais5", capacity_mb=16, fold_fraction=0.5),
        requests=24000, fill_spacing=1e-3,
    ),
    ClusterWorkload(
        "cluster-rf2",
        # Native: under EDC, pure-Python LZF on four cold content caches
        # held the fleet to about 400 requests/s, and at an affordable
        # 1,200 requests its replay rate and p99s spread 0.3-0.5 across
        # seeds.  Codec cost is measured by fin1-edc-fresh.
        # Fold 0.2 keeps each tenant's namespace small, so more reads
        # find a written block (35 % of read pieces for seed 42, against
        # 14 % at fold 0.8, where read p50 flipped between two service
        # times from seed to seed).
        cfg=ClusterReplayConfig(n_shards=4, scheme="Native", capacity_mb=64,
                                fold_fraction=0.2, replication_factor=2,
                                quorum="majority"),
        tenants=8, requests_per_tenant=3000,
    ),
)}
