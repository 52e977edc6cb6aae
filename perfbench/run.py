"""Layered replay benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fin1-edc-fresh --seed 42 \
        --seconds 10 --trace 0

``--trace 0`` replays the workload at least three times, each on its own
freshly built backend, and reports the end-to-end metrics, host times
in reference seconds (``refclock.py``).  ``--trace 1`` replays it
twice, once plain and once with host spans and the program's
``Telemetry`` attached, and reports the per-layer metrics.
Both check the program's outputs.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it carries detail (sample counts, digests, problems).

See ``perfbench/README.md`` for the workloads and what each metric
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Seed whose digests are pinned in ``digests.json``.
DEFAULT_SEED = 42
#: Iterations whose simulated results are pooled; iteration ``i`` uses
#: trace seed ``seed + SEED_STRIDE * (i % POOLED)``.  Iterations past
#: these, run while ``--seconds`` has not elapsed, add host samples only.
POOLED = 3
SEED_STRIDE = 1000
#: Unit of latencies in simulated (not host) time.
SIM_MS = "sim_ms"


def iteration_seed(seed: int, i: int) -> int:
    return seed + SEED_STRIDE * (i % POOLED)


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="keep replaying until this much host time has "
                        f"passed (at least {POOLED} iterations)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def percentile_ms(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * 1e3 if len(samples) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pinned_digests(workload: str) -> Dict[str, str]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fp:
        return json.load(fp).get(workload, {})


def check_digests(name: str, seed: int, it) -> List[str]:
    """Problems if the default seed's digests differ from the pinned ones."""
    if seed != DEFAULT_SEED:
        return []
    want = pinned_digests(name)
    if not want:
        return [f"no digests pinned for {name}"]
    return [
        f"{k} digest {it.digests.get(k)} != pinned {v}"
        for k, v in sorted(want.items()) if it.digests.get(k) != v
    ]


def wa_halves(it) -> Dict[str, float]:
    """Write amplification over each half of the measured phase."""
    c, m = it.counters, it.mid
    host1, moved1 = m["flash.host_bytes"], m["flash.gc.moved_bytes"]
    host2 = c["flash.host_bytes"] - host1
    moved2 = c["flash.gc.moved_bytes"] - moved1
    return {
        "first_half": ratio(host1 + moved1, host1),
        "second_half": ratio(host2 + moved2, host2),
    }


def end_to_end(wl, args) -> Dict[str, object]:
    """Untraced iterations -> end-to-end metrics."""
    import numpy as np

    from refclock import RefClock

    iters, ref_setup, ref_measured = [], [], []
    start = time.perf_counter()
    while len(iters) < POOLED or time.perf_counter() - start < args.seconds:
        with RefClock() as clock:
            it = wl.run(iteration_seed(args.seed, len(iters)),
                        on_phase=clock.phase)
        iters.append(it)
        ref_setup.append(clock.ref_seconds("setup", it.setup_s))
        ref_measured.append(clock.ref_seconds("measured", it.measured_s))
    pooled = iters[:POOLED]
    writes = np.concatenate([it.write_s for it in pooled])
    reads = np.concatenate([it.read_s for it in pooled])
    tot = {k: sum(it.counters[k] for it in pooled) for k in pooled[0].counters}
    host, moved = tot["flash.host_bytes"], tot["flash.gc.moved_bytes"]
    metrics = {
        "replay_rps": metric(
            sum(it.attempted for it in iters) / sum(ref_measured), "1/s"),
        "setup_s": metric(statistics.median(ref_setup), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "write_p50_ms": metric(percentile_ms(writes, 50), SIM_MS),
        "write_p99_ms": metric(percentile_ms(writes, 99), SIM_MS),
        "read_p50_ms": metric(percentile_ms(reads, 50), SIM_MS),
        "read_p99_ms": metric(percentile_ms(reads, 99), SIM_MS),
        "compression_ratio": metric(
            ratio(tot["core.logical_bytes"], tot["core.stored_bytes"]),
            "ratio"),
        "write_amplification": metric(ratio(host + moved, host), "ratio"),
    }
    problems = [p for it in iters for p in it.problems]
    problems += check_digests(wl.name, args.seed, iters[0])
    detail = {
        "workload": wl.name,
        "iterations": len(iters),
        "pooled_seeds": [iteration_seed(args.seed, i) for i in range(POOLED)],
        "write_samples": int(writes.size),
        "read_samples": int(reads.size),
        "wa_halves": [wa_halves(it) for it in pooled],
        "host_measured_s": [it.measured_s for it in iters],
        "host_setup_s": [it.setup_s for it in iters],
        "ref_measured_s": ref_measured,
        "ref_setup_s": ref_setup,
        "digests": iters[0].digests,
        "problems": problems,
    }
    return {
        "attempted": sum(it.attempted for it in iters),
        "failed": sum(it.failed for it in iters),
        "metrics": metrics,
        "detail": detail,
    }


def per_layer(wl, args) -> Dict[str, object]:
    """One plain and one traced iteration -> per-layer metrics."""
    from hostspans import HostSpans
    from refclock import RefClock

    seed = iteration_seed(args.seed, 0)
    with RefClock() as clock:
        plain = wl.run(seed, on_phase=clock.phase)
    plain_ref_s = clock.ref_seconds("measured", plain.measured_s)
    spans = HostSpans()
    with RefClock() as clock, spans:
        def on_phase(name: str) -> None:
            clock.phase(name)
            spans.phase(name)

        traced = wl.run(seed, traced=True, on_phase=on_phase)
    traced_ref_s = clock.ref_seconds("measured", traced.measured_s)
    identical = plain.signature() == traced.signature()
    c = traced.counters
    meas, setup = spans.phases["measured"], spans.phases["setup"]

    def self_s(*groups: str) -> float:
        return sum(meas.self_s.get(g, 0.0) for g in groups)

    layer: Dict[str, Dict[str, object]] = {}
    for codec in ("lzf", "gzip", "bzip2"):
        g = "compression." + codec
        layer[g + ".calls"] = metric(meas.calls.get(g, 0), "count")
        layer[g + ".in_bytes"] = metric(meas.in_bytes.get(g, 0), "B")
        layer[g + ".host_s"] = metric(self_s(g), "s")
    est = "compression.estimator"
    layer.update({
        "compression.decompress.calls": metric(
            meas.calls.get("compression.decompress", 0), "count"),
        "compression.decompress.host_s": metric(
            self_s("compression.decompress"), "s"),
        est + ".calls": metric(meas.calls.get(est, 0), "count"),
        est + ".host_s": metric(self_s(est), "s"),
        est + ".incompressible_frac": metric(
            ratio(meas.flagged.get(est, 0), meas.calls.get(est, 0)), "frac"),
        "compression.self_s": metric(meas.layer_self_s("compression"), "s"),
        "sdgen.pool_build_s": metric(
            setup.inclusive_s.get("sdgen.pool_build", 0.0), "s"),
        "sdgen.csize.calls": metric(meas.calls.get("sdgen.csize", 0), "count"),
        "sdgen.csize.hit_rate": metric(ratio(
            c["sdgen.csize.hits"],
            c["sdgen.csize.hits"] + c["sdgen.csize.misses"]), "frac"),
        "sdgen.host_s": metric(meas.layer_self_s("sdgen"), "s"),
        "sim.events": metric(c["sim.events"], "count"),
        "sim.self_s": metric(meas.layer_self_s("sim"), "s"),
        "core.submits": metric(meas.calls.get("core.submit", 0), "count"),
        "core.merged_runs": metric(c["core.merged_runs"], "count"),
        "core.self_s": metric(meas.layer_self_s("core"), "s"),
        "flash.ssd.reads": metric(c["flash.ssd.reads"], "count"),
        "flash.ssd.writes": metric(c["flash.ssd.writes"], "count"),
        "flash.ftl.writes": metric(c["flash.ftl.writes"], "count"),
        "flash.ftl.host_s": metric(
            self_s("flash.ftl.write", "flash.ftl.trim"), "s"),
        "flash.gc.victim_host_s": metric(self_s("flash.gc.victim"), "s"),
        "flash.self_s": metric(meas.layer_self_s("flash"), "s"),
        "flash.gc.runs": metric(c["flash.gc.runs"], "count"),
        "flash.gc.moved_bytes": metric(c["flash.gc.moved_bytes"], "B"),
        "flash.gc.efficiency": metric(ratio(
            c["flash.gc.reclaimed_bytes"],
            c["flash.gc.reclaimed_bytes"] + c["flash.gc.moved_bytes"]),
            "frac"),
        "flash.gc.stall_s": metric(c["flash.gc.stall_s"], "sim_s"),
        "flash.read.mapped_frac": metric(ratio(
            meas.flagged.get("core.distributer.read", 0),
            meas.calls.get("core.distributer.read", 0)), "frac"),
    })
    for key in ("reads", "writes", "rmw_writes", "full_stripe_writes"):
        layer["flash.raid." + key] = metric(c.get("flash.raid." + key, 0),
                                            "count")
    layer["flash.raid.host_s"] = metric(
        self_s("flash.raid.write", "flash.raid.read"), "s")
    halves = wa_halves(traced)
    layer["flash.wa.first_half"] = metric(halves["first_half"], "ratio")
    layer["flash.wa.second_half"] = metric(halves["second_half"], "ratio")
    for key in ("parts", "split_requests", "replica_writes", "retries",
                "quorum_failures"):
        layer["cluster." + key] = metric(c.get("cluster." + key, 0), "count")
    layer["cluster.host_s"] = metric(meas.layer_self_s("cluster"), "s")
    for op, layers in (("write", ("queue", "estimate", "compress",
                                  "flash_program", "gc_stall")),
                       ("read", ("queue", "flash_program",
                                 "read_decompress"))):
        n = c.get(f"lat.{op}.n", 0)
        for name in layers:
            layer[f"lat.{op}.{name}_ms"] = metric(
                ratio(c.get(f"lat.{op}.{name}", 0.0), n) * 1e3, SIM_MS)
        if op == "write":
            rest = c.get("lat.write.end_to_end", 0.0) - sum(
                c.get(f"lat.write.{name}", 0.0) for name in layers)
            layer["lat.write.unattributed_ms"] = metric(
                ratio(rest, n) * 1e3, SIM_MS)
    layer["lat.write.samples"] = metric(len(traced.write_s), "count")
    layer["lat.read.samples"] = metric(len(traced.read_s), "count")
    layer["host.unspanned_s"] = metric(
        traced.measured_s - meas.root_s, "s")
    layer["trace.untraced_host_s"] = metric(plain_ref_s, "s")
    layer["trace.traced_host_s"] = metric(traced_ref_s, "s")
    layer["trace.overhead_frac"] = metric(
        ratio(traced_ref_s, plain_ref_s) - 1.0, "frac")
    layer["trace.identical"] = metric(1.0 if identical else 0.0, "bool")

    problems = plain.problems + traced.problems
    problems += check_digests(wl.name, args.seed, plain)
    if not identical:
        problems.append("traced run's simulated results or digests differ "
                        "from the untraced run's")
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": layer,
        "detail": {
            "workload": wl.name,
            "seed": seed,
            "digests": plain.digests,
            "problems": problems,
        },
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = per_layer(wl, args) if args.trace else end_to_end(wl, args)
    detail = result.pop("detail")
    for problem in detail["problems"]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not detail["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
