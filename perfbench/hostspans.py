"""Host-time spans around the public entry points of each layer.

A traced run installs :class:`HostSpans` for one replay.  It replaces a
fixed list of public methods (one or more per module: ``sim``, ``core``,
``compression``, ``sdgen``, ``flash``, ``cluster``) with wrappers that
time each call and count it.  The wrappers live here, in the
benchmark; the program is not edited.

Self time of a span is its duration minus the time covered by the spans
it called.  Work that runs inside the event loop but has no public
entry point of its own (completion closures, barrier callbacks) is
covered by ``Simulator.run`` alone, so it lands in ``sim.self_s``.

Spans are accumulated per *phase*: ``setup`` (trace generation, content
pool, backend build, precondition fill) and ``measured`` (the replay
whose host time ``replay_rps`` reports).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class PhaseTotals:
    """Per-group self time and call counts for one phase."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.in_bytes: Dict[str, int] = defaultdict(int)
        #: calls whose outcome the group's ``note`` flagged (estimator
        #: verdict "incompressible", distributer read of a mapped key)
        self.flagged: Dict[str, int] = defaultdict(int)
        #: time covered by outermost spans
        self.root_s = 0.0
        #: group -> inclusive time
        self.inclusive_s: Dict[str, float] = defaultdict(float)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items()
                   if k == layer or k.startswith(layer + "."))


def _codec_group(args) -> str:
    return "compression." + args[0].name


def _entry_points() -> List[Tuple[object, str, object, Callable]]:
    """``(class, method, group, note)`` for every wrapped entry point.

    ``group`` is a span-group name or a callable of the call's args;
    ``note(args, result)`` returns ``(in_bytes, flagged)``.
    """
    from repro.cluster.fleet import ClusterReplayer
    from repro.cluster.replication import ReplicationManager
    from repro.cluster.routing import ClusterDistributer
    from repro.compression.estimator import SampledEstimator
    from repro.compression.huffman import HuffmanCodec
    from repro.compression.lz4 import LZ4Codec
    from repro.compression.lzf import LZFCodec
    from repro.compression.stdcodecs import Bz2Codec, LzmaCodec, ZlibCodec
    from repro.core.device import EDCBlockDevice
    from repro.core.distributer import RequestDistributer
    from repro.core.engine import CompressionEngine
    from repro.core.replay import TraceReplayer
    from repro.flash.ftl import ExtentFTL
    from repro.flash.gc import GreedyCollector, WearAwareCollector
    from repro.flash.raid import RAIS5
    from repro.flash.ssd import SimulatedSSD
    from repro.sdgen.generator import ContentStore
    from repro.sim.engine import Simulator
    from repro.sim.queueing import Server

    def in_bytes(args, result):
        return len(args[1]), False

    def incompressible(args, result):
        return 0, not result

    def mapped(args, result):
        return 0, args[1] is not None

    codecs = (LZFCodec, LZ4Codec, ZlibCodec, Bz2Codec, LzmaCodec,
              HuffmanCodec)
    points: List[Tuple[object, str, object, Callable]] = [
        (Simulator, "run", "sim", None),
        (Server, "submit", "sim.queue", None),
        (TraceReplayer, "schedule", "core.replay", None),
        (EDCBlockDevice, "submit", "core.submit", None),
        (EDCBlockDevice, "flush", "core.flush", None),
        (CompressionEngine, "plan_write", "core.engine", None),
        (RequestDistributer, "read", "core.distributer.read", mapped),
        (RequestDistributer, "write", "core.distributer.write", None),
        (RequestDistributer, "trim", "core.distributer.trim", None),
        (SampledEstimator, "is_compressible", "compression.estimator",
         incompressible),
        (ContentStore, "__init__", "sdgen.pool_build", None),
        (ContentStore, "compressed_size", "sdgen.csize", None),
        (ContentStore, "compressed_payload", "sdgen.payload", None),
        (SimulatedSSD, "submit_write", "flash.ssd.write", None),
        (SimulatedSSD, "submit_read", "flash.ssd.read", None),
        (SimulatedSSD, "trim", "flash.ssd.trim", None),
        (ExtentFTL, "write", "flash.ftl.write", None),
        (ExtentFTL, "trim", "flash.ftl.trim", None),
        (GreedyCollector, "select_victim", "flash.gc.victim", None),
        (WearAwareCollector, "select_victim", "flash.gc.victim", None),
        (RAIS5, "submit_write", "flash.raid.write", None),
        (RAIS5, "submit_read", "flash.raid.read", None),
        (ClusterReplayer, "schedule", "cluster.replay", None),
        (ClusterDistributer, "submit", "cluster.route", None),
        (ReplicationManager, "issue_part", "cluster.replication", None),
    ]
    for cls in codecs:
        points.append((cls, "compress", _codec_group, in_bytes))
        points.append((cls, "decompress", "compression.decompress", None))
    return points


class HostSpans:
    """Installs timing wrappers; use as a context manager."""

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseTotals] = {}
        self.current = self.phase("setup")
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    def phase(self, name: str) -> PhaseTotals:
        """Switch accumulation to phase ``name`` (created on first use)."""
        self.current = self.phases.setdefault(name, PhaseTotals())
        return self.current

    def _wrap(self, fn, group, note):
        clock = time.perf_counter
        stack = self._stack
        spans = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                acc = spans.current
                name = group(args) if callable(group) else group
                acc.self_s[name] += dur - child
                acc.calls[name] += 1
                acc.inclusive_s[name] += dur
                if stack:
                    stack[-1] += dur
                else:
                    acc.root_s += dur
            if note is not None:
                nbytes, flagged = note(args, result)
                acc.in_bytes[name] += nbytes
                acc.flagged[name] += flagged
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "HostSpans":
        for cls, attr, group, note in _entry_points():
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, group, note))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)
