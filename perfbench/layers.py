"""Charge cProfile self time to the repository's layers.

Each profiled function belongs to the layer of the ``repro`` module that
defines it.  Stdlib and C functions (``heapq``, ``json``, file writes)
belong to no layer of their own: their self time is charged to the
nearest calling ``repro`` function, split over call paths in proportion
to the time each path spent in them.  Time with no ``repro`` caller at
all (the benchmark's own loop) lands in ``other``.  The bins therefore
tile the profile's total self time exactly.
"""

from __future__ import annotations

import os
import pstats

#: Layers in report order; ``other`` takes every ``repro`` module that is
#: on no hot path (``core``, ``util``, ``workloads``, ``simnet.cluster``)
#: plus the benchmark's own frames.
LAYERS = (
    "kernel",
    "network",
    "resources",
    "transports",
    "hadoop",
    "mrmpi",
    "cluster",
    "obs",
    "other",
)

#: ``repro``-relative path prefix -> layer; first match wins.  The
#: self-profiler is charged to ``kernel``: it runs inside the kernel's
#: profiled dispatch loop.
_PREFIXES = (
    ("simnet/kernel.py", "kernel"),
    ("simnet/profiler.py", "kernel"),
    ("simnet/network.py", "network"),
    ("simnet/engine.py", "network"),
    ("simnet/resources.py", "resources"),
    ("transports/", "transports"),
    ("hadoop/", "hadoop"),
    ("mrmpi/", "mrmpi"),
    ("cluster/", "cluster"),
    ("obs/", "obs"),
)


class LayerMap:
    """Maps a profiled function to its layer, given the ``repro`` source root."""

    def __init__(self, repro_dir: str):
        self.root = os.path.realpath(repro_dir) + os.sep
        self._by_file: dict = {}

    def layer_of(self, func: tuple) -> str | None:
        """The function's layer, or None when it is not ``repro`` code."""
        filename = func[0]
        if filename not in self._by_file:
            self._by_file[filename] = self._layer_of_file(filename)
        return self._by_file[filename]

    def _layer_of_file(self, filename: str) -> str | None:
        path = os.path.realpath(filename)
        if not path.startswith(self.root):
            return None
        rel = path[len(self.root):].replace(os.sep, "/")
        for prefix, layer in _PREFIXES:
            if rel.startswith(prefix):
                return layer
        return "other"


def layer_seconds(stats: pstats.Stats, layers: LayerMap) -> dict:
    """Self seconds per layer; the values sum to ``stats.total_tt``."""
    table = stats.stats
    owners: dict = {}

    def owner(func) -> dict:
        """Layer -> share of ``func``'s time, resolved through its callers."""
        if func in owners:
            return owners[func]
        layer = layers.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        owners[func] = {"other": 1.0}  # provisional: cuts caller cycles
        callers = table[func][4] if func in table else {}
        weights = {c: w[3] for c, w in callers.items() if c != func}
        total = sum(weights.values())
        share: dict = {}
        if total > 0:
            for caller, weight in weights.items():
                for name, part in owner(caller).items():
                    share[name] = share.get(name, 0.0) + part * weight / total
        owners[func] = share or {"other": 1.0}
        return owners[func]

    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, tt, _, callers) in table.items():
        if tt <= 0:
            continue
        layer = layers.layer_of(func)
        if layer is not None:
            seconds[layer] += tt
            continue
        # Charge each call path the self time spent along it.
        paths = {c: w[2] for c, w in callers.items()}
        total = sum(paths.values())
        if total <= 0:
            paths = {c: w[3] for c, w in callers.items()}
            total = sum(paths.values())
        if total <= 0:
            seconds["other"] += tt
            continue
        for caller, weight in paths.items():
            for name, part in owner(caller).items():
                seconds[name] += tt * part * weight / total
    return seconds
