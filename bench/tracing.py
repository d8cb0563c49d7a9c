"""Per-layer spans, recorded from outside the program.

The traced run wraps each public function listed in TRACED and rebinds the
wrapper in place of every module attribute, registry entry or class
attribute that binds the original, so calls between the program's modules
go through it too. A span is (name, parent span, start, end); spans are kept
in memory and summed per pass. A span's self time is its duration minus the
durations of the spans directly beneath it, which never overlap because the
program is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function or Class.method) of every traced call
TRACED = (
    ("cli", "main"),
    ("experiment", "run_simulate"),
    ("experiment", "write_text_atomic"),
    ("scheduler", "run_queue"),
    ("allocation", "comdap_allocate"),
    ("allocation", "greedy_allocate"),
    ("allocation", "louvain"),
    ("allocation", "cri"),
    ("allocation", "cfm"),
    ("topology", "induced_diameter"),
    ("topology", "CouplingGraph.incident_edges"),
    ("transpile", "initial_layout"),
    ("transpile", "route"),
    ("transpile", "depth"),
    ("transpile", "pst_estimate"),
    ("calibration", "avg_cnot_error"),
    ("calibration", "validate_snapshot"),
    ("calibration", "CalibrationSeries.cycle_slice"),
    ("calibration", "load_calibration_csv"),
    ("calibration", "synth_drift"),
    ("defense", "calibrate_threshold"),
    ("defense", "detect"),
    ("defense", "qubit_divergence"),
)
ALLOCATORS = ("allocation.comdap_allocate", "allocation.greedy_allocate")


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{m}.{a.rpartition('.')[2]}" for m, a in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.placements = 0  # allocator calls that returned a partition
        self.swaps = 0  # SWAPs in every routed circuit
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, on_result=None):
        name_id, parent, start, end, open_ = self.name_id, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_placement(self, part) -> None:
        self.placements += part is not None

    def _count_swaps(self, routed) -> None:
        self.swaps += routed.swap_count

    def _set(self, owner, key, value) -> None:
        """Bind key of a module, class or dict to value, remembering the old value."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Rebind every traced function of the imported mtqsim package."""
        modules = [m for n, m in sys.modules.items() if n == "mtqsim" or n.startswith("mtqsim.")]
        registry = sys.modules["mtqsim.allocation"].ALLOCATORS
        for nid, (mod_name, attr) in enumerate(TRACED):
            name = self.names[nid]
            on_result = (
                self._count_placement if name in ALLOCATORS
                else self._count_swaps if name == "transpile.route"
                else None
            )
            owner = sys.modules[f"mtqsim.{mod_name}"]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._set(cls, fn_name, self._wrap(nid, getattr(cls, fn_name), on_result))
                continue
            original = getattr(owner, fn_name)
            wrapper = self._wrap(nid, original, on_result)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._set(module, key, wrapper)
            for key in [k for k, v in registry.items() if v is original]:
                self._set(registry, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def reset(self) -> None:
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]
        self.placements = self.swaps = 0

    def pass_metrics(self, probe_starts: list[float], probe_durations: list[float], speed: float) -> dict[str, float]:
        """Calls, seconds and self seconds per traced function over the spans
        recorded since the last reset, plus the allocation and routing counts.

        Seconds leave out the host-speed probe's bursts that ran inside each
        span (a burst runs to its end inside the span it interrupts) and are
        then scaled by the pass's speed factor, as the pass's own time is.
        """
        n, k = len(self.start), len(self.names)
        ids = np.array(self.name_id, dtype=np.intc)
        parent = np.array(self.parent, dtype=np.intc)
        start, end = np.array(self.start), np.array(self.end)
        probe_before = np.concatenate(([0.0], np.cumsum(probe_durations)))
        starts = np.array(probe_starts)
        inside = probe_before[np.searchsorted(starts, end)] - probe_before[np.searchsorted(starts, start)]
        dur = (end - start - inside) * speed
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_t, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        attempts = sum(out[f"{a}.calls"] for a in ALLOCATORS)
        out["scheduler.alloc.attempts"] = attempts
        out["scheduler.alloc.useful_ratio"] = self.placements / attempts if attempts else 0.0
        out["transpile.route.swaps"] = self.swaps
        return out

    def write(self, path: Path) -> None:
        """Save the recorded spans; op numbers each top-level call's spans."""
        parent = np.array(self.parent, dtype=np.intc)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.intc),
            parent=parent,
            op=np.cumsum(parent < 0) - 1,
            start=np.array(self.start),
            end=np.array(self.end),
        )
