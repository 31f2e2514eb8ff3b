"""Span tracing of corfuse's layers, installed from outside the package.

Each traced function is replaced by a wrapper that records one span (name,
start, end, parent span, stream id, whether it raised) into in-memory
columns.  Functions are replaced in every corfuse module that binds them by
name, not only where they are defined: ``eskf`` imports ``predict`` and the
``so3`` helpers by name and ``cli`` imports ``run_experiment`` and
``write_events`` by name, so patching only the defining module would record
nothing on those paths.  The ``so3`` helpers are replaced only in ``eskf``,
so ``so3`` counts the rotation work of the filter and not that of ``sim``
or ``experiments``.

Counts that a span alone cannot give (solver fallbacks, clamped bandwidth
dimensions, bytes written) are taken by observers that run after the span
has ended, so they add to the tracing overhead but not to any span.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

SETUP, PASS = 0, 1

# Layer of every span name, in report order.
LAYERS = ("eskf", "so3", "filter_core", "kernel_bandwidth", "adapt_vb",
          "adapt_residual", "linalg", "sim", "dataset", "experiments", "cli")

_SO3_HELPERS = ("quat_conjugate", "quat_from_rotvec", "quat_multiply",
                "quat_normalize", "quat_to_rotmat", "quat_to_rotvec",
                "rotation_angle", "rotvec_to_rotmat", "skew")


def _dropped_total(engine) -> int:
    return sum(engine.dropped.values())


class Tracer:
    """Records spans and counters for the layer functions ``install`` wraps.

    ``install`` replaces the functions, ``uninstall`` puts the originals
    back.  Call ``begin`` before each set-up or pass: spans carry its stream
    id, and counters are kept per phase.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._cols = {key: array("q") for key in
                      ("id", "name", "start", "end", "parent", "stream", "error")}
        self._stack: list[int] = []
        self._next_id = 0
        self.stream = 0
        self.phase = SETUP
        self.stream_phase: dict[int, int] = {}
        self.counters = (defaultdict(float), defaultdict(float))
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counters[self.phase][name] += value

    def _wrap(self, name: str, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_index[name]
        cols = self._cols
        put_id, put_name, put_start, put_end = (
            cols["id"].append, cols["name"].append, cols["start"].append, cols["end"].append)
        put_parent, put_stream, put_error = (
            cols["parent"].append, cols["stream"].append, cols["error"].append)
        stack = self._stack
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            error = 1
            start = perf()
            try:
                out = fn(*args, **kwargs)
                error = 0
            finally:
                end = perf()
                stack.pop()
                put_id(span_id)
                put_name(name_id)
                put_start(start)
                put_end(end)
                put_parent(parent)
                put_stream(self.stream)
                put_error(error)
            if after is not None:
                after(self, args, out, token)
            return out

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr: str, name: str,
                        sites: Optional[tuple[str, ...]] = None, **hooks) -> None:
        original = getattr(module, attr)
        traced = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "corfuse" and not mod_name.startswith("corfuse."):
                continue
            if sites is not None and mod_name not in sites:
                continue
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, traced)

    def _patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        self._patch(cls, attr, self._wrap(name, getattr(cls, attr), **hooks))

    def install(self) -> None:
        """Replace every traced function at its definition and import sites."""
        from corfuse import (adapt_residual, adapt_vb, cli, dataset, eskf,
                             experiments, filter_core, kernel_bandwidth, linalg,
                             sim, so3)

        def dropped_after(tr, args, out, before_count):
            tr.count("eskf.dropped", _dropped_total(args[0]) - before_count)

        self._patch_method(eskf.FusionEngine, "process", "eskf.process",
                           before=lambda args: _dropped_total(args[0]), after=dropped_after)
        for fn in ("propagate_nominal", "error_transition", "observation_residual",
                   "inject_and_reset"):
            self._patch_function(eskf, fn, f"eskf.{fn}")
        for fn in _SO3_HELPERS:
            self._patch_function(so3, fn, f"so3.{fn}", sites=("corfuse.eskf",))

        def update_after(tr, args, out, token):
            tr.count("filter_core.regularized", float(out[1].regularized))

        self._patch_function(filter_core, "predict", "filter_core.predict")
        for fn in ("mcckf_update", "kf_update"):
            self._patch_function(filter_core, fn, "filter_core.update", after=update_after)

        def bandwidth_after(tr, args, out, token):
            sigma = np.asarray(out)
            tr.count("kernel_bandwidth.clamped", float(np.sum(sigma <= args[0].sigma_min)))
            tr.count("kernel_bandwidth.dims", float(sigma.size))

        self._patch_method(kernel_bandwidth.BandwidthState, "update",
                           "kernel_bandwidth.update", after=bandwidth_after)

        def smooth_after(tr, args, out, token):
            tr.count("adapt_vb.snapshots_smoothed", float(len(args[0].snapshots)))

        self._patch_method(adapt_vb.VbNoiseAdapter, "refresh", "adapt_vb.refresh")
        self._patch_function(adapt_vb, "backward_smooth", "adapt_vb.backward_smooth",
                             after=smooth_after)
        self._patch_method(adapt_residual.ResidualNoiseAdapter, "push", "adapt_residual.push")
        self._patch_method(adapt_residual.ResidualNoiseAdapter, "refresh",
                           "adapt_residual.refresh")

        def solve_after(tr, args, out, token):
            tr.count("linalg.spd_solve.fallbacks", float(out[1]))

        def project_after(tr, args, out, token):
            # An unclipped projection returns the symmetric part unchanged.
            a = np.asarray(args[0], dtype=float)
            tr.count("linalg.psd_project.clipped", float(not np.array_equal(out, 0.5 * (a + a.T))))

        self._patch_function(linalg, "spd_solve", "linalg.spd_solve", after=solve_after)
        self._patch_function(linalg, "psd_project", "linalg.psd_project", after=project_after)

        def events_after(tr, args, out, token):
            tr.count("sim.events", float(len(out)))

        self._patch_function(sim, "generate_truth", "sim.generate_truth")
        self._patch_function(sim, "sample_sensors", "sim.sample_sensors", after=events_after)

        def written_after(tr, args, out, token):
            tr.count("dataset.bytes_written", float(os.path.getsize(args[0])))

        def read_after(tr, args, out, token):
            tr.count("dataset.bytes_read", float(os.path.getsize(args[0])))

        for fn in ("write_events", "write_truth"):
            self._patch_function(dataset, fn, f"dataset.{fn}", after=written_after)
        for fn in ("ingest_dataset", "read_truth"):
            self._patch_function(dataset, fn, f"dataset.{fn}", after=read_after)

        def experiment_after(tr, args, out, token):
            if args[0].out:
                out_dir = Path(args[0].out)
                tr.count("experiments.bytes_written",
                         float(os.path.getsize(out_dir / "estimates.csv")
                               + os.path.getsize(out_dir / "metrics.json")))

        self._patch_function(experiments, "run_experiment", "experiments.run_experiment",
                             after=experiment_after)
        self._patch_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin(self, stream: int, phase: int) -> None:
        self.stream = stream
        self.phase = phase
        self.stream_phase[stream] = phase

    # -- results --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Span columns ordered by span id."""
        cols = {key: np.frombuffer(col, dtype=np.int64).copy()
                for key, col in self._cols.items()}
        order = np.argsort(cols["id"], kind="stable")
        return {key: col[order] for key, col in cols.items()}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())

    def summary(self, setups: int, passes: int) -> dict[str, float]:
        """Per-stream figures: one set-up's share plus one traced pass's share.

        Returns, for every span name and every layer, ``calls``, ``self_ns``
        and ``errors``, plus the observer counters, each as the set-up
        total divided by ``setups`` plus the pass total divided by
        ``passes``.
        """
        cols = self.spans()
        n = cols["id"].size
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        phase_of_stream = np.zeros(max(self.stream_phase, default=0) + 1, dtype=np.int64)
        for stream, phase in self.stream_phase.items():
            phase_of_stream[stream] = phase
        span_phase = phase_of_stream[cols["stream"]]

        out: dict[str, float] = defaultdict(float)
        for phase, divisor in ((SETUP, setups), (PASS, passes)):
            mask = span_phase == phase
            names = cols["name"][mask]
            for key, values in (("calls", np.ones(n)), ("self_ns", self_ns),
                                ("errors", cols["error"])):
                # Sum whole numbers first and divide once, so counts stay exact.
                totals = np.bincount(names, weights=values[mask], minlength=len(self.names))
                for index, name in enumerate(self.names):
                    share = float(totals[index]) / divisor
                    out[f"{name}.{key}"] += share
                    out[f"{name.split('.')[0]}.{key}"] += share
            for name, value in self.counters[phase].items():
                out[name] += value / divisor
        return out
