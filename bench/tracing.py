"""Span tracing of invpower from outside the package.

A Tracer replaces public functions at the module attributes where their
callers look them up (``invpower.cli.shoot_ground_energy``,
``invpower.oracle.evaluate_terms``, ...) with wrappers that record one span
per call: name, start, end, parent span and operation id.  Spans are kept in
flat arrays in memory and written out when the run ends.  The layer of a
span is the module that defines the function.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Dict, Optional

import numpy as np

import invpower.asymptotics
import invpower.cli
import invpower.oracle
import invpower.series

LAYERS = ("cli", "reduction", "asymptotics", "potentials", "groundstate",
          "series", "oracle")

# (module, attribute): where a caller looks up a public function.  The
# benchmark's own calls go through invpower.cli.main, invpower.series.*,
# invpower.asymptotics.origin_params and invpower.oracle.integrate_radial.
WRAP_POINTS = (
    (invpower.cli, "main"),
    (invpower.cli, "build_parser"),
    (invpower.cli, "reduce_problem"),
    (invpower.cli, "origin_params"),
    (invpower.cli, "special_p"),
    (invpower.cli, "solve_ground_state"),
    (invpower.cli, "evaluate_ground_state"),
    (invpower.cli, "shoot_ground_energy"),
    (invpower.cli, "finite_difference_residual"),
    (invpower.cli, "build_series"),
    (invpower.cli, "evaluate_solution"),
    (invpower.cli, "ode_residual"),
    (invpower.oracle, "evaluate_terms"),
    (invpower.oracle, "term_with_power"),
    (invpower.oracle, "integrate_radial"),
    (invpower.series, "build_series"),
    (invpower.series, "evaluate_solution"),
    (invpower.series, "ode_residual"),
    (invpower.asymptotics, "origin_params"),
)

# span-name suffix drawn from the arguments
_VARIANT = {
    "build_series": lambda args: args[0].strategy.value,
    "integrate_radial": lambda args: args[3].spacing.value,
}
# work units of one call: points, nodes or iterations
_UNITS = {
    "evaluate_solution": lambda args, result: np.size(args[2]),
    "ode_residual": lambda args, result: np.size(args[2]),
    "evaluate_ground_state": lambda args, result: np.size(args[1]),
    "integrate_radial": lambda args, result: args[3].n_points,
    "shoot_ground_energy": lambda args, result: result.iterations,
}


class Tracer:
    """Records spans while installed and not paused."""

    def __init__(self):
        self.names = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self.current_op = -1
        self.paused = False
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for module, attr in WRAP_POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn):
        base = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        variant = _VARIANT.get(fn.__name__)
        units = _UNITS.get(fn.__name__)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            name = f"{base}[{variant(args)}]" if variant else base
            index = len(self.start)
            self.name_id.append(self._name_id(name))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.units.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
            if units is not None:
                self.units[index] = units(args, result)
            return result

        return traced

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "units": np.frombuffer(self.units, dtype=float)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


# name, unit, better; the order is the order of the report
PER_LAYER = (
    ("cli.build_parser_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("reduction.reduce_problem_us", "us", "lower"),
    ("asymptotics.origin_params_us", "us", "lower"),
    ("groundstate.solve_us", "us", "lower"),
    ("groundstate.evaluate_us_per_point", "us", "lower"),
    ("potentials.evaluate_calls_per_shoot", "count", "lower"),
    ("potentials.evaluate_ms_per_shoot", "ms", "lower"),
    ("oracle.shoot_ms", "ms", "lower"),
    ("oracle.shoot_iterations", "count", "lower"),
    ("oracle.ms_per_shoot_iteration", "ms", "lower"),
    ("oracle.fd_residual_ms", "ms", "lower"),
    ("oracle.numerov_ns_per_node", "ns", "lower"),
    ("oracle.rk4_us_per_node", "us", "lower"),
    ("series.build_one_sided_ms", "ms", "lower"),
    ("series.build_windowed_ms", "ms", "lower"),
    ("series.evaluate_us_per_point", "us", "lower"),
    ("series.residual_us_per_point", "us", "lower"),
    *((f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(spans: Dict[str, np.ndarray], n_ops: int,
                  overhead_pct: float) -> Dict[str, Optional[float]]:
    """Per-layer figures from the spans of ``n_ops`` operations.

    A figure whose spans never occurred is None: that layer did no such work
    on this workload, which is not the same as taking no time."""
    names = spans["names"]
    name = names[spans["name_id"]] if len(names) else np.array([], dtype=str)
    layer = np.array([n.split(".", 1)[0] for n in name], dtype=str)
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    units = spans["units"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def spans_of(span_name):
        return name == span_name

    def mean(span_name, scale):
        sel = spans_of(span_name)
        return float(dur[sel].mean() * scale) if sel.any() else None

    def per_unit(span_name, scale):
        sel = spans_of(span_name)
        return float(dur[sel].sum() / units[sel].sum() * scale) if sel.any() else None

    shoots = spans_of("oracle.shoot_ground_energy")
    n_shoots = int(shoots.sum())
    in_shoot = spans_of("potentials.evaluate_terms") & has_parent
    in_shoot[in_shoot] = shoots[parent[in_shoot]]
    mains = int(spans_of("cli.main").sum())
    cli_self = float(self_time[layer == "cli"].sum())

    out = {
        "cli.build_parser_ms": mean("cli.build_parser", 1e3),
        "cli.self_ms": cli_self / mains * 1e3 if mains else None,
        "reduction.reduce_problem_us": mean("reduction.reduce_problem", 1e6),
        "asymptotics.origin_params_us": mean("asymptotics.origin_params", 1e6),
        "groundstate.solve_us": mean("groundstate.solve_ground_state", 1e6),
        "groundstate.evaluate_us_per_point": per_unit("groundstate.evaluate_ground_state", 1e6),
        "potentials.evaluate_calls_per_shoot":
            float(in_shoot.sum()) / n_shoots if n_shoots else None,
        "potentials.evaluate_ms_per_shoot":
            float(dur[in_shoot].sum()) / n_shoots * 1e3 if n_shoots else None,
        "oracle.shoot_ms": mean("oracle.shoot_ground_energy", 1e3),
        "oracle.shoot_iterations":
            float(units[shoots].mean()) if n_shoots else None,
        "oracle.ms_per_shoot_iteration": per_unit("oracle.shoot_ground_energy", 1e3),
        "oracle.fd_residual_ms": mean("oracle.finite_difference_residual", 1e3),
        "oracle.numerov_ns_per_node": per_unit("oracle.integrate_radial[uniform]", 1e9),
        "oracle.rk4_us_per_node": per_unit("oracle.integrate_radial[log]", 1e6),
        "series.build_one_sided_ms": mean("series.build_series[one_sided]", 1e3),
        "series.build_windowed_ms": mean("series.build_series[windowed]", 1e3),
        "series.evaluate_us_per_point": per_unit("series.evaluate_solution", 1e6),
        "series.residual_us_per_point": per_unit("series.ode_residual", 1e6),
    }
    for layer_name in LAYERS:
        sel = layer == layer_name
        out[f"{layer_name}.self_ms_per_op"] = (float(self_time[sel].sum()) / n_ops * 1e3
                                          if sel.any() else None)
    out["trace.overhead_pct"] = overhead_pct
    return out
