"""Which capmhd functions the traced run wraps, and the per-layer metrics.

Each target is ``(module, attribute path, classify)``; ``classify`` turns the
call's arguments into a span-name suffix and counter increments (see
``tracer.Tracer.wrap``).  Counts are taken from the arguments before the
call, so they need no help from the program.  ``layer_metrics`` reduces a
finished trace to the per-layer metrics that ``BENCHMARK.json`` lists under
``per_layer``.
"""

import math


def _rows(points):
    return len(points) if getattr(points, "ndim", 1) > 1 else 1


def _count(name):
    return lambda args, kwargs: (None, {name: 1})


def _trig(args, kwargs):
    basis, points = args[0], args[1]
    return None, {"basis.trig_evals": _rows(points) * len(basis)}


def _rk4_steps(t0, t1, h):
    """RK4 steps between t0 and t1: the last one is shortened to land on t1."""
    span = abs(t1 - t0)
    return 0 if span == 0.0 else max(1, math.ceil(span / h - 1e-12))


def _velocity(args, kwargs):
    return None, {"flowmap.velocity_evals": _rows(args[2])}


def _contains(args, kwargs):
    return None, {"interface.contains_points": _rows(args[1])}


def targets():
    """The wrap list for one traced run.

    The window indicator calls ``integrate_positions`` twice over: with the
    window's own trajectory back to the window start, and then with the
    pre-window ``history`` back to t = 0.  The history call is recognised by
    its sampler being the ``history`` that ``fixed_point_window`` received.
    """
    window = {}

    def _window(args, kwargs):
        window["history"] = kwargs.get("history")
        return None, {"galerkin.window_attempts": 1}

    def _integrate(args, kwargs):
        call = dict(zip(("positions", "sampler", "t0", "t1", "h"), args), **kwargs)
        if window.get("history") is None or call["sampler"] is not window["history"]:
            return "window", {}
        steps = _rk4_steps(call["t0"], call["t1"], call["h"])
        return "history", {"flowmap.history_point_steps": len(call["positions"]) * steps}

    return [
        ("config", "RunConfig.build", None),
        ("basis", "Basis.phase_values", _trig),
        ("basis", "Basis.phase_derivatives", _trig),
        ("basis", "quadrature_rule", _count("basis.quadrature_rule_calls")),
        ("basis", "convection_pairing", None),
        ("basis", "strain_pairing", None),
        ("flowmap", "integrate_positions", _integrate),
        ("flowmap", "SpectralTrajectory.velocity", _velocity),
        ("interface", "advect", None),
        ("interface", "InterfaceMesh.validate", None),
        ("interface", "curvature_pairing_modes", None),
        ("interface", "InitialPhase.contains", _contains),
        ("induction", "solve_B", None),
        ("induction", "step_B", _count("induction.steps")),
        ("galerkin", "run", None),
        ("galerkin", "fixed_point_window", _window),
        ("galerkin", "apply_K", _count("galerkin.sweeps")),
        ("galerkin", "apply_N", _count("galerkin.apply_N_calls")),
        ("energy", "viscous_dissipation_rate", None),
        ("energy", "record", None),
        ("energy", "EnergyLedger.write_csv", None),
        ("cli", "_write_json", None),
        ("interface", "write_mesh", None),
        ("varifold", "lift", None),
        ("varifold", "write_varifold", None),
    ]


_WRITES = (
    "energy.EnergyLedger.write_csv",
    "cli._write_json",
    "interface.write_mesh",
    "varifold.lift",
    "varifold.write_varifold",
)

COUNTS = (
    "basis.trig_evals",
    "basis.quadrature_rule_calls",
    "flowmap.history_point_steps",
    "flowmap.velocity_evals",
    "interface.contains_points",
    "induction.steps",
    "galerkin.apply_N_calls",
    "galerkin.sweeps",
    "galerkin.window_attempts",
)


def layer_metrics(tracer, windows, bytes_written):
    """Per-layer metrics of one traced run, as {name: value}.

    ``windows`` is the number of accepted windows of the run and
    ``bytes_written`` the size of its output directory.
    """
    times = tracer.times()

    def self_s(*names):
        return sum(times.get(n, (0.0, 0.0, 0))[0] for n in names)

    def incl_s(*names):
        return sum(times.get(n, (0.0, 0.0, 0))[1] for n in names)

    out = {name: tracer.counts.get(name, 0) for name in COUNTS}
    trig_s = self_s("basis.Basis.phase_values", "basis.Basis.phase_derivatives")
    out.update(
        {
            "config.build_s": incl_s("config.RunConfig.build"),
            "basis.phase_values_s": self_s("basis.Basis.phase_values"),
            "basis.phase_derivatives_s": self_s("basis.Basis.phase_derivatives"),
            "basis.ns_per_trig_eval": 1e9 * trig_s / max(out["basis.trig_evals"], 1),
            "basis.pairing_s": self_s("basis.convection_pairing", "basis.strain_pairing"),
            "flowmap.window_trace_s": incl_s("flowmap.integrate_positions[window]"),
            "flowmap.history_trace_s": incl_s("flowmap.integrate_positions[history]"),
            "interface.advect_s": incl_s("interface.advect"),
            "interface.validate_s": incl_s("interface.InterfaceMesh.validate"),
            "interface.curvature_s": incl_s("interface.curvature_pairing_modes"),
            "induction.solve_B_s": incl_s("induction.solve_B"),
            "galerkin.apply_N_s": self_s("galerkin.apply_N"),
            "galerkin.windows": windows,
            "galerkin.sweeps_per_window": out["galerkin.sweeps"] / max(windows, 1),
            "energy.dissipation_s": incl_s("energy.viscous_dissipation_rate"),
            "energy.record_s": incl_s("energy.record"),
            "cli.write_s": incl_s(*_WRITES),
            "cli.bytes_written": bytes_written,
        }
    )
    return out
