"""Properties every benchmark run must have, checked after the clock stops.

None of these compares against a stored copy of earlier output: each is a
property the method guarantees (certified windows, the forcing bound, volume
preservation of the flow map, agreement of the two indicator pathways) or
a consistency check between the written artifacts and the in-memory result.
Byte-identical ledgers across the runs of one invocation are checked by the
caller, which sees every run.
"""

import json
import os

import numpy as np
from capmhd.basis import quadrature_rule
from capmhd.galerkin import N_BOUND_COEFF, n_bound_bracket
from capmhd.interface import enclosed_volume, point_in_mesh

# Relative change of the enclosed volume from t = 0 to T.  The flow map of a
# divergence-free field preserves volume; the measured drift on the
# workloads is 1e-7 to 1e-6 (RK4 and chord error of the mesh).
VOLUME_DRIFT_BOUND = 1e-5

# Quadrature points closer than this to the final mesh are not compared:
# there the back-traced indicator and the ray cast against the polygonal
# mesh may disagree by RK4 error plus chord sagitta (about 1e-4).
INDICATOR_BAND = 1e-2


def _distance_lower_bound(mesh, points):
    """A lower bound of each point's distance to the mesh surface.

    Every point of an element lies within the element's longest edge of each
    of its corners, so distance(point, mesh) >= distance to the nearest
    vertex - the longest edge of the mesh.
    """
    corners = mesh.element_corners()
    edges = np.roll(corners, 1, axis=1) - corners
    longest = float(np.max(np.linalg.norm(edges, axis=-1)))
    diff = points[:, None, :] - mesh.vertices[None, :, :]
    nearest = np.sqrt(np.min(np.einsum("mvd,mvd->mv", diff, diff), axis=1))
    return nearest - longest


def _check(ok, value, limit, **extra):
    return {"ok": bool(ok), "value": value, "limit": limit, **extra}


def check_run(config, result, exit_code, out_dir):
    """Named checks of one run: {name: {"ok": bool, "value": ..., "limit": ...}}."""
    checks = {"exit_code": _check(exit_code == 0, exit_code, 0)}
    if result is None:
        checks["result_captured"] = _check(False, None, None)
        return checks

    tol = config.tol
    final_residuals = [w.residual_history[-1] for w in result.windows]
    worst = max(final_residuals)
    checks["window_certificates"] = _check(worst < tol, worst, tol)

    galerkin_max = float(np.max(result.galerkin_residual()))
    limit = len(result.windows) * tol
    checks["galerkin_residual"] = _check(galerkin_max <= limit, galerkin_max, limit)

    ratios = [
        n_norm / (N_BOUND_COEFF * n_bound_bracket(u_norm, b_norm, bv))
        for _, n_norm, u_norm, b_norm, bv in result.n_bound_samples
    ]
    worst_ratio = max(ratios)
    checks["forcing_bound"] = _check(worst_ratio < 1.0, worst_ratio, 1.0)

    v0 = enclosed_volume(result.states[0].mesh)
    v1 = enclosed_volume(result.states[-1].mesh)
    drift = abs(v1 - v0) / v0
    checks["volume_drift"] = _check(drift <= VOLUME_DRIFT_BOUND, drift, VOLUME_DRIFT_BOUND)

    # every workload is two-phase, so the window driver must have sampled
    # the indicator at the final node
    last = result.windows[-1]
    chi = last.chi_cache[-1]
    if chi is None:
        checks["indicator_vs_mesh"] = _check(False, None, 0)
    else:
        points, _ = quadrature_rule(config.dimension, config.quadrature_order)
        mesh = last.meshes[-1]
        far = _distance_lower_bound(mesh, points) > INDICATOR_BAND
        geometric = point_in_mesh(mesh, points[far])
        mismatches = int(np.sum(np.asarray(chi)[far] != geometric))
        checks["indicator_vs_mesh"] = _check(
            mismatches == 0 and np.any(far), mismatches, 0, points_compared=int(np.sum(far))
        )

    with open(os.path.join(out_dir, "ledger.csv")) as handle:
        ledger_rows = sum(1 for _ in handle) - 1
    with open(os.path.join(out_dir, "summary.json")) as handle:
        summary = json.load(handle)
    checks["artifacts"] = _check(
        ledger_rows == len(result.states) and summary["pass"] is True,
        {"ledger_rows": ledger_rows, "summary_pass": summary["pass"]},
        {"ledger_rows": len(result.states), "summary_pass": True},
    )
    return checks
