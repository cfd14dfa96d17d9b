"""Characteristic transport: the flow map of a divergence-free velocity field.

Solves dX/dt = u(t, X) forward and backward with classical fixed-step RK4
(last step shortened to land exactly on the target time).  Fixed stepping
keeps trajectories reproducible bit-for-bit for a given configuration;
positions are never wrapped into the periodic cell.

A velocity sampler is any object with ``velocity(t, points) -> (m, d)``.
"""

import numpy as np

from .errors import IntegrationError


class SpectralTrajectory:
    """Velocity sampler from coefficient snapshots, linear in time.

    Linear interpolation of coefficient vectors preserves divergence-freeness
    exactly (a linear combination of divergence-free fields).  Queries outside
    [times[0], times[-1]] clamp to the nearest endpoint.  Each snapshot also
    keeps its ``Lattice`` coefficients, which are linear in the coefficient
    vector, so an off-grid query interpolates those rows and the sampler
    holds the rows of the last time it was asked about: the RK4 stages that
    share a time share one interpolation.
    """

    def __init__(self, basis, times, coefficients, lattice_rows=None):
        self.basis = basis
        self.times = np.asarray(times, dtype=np.float64)
        # a copy: the lattice rows are built from it once, and must not drift
        # from it when the caller updates its array in place
        self.coefficients = np.array(coefficients, dtype=np.float64, ndmin=2)
        if self.times.ndim != 1 or self.times.size != self.coefficients.shape[0]:
            raise ValueError("times and coefficient rows must match")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.coefficients.shape[1] != len(basis):
            raise ValueError("coefficient rows must match the basis size")
        if lattice_rows is None:
            lattice_rows = basis.lattice.coefficients(self.coefficients)
        self.lattice_rows = lattice_rows
        self._last = (None, None)

    def _interpolate(self, rows, t):
        times = self.times
        if t <= times[0]:
            return rows[0]
        if t >= times[-1]:
            return rows[-1]
        j = int(np.searchsorted(times, t, side="right"))
        t0, t1 = times[j - 1], times[j]
        theta = (t - t0) / (t1 - t0)
        return (1.0 - theta) * rows[j - 1] + theta * rows[j]

    def coefficients_at(self, t):
        return self._interpolate(self.coefficients, t)

    def _lattice_at(self, t):
        """``Lattice`` coefficients of the field at time t: (L, d)."""
        last_t, rows = self._last
        if last_t != t:
            rows = self._interpolate(self.lattice_rows, t)
            self._last = (t, rows)
        return rows

    def velocity(self, t, points):
        return self.basis.lattice.values(self._lattice_at(t), points)

    def extended(self, times, coefficients):
        """New trajectory with extra snapshots appended after the current end."""
        times = np.asarray(times, dtype=np.float64)
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
        if times.size and abs(times[0] - self.times[-1]) <= 1e-14:
            times = times[1:]
            coefficients = coefficients[1:]
        rows = self.basis.lattice.coefficients(coefficients)
        return SpectralTrajectory(
            self.basis,
            np.concatenate([self.times, times]),
            np.concatenate([self.coefficients, coefficients]),
            lattice_rows=np.concatenate([self.lattice_rows, rows]),
        )


def _check_finite(step, stages, t, reference_points):
    """Raise ``IntegrationError`` at the first row with a non-finite RK4 stage.

    ``step`` is the stages' weighted sum, non-finite wherever a stage is, so
    it is the one check of a finite step.  It also overflows where every
    stage is finite; such rows are left to the caller's own checks.
    """
    if np.all(np.isfinite(step)):
        return
    bad_rows = ~np.all([np.isfinite(k).all(axis=1) for k in stages], axis=0)
    if np.any(bad_rows):
        bad = int(np.flatnonzero(bad_rows)[0])
        raise IntegrationError(
            f"non-finite velocity sample in the RK4 step from t={t:.6g}, "
            f"x={reference_points[bad]}",
            t=t,
            x=np.array(reference_points[bad]),
        )


def step_sizes(t0, t1, h):
    """Signed steps of h from t0 to t1, the last one the span less the others.

    The last step is taken from the span, not from t1 less the time reached,
    so it stays nonzero where t0 + (n - 1) h rounds to t1.
    """
    span = t1 - t0
    if span == 0.0:
        return np.empty(0)
    n = max(1, int(np.ceil(abs(span) / h - 1e-12)))
    sizes = np.full(n, np.sign(span) * h)
    sizes[-1] = span - sizes[:-1].sum()
    return sizes


def integrate_positions(positions, sampler, t0, t1, h):
    """RK4 path of every row of ``positions`` from t0 to t1 (either direction)."""
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.array(positions, dtype=np.float64)
    t = t0
    for dt in step_sizes(t0, t1, h):
        k1 = sampler.velocity(t, x)
        # one midpoint time for both stages, so a SpectralTrajectory
        # interpolates it once
        t_half = t + dt / 2
        k2 = sampler.velocity(t_half, x + (dt / 2) * k1)
        k3 = sampler.velocity(t_half, x + (dt / 2) * k2)
        t_end = t + dt
        k4 = sampler.velocity(t_end, x + dt * k3)
        step = k1 + 2 * k2 + 2 * k3 + k4
        _check_finite(step, (k1, k2, k3, k4), t, x)
        x = x + (dt / 6) * step
        t = t_end
    return x
