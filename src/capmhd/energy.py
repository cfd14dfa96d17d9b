"""Energy ledger: every term of the generalized energy inequality.

Along a trajectory the ledger collects, per recorded time,

    kinetic    = 1/2 ||u||^2            (Parseval, coefficient norm)
    magnetic   = 1/2 ||B||^2
    tension    = kappa * perimeter
    viscous_cum  = cumulative integral of 2 nu(chi) |Du|^2
    resistive_cum = cumulative sigma * integral ||grad B||^2

together with the initial energy E0.  The certified statement is the
inequality

    kinetic + magnetic + tension + viscous_cum + resistive_cum <= E0 + tau_E,

which should be near-equality for smooth single-phase decay (the transfer
term between the velocity and magnetic equations cancels); the identity
itself is a diagnostic, not the gate.
"""

from dataclasses import dataclass, field

import numpy as np

from .interface import format_rows, perimeter

COLUMNS = ("t", "kinetic", "magnetic", "tension", "viscous_cum", "resistive_cum", "E0")


@dataclass
class EnergyLedger:
    """Append-only time series of the energy inequality terms."""

    E0: float
    rows: list = field(default_factory=list)

    def append(self, t, kinetic, magnetic, tension, viscous_cum, resistive_cum):
        values = (t, kinetic, magnetic, tension, viscous_cum, resistive_cum, self.E0)
        if not all(np.isfinite(v) for v in values):
            raise ValueError("ledger entries must be finite")
        if min(kinetic, magnetic, tension, viscous_cum, resistive_cum) < 0.0:
            raise ValueError("ledger entries must be nonnegative")
        if self.rows:
            last = self.rows[-1]
            if viscous_cum < last[4] or resistive_cum < last[5]:
                raise ValueError("cumulative columns must be nondecreasing")
        self.rows.append(tuple(float(v) for v in values))

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        idx = COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def totals(self):
        """kinetic + magnetic + tension + viscous_cum + resistive_cum per row."""
        arr = np.array(self.rows)
        return arr[:, 1:6].sum(axis=1)

    def write_csv(self, path):
        row_format = ",".join(["%.12g"] * len(COLUMNS))
        text = ",".join(COLUMNS) + "\n" + format_rows(row_format, self.rows)
        with open(str(path), "w") as handle:
            handle.write(text)

    @classmethod
    def read_csv(cls, path):
        with open(str(path)) as handle:
            lines = [line.strip() for line in handle if line.strip()]
        if not lines or lines[0].split(",") != list(COLUMNS):
            raise ValueError(f"malformed ledger CSV: expected header {','.join(COLUMNS)}")
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != len(COLUMNS):
                raise ValueError(f"malformed ledger CSV row: {line!r}")
            rows.append([float(p) for p in parts])
        if not rows:
            raise ValueError("ledger CSV contains no rows")
        ledger = cls(E0=rows[0][-1])
        for row in rows:
            ledger.append(*row[:-1])
            if row[-1] != ledger.E0:
                raise ValueError(f"ledger CSV E0 column is not constant at t={row[0]}")
        return ledger


def initial_energy(u0, b0, mesh0, kappa):
    """E0 = 1/2 ||u0||^2 + 1/2 ||B0||^2 + kappa * perimeter(mesh0)."""
    return 0.5 * u0.norm() ** 2 + 0.5 * b0.norm() ** 2 + kappa * perimeter(mesh0)


def viscous_dissipation_rate(state, order, chi_values=None):
    """Instantaneous 2 * integral nu(chi) |Du|^2 by the solver's quadrature.

    ``chi_values`` are indicator samples at the quadrature points of the
    given order; they may be omitted only when the two viscosities are equal
    (``FluidParams.viscosity``).
    """
    quad = state.u.basis.quadrature(order)
    grads = quad.field_gradients(state.u.coefficients)
    du = 0.5 * (grads + np.swapaxes(grads, 1, 2))
    densities = np.einsum("mij,mij->m", du, du)
    nu = state.params.viscosity(chi_values)
    return 2.0 * quad.weight * float(np.sum(nu * densities))


def record(state, ledger, dt_increments):
    """Append one row for ``state``; increments accumulate the dissipation.

    ``dt_increments`` is (viscous_increment, resistive_increment), already
    multiplied by the time step and computed with the same quadrature as the
    solver.
    """
    viscous_inc, resistive_inc = dt_increments
    if ledger.rows:
        viscous_cum = ledger.rows[-1][4] + viscous_inc
        resistive_cum = ledger.rows[-1][5] + resistive_inc
    else:
        viscous_cum = viscous_inc
        resistive_cum = resistive_inc
    ledger.append(
        state.t,
        0.5 * state.u.norm() ** 2,
        0.5 * state.B.norm() ** 2,
        state.params.kappa * perimeter(state.mesh),
        viscous_cum,
        resistive_cum,
    )
    return ledger


@dataclass
class EnergyReport:
    """Outcome of the inequality check over a ledger."""

    passed: bool
    worst_margin: float
    worst_time: float
    tau_E: float
    E0: float
    failed_times: tuple = ()


def default_tolerance(dt, order, E0):
    """First-order discretization allowance: 10 * (dt + 1/order) * E0."""
    return 10.0 * (dt + 1.0 / order) * E0


def check_inequality(ledger, tau_E):
    """Verify every row satisfies the generalized energy inequality.

    margin(row) = kinetic + magnetic + tension + viscous_cum + resistive_cum - E0;
    the row passes when margin <= tau_E.  Returns the worst margin and its
    time; never raises on failure.
    """
    if not ledger.rows:
        raise ValueError("ledger is empty")
    margins = ledger.totals() - ledger.E0
    times = ledger.column("t")
    worst = int(np.argmax(margins))
    failed = tuple(float(t) for t, m in zip(times, margins) if m > tau_E)
    return EnergyReport(
        passed=not failed,
        worst_margin=float(margins[worst]),
        worst_time=float(times[worst]),
        tau_E=float(tau_E),
        E0=float(ledger.E0),
        failed_times=failed,
    )
