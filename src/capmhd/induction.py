"""Magnetic solution operator: the induction equation in the shared basis.

The field B(u) stays divergence-free by construction (it lives in the same
divergence-free basis as the velocity) and is stepped with an IMEX Euler
scheme: the transport pairing (u (x) B - B (x) u, grad eta) is evaluated
explicitly by dealiased quadrature, while the resistive term is implicit and
diagonal in the eigenbasis, so each step is

    c_j <- (c_j + dt * T_j) / (1 + sigma |k_j|^2 dt).

Implicit diffusion makes ||B|| nonincreasing unconditionally when u = 0, and
the antisymmetric structure of the transport pairing is exactly what cancels
the magnetic transfer term against the velocity equation in the energy
ledger.  ``solve_B`` marches one sub-step between two window nodes: it
reads u from the sweep's synthesis at those nodes, linear in time between
them, takes B's node values at the first and hands back those at the
second, so neither field is synthesized twice at a node.
"""

import numpy as np

from .basis import SpectralField, gradient_pairing
from .errors import NumericsError
from .flowmap import step_sizes


def transport_pairing(u_values, b_values, quad):
    """Explicit transport vector T_j = ((B . grad) eta_j, u) - ((u . grad) eta_j, B).

    This is the weak transport of the induction equation after integrating by
    parts; tested against B itself it reproduces the magnetic transfer power
    that the velocity equation removes, which is the cancellation mechanism
    of the coupled energy identity.  ``u_values`` and ``b_values`` are node
    samples of ``quad``; the integrand is (B (x) u - u (x) B) : grad(eta_j),
    so it is one gradient pairing of that antisymmetric tensor.
    """
    tensor = b_values[:, :, None] * u_values[:, None, :]
    return gradient_pairing(tensor - np.swapaxes(tensor, 1, 2), quad)


def step_B(b_field, u_values, b_values, sigma, dt, quad):
    """One IMEX Euler step of length dt from ``b_field``, whose node values on
    ``quad`` are ``b_values``, under the velocity's node values ``u_values``."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    basis = b_field.basis
    transport = transport_pairing(u_values, b_values, quad)
    if not np.all(np.isfinite(transport)):
        raise NumericsError(
            "non-finite transport pairing in induction step",
            diagnostics={"max_u": float(np.max(np.abs(u_values)))},
        )
    new = (b_field.coefficients + dt * transport) / (1.0 + sigma * basis.eigenvalues * dt)
    return SpectralField(basis, new)


def solve_B(u_values, span, b0, b0_values, dt, sigma, quad):
    """March B over the sub-step ``span`` = (t0, t1) from ``b0``, whose values
    on the grid of ``quad`` are ``b0_values``, in IMEX steps of dt by the
    flow map's step rule (``flowmap.step_sizes``).  ``u_values`` (2, m, d)
    is u on that grid at t0 and t1, linear in time between them as its
    coefficients are.  Returns B at t1, its grid values, which each step
    synthesizes for the next, and the steps' resistive increments sigma *
    ||grad B||^2 * dt, at their implicit endpoints, for the ledger.
    """
    t0, t1 = span
    current, values, increments = b0, b0_values, []
    for step, dt_step in enumerate(step_sizes(t0, t1, dt)):
        u = u_values[0] + step * dt / (t1 - t0) * (u_values[1] - u_values[0])
        current = step_B(current, u, values, sigma, dt_step, quad)
        values = quad.field_values(current.coefficients)
        increments.append(sigma * current.grad_norm_sq() * dt_step)
    return current, values, np.array(increments)
