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
ledger.
"""

import numpy as np

from .basis import gradient_pairing
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


def step_B(b_field, sampler, t, sigma, dt, order):
    """One IMEX Euler step of length dt starting at time t.

    ``sampler`` gives the velocity's coefficient vector at time t
    (``coefficients_at``), which is synthesized on the grid's shared table.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    basis = b_field.basis
    quad = basis.quadrature(order)
    u_values = quad.field_values(sampler.coefficients_at(t))
    b_values = quad.field_values(b_field.coefficients)
    transport = transport_pairing(u_values, b_values, quad)
    if not np.all(np.isfinite(transport)):
        raise NumericsError(
            "non-finite transport pairing in induction step",
            diagnostics={"t": t, "max_u": float(np.max(np.abs(u_values)))},
        )
    new = (b_field.coefficients + dt * transport) / (1.0 + sigma * basis.eigenvalues * dt)
    return b_field.with_coefficients(new)


def solve_B(sampler, b0, t0, t1, dt, sigma, order):
    """Chain IMEX steps from t0 to t1 by the flow map's step rule
    (``flowmap.step_sizes``: the final step shortened to land on t1).

    Returns B at t1 and the resistive dissipation increment
    sigma * ||grad B||^2 * dt of every step, evaluated at the implicit
    endpoint, for the energy ledger.
    """
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    sizes = step_sizes(t0, t1, dt)
    increments = np.empty(len(sizes))
    current = b0
    for step, dt_step in enumerate(sizes):
        current = step_B(current, sampler, t0 + step * dt, sigma, dt_step, order)
        increments[step] = sigma * current.grad_norm_sq() * dt_step
    return current, increments
