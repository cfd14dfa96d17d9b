"""Windowed fixed-point solution of the coupled Galerkin system.

The velocity coefficients satisfy the integral equation

    u(t) = u_anchor + integral of N(u(s), chi(u)(s), B(u)(s)) ds,

where N collects inertia, Lorentz force, two-phase viscosity and the
capillary (weak mean-curvature) forcing.  On each time window the right-hand
side is frozen into the map K, whose fixed point is found by sweeps that
recompute the magnetic field and the interface transport from the current
velocity iterate; the accepted trajectory carries the certificate
||u - K(u)||_sup < tol.  Windows chain until the final time, halving the
window on failure, mirroring the shrinking local existence interval of the
underlying construction.

A sweep does not take K(u) itself as the next iterate.  The viscous part of
N at the mean viscosity nu_bar is linear and diagonal in the basis, since
every mode is a Stokes eigenfunction: -nu_bar |k_j|^2 u_j.  The sweep takes
that part implicitly in K's trapezoid and the rest, computed from the same
N values, explicitly (a semi-implicit correction sweep, as in Minion,
Commun. Math. Sci. 2003).  Its fixed point is K's, so the certificate is
unchanged, and it costs no further forcing evaluation; the stiff high modes
no longer set the contraction, so windows at large kmax take fewer sweeps.

Where K contracts, its fixed point does not depend on the first iterate,
which sets only the number of sweeps.  A window starts from known forcing
values, extrapolated in time: their polynomial, evaluated on the window's
grid and integrated from the anchor like K itself.  After an accepted
window they are its N values at its last min(5, k) nodes, where k counts
its last nodes that share its last indicator row, since N jumps in time
where the indicator changes; a window longer than its predecessor takes
only the last, the forward-Euler start u_anchor + (t - t_m) N(anchor).
Everything at t_m is data, not unknown: u, B, the mesh, the indicator row
chi(t_m) and so N(anchor).  A window takes that row and N(anchor) from its
predecessor's last node.  The initial state is the one-node window at
t = 0, with the initial region's row and N there, so the first window is
anchored like every other and starts from Euler.

A window that starts from Euler marches each sweep node by node.  Node i's
mesh, B, indicator row and N depend on u only over [t_m, t_i], so the
sweep steps u to node i from the N it has just computed at node i - 1 and
a prediction of N at node i, the previous sweep's corrected by the change
the sweep has seen so far (spectral deferred correction, Dutt, Greengard &
Rokhlin, BIT 2000), with the viscous part implicit as above.  Every other
window sweeps all its nodes at once, which costs less per sweep where the
extrapolated start already certifies in one.

The phase indicator chi(u) depends on the iterate only through the flow map,
and the flow-map stability estimate |X_u - X_v| <= tau ||u - v|| e^{tau L}
bounds how far a sweep can move the back-traced points.  In a two-phase
window a point that the flow cannot carry into the band of the window-start
mesh (INDICATOR_BAND beyond its sagitta) keeps node 0's row.  One indicator
object traces the rest to the window start, the nodes after the first in one
backward march.  There the mesh decides the carried points outside its band;
the rest go on through the history to t = 0.  The object keeps that trace: a
later sweep reuses its flags whenever every carried point lies farther
beyond the band, and every origin farther from the initial boundary, than
the estimate lets it move, so chi is exactly what a new trace would give.

A stacked sweep passes over the quadrature grid once.  One stacked product
synthesizes the iterate at every node; each node's step marches B on those
values, linear in time between nodes, and hands on B's; one stacked
pairing gives N at the nodes after the first from one tensor per node,
u (x) u - B (x) B - 2 nu(chi) Du; and the same Du gives the ledger's
dissipation rate there.  A marched sweep makes the same pass one node at a
time.  All quadratures use the dealiased uniform grid,
and every reduction has a fixed order (each row of a stacked product is
its own product), so a run of one configuration is reproducible bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import SpectralField, gradient_pairing
from .energy import (
    EnergyLedger,
    default_tolerance,
    initial_energy,
    record,
    viscous_dissipation_rate,
)
from .errors import (
    IntegrationError,
    MeshInvariantError,
    MeshQualityError,
    NonConvergenceError,
    NumericsError,
    WindowFailureError,
)
from .flowmap import SpectralTrajectory, integrate_positions, step_sizes
from .induction import solve_B
from .interface import (
    advect,
    check_simple,
    curvature_pairing_modes,
    enclosed_volume,
    mesh_distance,
    perimeter,
    point_in_mesh,
    sagitta,
)

# Frozen headroom constant for the forcing bound
#   ||N|| <= N_BOUND_COEFF * (||u||^2 + ||u|| + ||B||^2 + ||chi||_BV),
# calibrated once on the reference two-phase configuration (max observed
# ratio 0.023, frozen with 2x headroom); the window-size policy and the
# bound audit both use it.
N_BOUND_COEFF = 0.05

# Half-width of the band around the window-start mesh inside which the window
# indicator back-traces points through the history, beyond the mesh's own
# sagitta estimate (``interface.sagitta``).  Outside it the mesh's ray cast
# gives the back-trace's answer: the two differ only where the mesh is off
# the true interface, by the sagitta of its elements plus the RK4 error of
# its vertices, which this allows for; the sagitta is 7.5e-5 for the
# 256-gon of the reference problem and 0.019 for a 16-gon.  A point that the
# window's flow cannot carry into the band keeps node 0's row.
INDICATOR_BAND = 1e-2

# Round-off allowance of the indicator reuse certificate, grown like the
# flow-map bound: two back-traces of one point under fields that agree to
# within eps may also differ by rounding, about 1e-14 over a run's steps.
REUSE_MARGIN = 1e-9

# Degree of the polynomial in t through the previous window's forcing that
# starts the next window (capped by the number of sub-steps).
EXTRAPOLATION_DEGREE = 4

# A window attempt's tally of its own work, carried by its record: the nodes
# its sweeps evaluated N at, and the window indicator's: the sweeps that
# back-traced, the RK4 point-steps (points times steps) of its legs through
# the window and the history, its history legs, and the carried points that
# the window-start mesh decided.
WORK = (
    "forcing_evaluations",
    "indicator_traces",
    "window_point_steps",
    "history_legs",
    "history_point_steps",
    "mesh_decided_points",
)


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of one run: viscosities, diffusivity, tension."""

    nu_plus: float
    nu_minus: float
    sigma: float
    kappa: float

    def __post_init__(self):
        if self.nu_plus < 0.0 or self.nu_minus < 0.0:
            raise ValueError(
                "viscosities must be nonnegative, "
                f"got nu_plus={self.nu_plus}, nu_minus={self.nu_minus}"
            )
        if self.sigma <= 0.0:
            raise ValueError(f"the magnetic diffusivity must satisfy sigma > 0, got {self.sigma}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")

    @property
    def two_phase(self):
        return self.nu_plus != self.nu_minus

    def viscosity(self, chi):
        """Samples of nu(chi) = nu_minus + (nu_plus - nu_minus) chi.

        ``chi`` holds indicator samples.  It may be None only when the two
        viscosities are equal, and nu is then that one constant.
        """
        if chi is None:
            if self.two_phase:
                raise ValueError("chi_values required when the viscosities differ")
            return np.float64(self.nu_plus)
        return self.nu_minus + (self.nu_plus - self.nu_minus) * np.asarray(
            chi, dtype=np.float64
        )


@dataclass
class GalerkinState:
    """One snapshot of the coupled system (t, u, B, interface mesh)."""

    t: float
    u: SpectralField
    B: SpectralField
    mesh: object
    params: FluidParams

    def __post_init__(self):
        if len(self.u.basis) != len(self.B.basis):
            raise ValueError("u and B must share one basis")
        if self.u.dimension != self.mesh.dimension:
            raise ValueError("mesh dimension must match the field dimension")
        if abs(self.mesh.t - self.t) > 1e-9:
            raise ValueError(f"mesh time {self.mesh.t} does not match state time {self.t}")

    def bv_norm(self):
        """BV norm of the phase indicator: enclosed volume + perimeter."""
        return enclosed_volume(self.mesh) + perimeter(self.mesh)


@dataclass
class WindowSolve:
    """Accepted fixed-point solve on one window [t_m, t_m + delta].

    Its accepted sweep's iterate, N values, dissipation rates, states and
    indicator rows at each node, the residual of every sweep, the
    resistive increment of each sub-step, the ``WORK`` tally, and the
    ``start``: "march" for a window marched from Euler, "extrapolated" for
    one swept from several nodes.
    """

    t_grid: np.ndarray
    u_trajectory: np.ndarray
    residual_history: list
    N_values: np.ndarray = None
    rates: np.ndarray = None
    states: list = field(default_factory=list)
    resistive_increments: np.ndarray = None
    chi_cache: list = field(default_factory=list)
    work: dict = field(default_factory=lambda: dict.fromkeys(WORK, 0))
    start: str = "march"

    @property
    def meshes(self):
        """Interface mesh at each node of the window."""
        return [state.mesh for state in self.states]


def _forcing(states, quad, u_values, b_values, chi_values):
    """N against every mode (S, n) and the dissipation rate (S,) at the S
    ``states`` in one grid pass, the node tensors built in place, from their
    u and B on the grid of ``quad``, ``u_values`` and ``b_values`` (S, m, d),
    and indicator rows ``chi_values`` (None rows when the viscosities agree)."""
    params = states[0].params
    grads = quad.field_gradients(np.stack([state.u.coefficients for state in states]))
    du = grads + np.swapaxes(grads, -1, -2)
    du *= 0.5
    nu = params.viscosity(None if chi_values[0] is None else np.stack(chi_values))
    rates = viscous_dissipation_rate(du, nu, quad)
    du *= 2.0 * nu[..., None, None]
    tensor = u_values[..., :, None] * u_values[..., None, :]
    tensor -= np.multiply(b_values[..., :, None], b_values[..., None, :], out=grads)
    tensor -= du
    result = gradient_pairing(tensor, quad)
    del grads, du, tensor  # before the curvature pairing's own temporaries
    if params.kappa > 0.0:
        for row, state in zip(result, states):
            row += params.kappa * curvature_pairing_modes(state.mesh, quad.basis)
    if not np.all(np.isfinite(result)):
        raise NumericsError("the forcing produced non-finite entries")
    return result, rates


def apply_N(state, order, chi_values=None):
    """Forcing functional against every basis mode: <N, eta_j> for all j.

    Four contributions: inertia (u (x) u, grad eta), Lorentz -(B (x) B,
    grad eta), two-phase viscosity -2 (nu(chi) Du, D eta), and kappa times
    the weak curvature pairing over the interface mesh.  ``chi_values`` are
    indicator samples at the quadrature nodes of the given order, which may
    be omitted only when the two viscosities are equal
    (``FluidParams.viscosity``).  Byte for byte the one-node case of
    ``apply_K``'s pass over a window's nodes.
    """
    quad = state.u.basis.quadrature(order)
    values = quad.field_values(np.stack([state.u.coefficients, state.B.coefficients]))
    return _forcing([state], quad, values[:1], values[1:], [chi_values])[0][0]


def n_bound_bracket(u_norm, b_norm, bv_norm):
    """The bracket ||u||^2 + ||u|| + ||B||^2 + ||chi||_BV of the forcing bound."""
    return u_norm**2 + u_norm + b_norm**2 + bv_norm


def _trapezoid(u_anchor, t_grid, n_values):
    """Composite trapezoidal integral of N from the anchor; row 0 is the anchor."""
    out = np.empty_like(n_values)
    out[0] = u_anchor
    increments = 0.5 * np.diff(t_grid)[:, None] * (n_values[:-1] + n_values[1:])
    out[1:] = u_anchor + np.cumsum(increments, axis=0)
    return out


def apply_K(states, order, anchor_forcing, u_values, b_values, chi_values):
    """One sweep of the iteration map K over a window.

    ``states`` hold the input trajectory and its dependents (B and mesh) at
    each node of the window grid, ``u_values`` and ``b_values`` (S + 1, m,
    d) their u and B on the quadrature grid of ``order``, and ``chi_values``
    their indicator rows; ``states[0]`` is the anchor, and ``anchor_forcing``
    is N there, handed in as data, so N is evaluated at the later nodes
    only, in one ``_forcing`` pass.  The time integral of N uses the
    composite trapezoidal rule, so K(u)(t_m) equals the anchor exactly.
    Returns K's and N's coefficients (S + 1, n) and the rates at nodes 1..S.
    """
    t_grid = np.array([s.t for s in states])
    quad = states[0].u.basis.quadrature(order)
    forcing, rates = _forcing(states[1:], quad, u_values[1:], b_values[1:], chi_values[1:])
    n_values = np.concatenate([anchor_forcing[None], forcing])
    return _trapezoid(states[0].u.coefficients, t_grid, n_values), n_values, rates


def _viscous_sweep(u_anchor, t_grid, u_trajectory, n_values, decay):
    """The next iterate from u and its N values, the viscous part implicit.

    N splits into its diagonal viscous part, decay * u with decay_j =
    -nu_bar |k_j|^2 per mode, and the rest R = N - decay * u.  K's trapezoid
    takes the first at the new iterate v and the second at u:

        v_{i+1} = [v_i (1 + h_i decay) + h_i (R_i + R_{i+1})] / (1 - h_i decay),

    h_i = (t_{i+1} - t_i) / 2, v_0 = the anchor bit for bit.  Where v = u this
    is u_{i+1} = u_i + h_i (N_i + N_{i+1}), so the fixed point is K's; with
    decay = 0 the step is K itself.
    """
    out = np.empty_like(n_values)
    out[0] = u_anchor
    remainder = n_values - decay * u_trajectory
    for i, h in enumerate(0.5 * np.diff(t_grid)):
        rhs = out[i] * (1.0 + h * decay) + h * (remainder[i] + remainder[i + 1])
        out[i + 1] = rhs / (1.0 - h * decay)
    return out


def _start_nodes(previous, delta):
    """How many of ``previous``'s last nodes start a window of size ``delta``.

    N jumps in time where the indicator changes, so the nodes share
    ``previous``'s last indicator row (the None rows of a single-phase
    window compare equal), and there are at most EXTRAPOLATION_DEGREE + 1;
    past its length (beyond rounding) only one.
    """
    rows, span = previous.chi_cache, previous.t_grid[-1] - previous.t_grid[0]
    most = 1 if delta > (1.0 + 1e-9) * span else min(EXTRAPOLATION_DEGREE + 1, len(rows))
    nodes = 1
    while nodes < most and np.array_equal(rows[-1 - nodes], rows[-1]):
        nodes += 1
    return nodes


def predictor(anchor, t_grid, t_nodes, n_nodes):
    """Start of a window from forcing values ``n_nodes`` known at ``t_nodes``.

    Their Lagrange polynomial in t, as an Adams predictor takes it, is
    evaluated on ``t_grid`` and integrated from the anchor by the
    trapezoidal rule of ``apply_K``; row 0 is the anchor bit for bit.  One
    node, N(anchor), is the forward-Euler start u_i = c_m + (t_i - t_m) N.
    """
    weights = np.ones((len(t_grid), len(t_nodes)))
    for j, t_j in enumerate(t_nodes):
        for k, t_k in enumerate(t_nodes):
            if k != j:
                weights[:, j] *= (t_grid - t_k) / (t_j - t_k)
    return _trapezoid(anchor.u.coefficients, t_grid, weights @ n_nodes)


def _row_bound(coefficients, weights):
    """max over rows of sum_j |c_j| w_j.

    With w_j = n_j it bounds |u| everywhere (|trig| <= 1, |e_j| = 1); with
    w_j = n_j |k_j| it bounds the operator norm of grad u, a sum of rank-one
    terms n_j trig'(k_j . x) e_j k_j^T.  Rows interpolated in time are convex
    combinations, so the bound holds between them too.
    """
    return float(np.max(np.abs(np.atleast_2d(coefficients)) @ weights))


def _gradient_weights(basis):
    return basis.normalizations * np.linalg.norm(basis.wavevectors, axis=1)


class _WindowIndicator:
    """Indicator samples at the quadrature ``points`` for every window node.

    Built once per two-phase window: ``first_row`` is node 0's row, which no
    sweep changes and every point beyond the window's reach keeps, ``mesh``
    is the window-start mesh, ``band`` is INDICATOR_BAND beyond its sagitta,
    the distance past which it decides a carried point, ``distance`` the
    points' distance to it as asked at ``radius`` (exact up to it, +inf
    beyond; a sweep whose reach is larger asks the +inf points again), and
    ``history_growth`` = e^{t_m L_h} bounds how the fixed pre-window
    ``history`` leg grows a displacement.  The object keeps its last
    back-trace: ``moving`` marks the traced points, ``coefficients`` are the
    iterate's rows they were traced under, and ``clearance`` and ``inside``
    (one row per node after the first) are, for each carried point, its
    distance to the window-start mesh less ``band`` and the mesh's answer,
    or, in the band, its origin's distance bound to the initial boundary and
    the initial region's answer.  ``work`` is the window's ``WORK`` tally,
    where the calls that back-traced and what their legs did are counted
    as the legs are run.
    """

    def __init__(self, anchor, points, t_grid, history, phase, h_flow, first_row):
        self.points, self.t_grid, self.history = points, t_grid, history
        self.phase, self.h_flow, self.first_row = phase, h_flow, first_row
        self.mesh = anchor.mesh
        self.band = INDICATOR_BAND + sagitta(anchor.mesh)
        self.distance, self.radius = np.full(len(points), np.inf), -np.inf
        weights = _gradient_weights(anchor.u.basis)
        self.history_growth = np.exp(anchor.t * _row_bound(history.coefficients, weights))
        self.moving = self.coefficients = self.clearance = self.inside = None
        self.work = dict.fromkeys(WORK, 0)

    def _leg(self, key, positions, sampler, t0, t1):
        """RK4 path of ``positions`` from t0 to t1, its point-steps tallied
        under ``key``."""
        self.work[key] += len(positions) * len(step_sizes(t0, t1, self.h_flow))
        return integrate_positions(positions, sampler, t0, t1, self.h_flow)

    def certifies(self, moving, coefficients, basis):
        """Whether a trace under ``coefficients`` gives the kept flags again.

        One RK4 step of size h is Lipschitz with constant e^{hL}, and driven
        by two fields eps apart it adds at most h eps e^{hL}; so the window
        leg of node i >= 1 moves a point it carries to the window start by
        at most e^{tau_i L} tau_i eps (tau_i = t_i - t_m), and the fixed
        history leg grows that by ``history_growth``.  No carried point
        crosses the band, and no origin the initial boundary, when each
        clearance exceeds that reach plus REUSE_MARGIN, grown alike; the
        growth only makes the test stricter for the points the mesh decided.
        """
        if self.moving is None or not np.array_equal(moving, self.moving):
            return False
        eps = _row_bound(coefficients - self.coefficients, basis.normalizations)
        weights = _gradient_weights(basis)
        lipschitz = max(_row_bound(coefficients, weights), _row_bound(self.coefficients, weights))
        tau = self.t_grid[1:] - self.t_grid[0]
        reach = self.history_growth * np.exp(tau * lipschitz) * (tau * eps + REUSE_MARGIN)
        return bool(np.all(self.clearance > reach[:, None]))

    def __call__(self, sampler):
        """The rows of samples, one per node, under the iterate ``sampler``.

        Node 0's row is ``first_row``.  The iterate's speed is at most
        sum_j |c_j| n_j over its rows, so a point farther than ``band`` plus
        the window's reach from the window-start mesh cannot enter the band
        and keeps node 0's answer.  The rest take the kept trace's flags
        when it certifies them for this iterate.  Otherwise they are
        back-traced in one backward march under the iterate: node i's points
        join the carried ones in front at t_i, and the stack is carried one
        sub-step back, from the last node to the window start, so every RK4
        step moves all the points still on their way.  The band test is then
        applied again to the stack, node-major from node 1: a carried point
        farther than ``band`` from the window-start mesh takes the mesh's
        answer, and only the rest go on through ``history`` to t = 0
        and are tested against the initial region (no history leg when
        none is left, or when the window starts at t = 0, where the carried
        points are their own origins).  That trace is kept.
        """
        t_grid = self.t_grid
        basis = sampler.basis
        # the sampler's own copy, which no later sweep writes to
        coefficients = sampler.coefficients
        # no point moves farther than this in the window
        travel = (t_grid[-1] - t_grid[0]) * _row_bound(coefficients, basis.normalizations)
        reach = self.band + travel
        # asked again only for the points beyond the radius, when the reach outgrows it
        if reach > self.radius:
            far = np.isinf(self.distance)
            self.distance[far] = mesh_distance(self.mesh, self.points[far], reach)
            self.radius = reach
        moving = self.distance <= reach
        chi = [self.first_row] + [self.first_row.copy() for _ in t_grid[1:]]
        if not np.any(moving):
            return chi
        if not self.certifies(moving, coefficients, basis):
            points = self.points[moving]
            carried = points[:0]
            for i in range(len(t_grid) - 1, 0, -1):
                carried = self._leg(
                    "window_point_steps", np.concatenate([points, carried]), sampler,
                    t_grid[i], t_grid[i - 1],
                )
            # within reach at their nodes, so within reach + travel here
            clearance = mesh_distance(self.mesh, carried, reach + travel) - self.band
            band = clearance <= 0.0
            inside = np.empty(len(carried), dtype=np.int64)
            inside[~band] = point_in_mesh(self.mesh, carried[~band])
            if np.any(band):
                origins = carried[band]
                if t_grid[0] > 0.0:
                    origins = self._leg(
                        "history_point_steps", origins, self.history, t_grid[0], 0.0
                    )
                    self.work["history_legs"] += 1
                clearance[band] = self.phase.boundary_distance(origins)
                inside[band] = self.phase.contains(origins)
            nodes = (len(t_grid) - 1, -1)
            self.moving, self.coefficients = moving, coefficients
            self.clearance, self.inside = clearance.reshape(nodes), inside.reshape(nodes)
            self.work["indicator_traces"] += 1
            self.work["mesh_decided_points"] += int(np.count_nonzero(~band))
        for node, inside in zip(chi[1:], self.inside):
            node[moving] = inside
        return chi


def initial_window(state, order, phase):
    """The one-node window at t = 0 that the first window is anchored at.

    Its node is the initial ``state``, with N there and the indicator row of
    the initial region at the quadrature points of ``order`` (None when the
    viscosities agree): the data every later window takes from its
    predecessor's last node.
    """
    if state.t != 0.0:
        raise ValueError(f"the initial window starts at t = 0, got t={state.t}")
    quad = state.u.basis.quadrature(order)
    row = phase.contains(quad.points) if state.params.two_phase else None
    values = quad.field_values(np.stack([state.u.coefficients, state.B.coefficients]))
    forcing, rates = _forcing([state], quad, values[:1], values[1:], [row])
    return WindowSolve(
        t_grid=np.array([state.t]),
        u_trajectory=state.u.coefficients[None],
        residual_history=[],
        N_values=forcing,
        rates=rates,
        states=[state],
        chi_cache=[row],
    )


def _check_iterate(coefficients):
    """Raise ``NumericsError`` where the velocity iterate is not finite."""
    if not np.all(np.isfinite(coefficients)):
        raise NumericsError("the velocity iterate has non-finite coefficients")


def fixed_point_window(
    previous,
    delta,
    n_sub,
    tol,
    max_iter,
    *,
    order,
    h_flow,
    dt_b,
    history=None,
    phase=None,
):
    """Fixed-point solve of u = K(u) on [t_m, t_m + delta].

    ``previous`` is the accepted window that ends at t_m, the one-node
    ``initial_window`` for the first.  Node 0 is its last node, the anchor,
    and the anchor's indicator row, N and dissipation rate are data taken
    from it.  The first sweep starts from ``predictor`` through
    ``previous``'s forcing at its last ``_start_nodes`` nodes; the start
    moves neither the fixed point nor its certificate, only the number of
    sweeps.  The indicator rows come from one ``_WindowIndicator`` when the
    viscosities differ (so a two-phase window needs ``phase`` and
    ``history``, the accepted velocity on [0, t_m]).

    Every sweep reaches node i from node i - 1 by one node step: the mesh
    advected one sub-step under u, B marched over it on u's grid values at
    the two nodes (``solve_B``), and node i's ``GalerkinState``.

    A window started from several nodes sweeps in one grid pass: each sweep
    synthesizes the iterate on the quadrature grid at every node in one
    product, takes the node steps under the whole iterate, and gives u's
    and B's node values to one ``apply_K`` pass.  It checks the residual
    ||u - K(u)|| and builds the next iterate by ``_viscous_sweep`` from the
    N values, with the viscous term at the mean viscosity implicit.

    A window started from one node, the Euler start, marches each sweep
    node by node from a guess, the previous sweep's (u, N), in the first
    sweep the Euler start with N(anchor) at every node.  At node i it
    predicts R = N - decay * u as the guess's R_i plus the correction R -
    R_guess of nodes i - 2 and i - 1 extrapolated linearly to t_i (0 at node
    1), takes ``_viscous_sweep``'s step from node i - 1 with this sweep's R
    there, then the node step under u between the two nodes, and evaluates
    N at node i alone, so the next node reads N where it has just been
    computed.  K(u) is then the trapezoid of the sweep's own N, and the
    residual is ||u - K(u)||.  The sweep's N read the rows the indicator
    gave under the guess, so it is accepted only if the indicator gives
    the same rows under the marched iterate.

    Row 0 of every iterate is the anchor bit for bit.  A non-finite iterate,
    a broken dependent or forcing, or an accepted end mesh that crosses
    itself raises WindowFailureError, and so does reaching ``max_iter``
    sweeps; otherwise the accepted window (residual below ``tol``) is
    returned with its N values and rates.  Both carry the attempt's
    ``work`` tally, counted up to the return or the failure, and the
    ``start``: "march" for a start from one node, else "extrapolated".
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if delta <= 0.0:
        raise ValueError("window size delta must be positive")
    if n_sub < 2:
        raise ValueError("n_sub must be at least 2")
    anchor = previous.states[-1]
    basis = anchor.u.basis
    params = anchor.params
    if params.two_phase and (phase is None or history is None):
        raise ValueError("a two-phase window needs the initial phase region and the history")
    quad = basis.quadrature(order)
    t_grid = anchor.t + np.linspace(0.0, delta, n_sub + 1)
    # node 0 is the previous window's last node: its row, N and rate are data
    anchor_forcing = previous.N_values[-1]
    indicator = None
    work = dict.fromkeys(WORK, 0)
    if params.two_phase:
        indicator = _WindowIndicator(
            anchor, quad.points, t_grid, history, phase, h_flow, previous.chi_cache[-1]
        )
        work = indicator.work
    # the viscous part of N at the mean viscosity, diagonal in the basis
    decay = -0.5 * (params.nu_plus + params.nu_minus) * basis.eigenvalues
    tail = _start_nodes(previous, delta)
    march = tail == 1
    start = "march" if march else "extrapolated"

    def rows(sampler):
        return [None] * (n_sub + 1) if indicator is None else indicator(sampler)

    def failure(message):
        return WindowFailureError(
            f"window at t={anchor.t:.6g} (delta={delta:.3g}) {message}",
            residual_history=residual_history,
            work=work,
            start=start,
        )

    def advance(i, state, b_values, u_row, u_values, sampler):
        """The node step: node i's state, B's grid values and the sub-step's
        resistive increments from node i - 1's ``state`` and ``b_values``,
        with u's coefficients ``u_row`` at node i and its grid values
        ``u_values`` at nodes i - 1 and i."""
        span = t_grid[i - 1 : i + 1]
        mesh = advect(state.mesh, sampler, span[1], h_flow)
        b_field, b_values, steps = solve_B(
            u_values, span, state.B, b_values, dt_b, params.sigma, quad
        )
        u_field = SpectralField(basis, u_row)
        return GalerkinState(span[1], u_field, b_field, mesh, params), b_values, steps

    def stacked_sweep(u_coeffs, sampler):
        """K(u), N, the rates, states, resistive increments and rows of the
        iterate ``u_coeffs``, whose ``sampler`` it is, in one grid pass."""
        u_grid = quad.field_values(u_coeffs)
        nodes = [(anchor, quad.field_values(anchor.B.coefficients), None)]
        for i in range(1, n_sub + 1):
            state, b_values, _ = nodes[-1]
            nodes.append(advance(i, state, b_values, u_coeffs[i], u_grid[i - 1 : i + 1], sampler))
        chi_cache = rows(sampler)
        work["forcing_evaluations"] += n_sub
        states, b_values, increments = zip(*nodes)
        k_coeffs, n_values, rates = apply_K(
            states, order, anchor_forcing, u_grid, np.stack(b_values), chi_cache
        )
        return k_coeffs, n_values, rates, list(states), increments[1:], chi_cache

    def marched_sweep(u_guess, n_guess, chi_cache):
        """The iterate marched node by node from the guess (``u_guess``,
        ``n_guess``) with the guess's ``chi_cache``: u, N, the lattice rows
        of u, and the rates, states and resistive increments."""
        u_coeffs, n_values = np.empty_like(u_guess), np.empty_like(n_guess)
        u_coeffs[0], n_values[0] = anchor.u.coefficients, anchor_forcing
        r_guess = n_guess - decay * u_guess
        # R - R_guess at the nodes marched so far; node 0's is 0
        correction = np.zeros_like(r_guess)
        lattice_rows = [basis.lattice.coefficients(u_coeffs[0])]
        u_now, b_now = quad.field_values(np.stack([u_coeffs[0], anchor.B.coefficients]))
        states, rates, increments = [anchor], [], []
        for i in range(1, n_sub + 1):
            span = t_grid[i - 1 : i + 1]
            h = 0.5 * (span[1] - span[0])
            # the correction at t_i, linear through nodes i - 2 and i - 1
            predicted = correction[i - 1]
            if i > 1:
                slope = (span[1] - span[0]) / (span[0] - t_grid[i - 2])
                predicted = predicted + slope * (correction[i - 1] - correction[i - 2])
            known = n_values[i - 1] - decay * u_coeffs[i - 1]
            rhs = u_coeffs[i - 1] * (1.0 + h * decay) + h * (known + r_guess[i] + predicted)
            u_coeffs[i] = rhs / (1.0 - h * decay)
            _check_iterate(u_coeffs[i])
            lattice_rows.append(basis.lattice.coefficients(u_coeffs[i]))
            u_next = quad.field_values(u_coeffs[i])
            step = SpectralTrajectory(basis, span, u_coeffs[i - 1 : i + 1], lattice_rows[-2:])
            state, b_now, steps = advance(i, states[-1], b_now, u_coeffs[i], (u_now, u_next), step)
            work["forcing_evaluations"] += 1
            forcing, rate = _forcing([state], quad, u_next[None], b_now[None], [chi_cache[i]])
            n_values[i] = forcing[0]
            correction[i] = n_values[i] - decay * u_coeffs[i] - r_guess[i]
            states.append(state)
            rates.append(rate)
            increments.append(steps)
            u_now = u_next
        rates = np.concatenate(rates)
        return u_coeffs, n_values, np.stack(lattice_rows), rates, states, increments

    u_coeffs = predictor(anchor, t_grid, previous.t_grid[-tail:], previous.N_values[-tail:])
    # a march's first guess: the Euler start, with N(anchor) at every node
    n_values, lattice_rows = np.tile(anchor_forcing, (n_sub + 1, 1)), None
    residual_history = []
    for iteration in range(1, max_iter + 1):
        try:
            # the iterate, or the guess that a march starts from
            _check_iterate(u_coeffs)
            sampler = SpectralTrajectory(basis, t_grid, u_coeffs, lattice_rows)
            if march:
                chi_cache = rows(sampler)
                u_coeffs, n_values, lattice_rows, rates, states, increments = marched_sweep(
                    u_coeffs, n_values, chi_cache
                )
                k_coeffs = _trapezoid(anchor.u.coefficients, t_grid, n_values)
                sampler = SpectralTrajectory(basis, t_grid, u_coeffs, lattice_rows)
            else:
                k_coeffs, n_values, rates, states, increments, chi_cache = stacked_sweep(
                    u_coeffs, sampler
                )
            residual = float(np.max(np.linalg.norm(u_coeffs - k_coeffs, axis=1)))
            residual_history.append(residual)
            # a march's N read the guess's rows, which must be the iterate's own
            accepted = residual < tol and (
                not march or indicator is None
                or all(map(np.array_equal, rows(sampler), chi_cache))
            )
            if accepted:
                # the end mesh decides the next window's indicator off the band
                check_simple(states[-1].mesh)
        except (MeshInvariantError, MeshQualityError, IntegrationError, NumericsError) as exc:
            # a blown-up iterate on an oversized window is a window failure,
            # not a run abort: the caller's halving is the remedy
            message = f"broke its dependents or forcing during sweep {iteration}: {exc}"
            raise failure(message) from exc
        if accepted:
            return WindowSolve(
                t_grid=t_grid,
                u_trajectory=u_coeffs,
                residual_history=residual_history,
                N_values=n_values,
                rates=np.concatenate([previous.rates[-1:], rates]),
                states=states,
                resistive_increments=np.array([np.sum(steps) for steps in increments]),
                chi_cache=chi_cache,
                work=work,
                start=start,
            )
        if not march:
            u_coeffs = _viscous_sweep(anchor.u.coefficients, t_grid, u_coeffs, n_values, decay)
    raise failure(
        f"did not converge in {max_iter} sweeps (last residual {residual_history[-1]:.3e})"
    )


def initial_window_size(delta_config, u0_norm, E0, bv0):
    """Smallness-driven first window: min(configured delta, (R - ||u0||)/C(R)).

    R exceeds the uniform energy bound sqrt(2 E0) by one, and C(R) estimates
    the forcing bound over the invariant set using the frozen coefficient.
    """
    radius = np.sqrt(2.0 * E0) + 1.0
    bracket = n_bound_bracket(radius, np.sqrt(2.0 * E0), 2.0 * bv0)
    c_r = N_BOUND_COEFF * bracket
    return float(min(delta_config, (radius - u0_norm) / c_r))


@dataclass
class RunResult:
    """Everything an accepted run produced."""

    states: list
    ledger: EnergyLedger
    windows: list
    cumulative_N: np.ndarray
    n_bound_samples: list
    E0: float
    tau_E: float
    delta_initial: float
    attempts: list

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def window_failures(self):
        """Window attempts that failed, each followed by a halving."""
        return len(self.attempts) - len(self.windows)

    @property
    def sweeps(self):
        """Picard sweeps over every window attempt, failed ones included."""
        return sum(attempt["sweeps"] for attempt in self.attempts)

    def galerkin_residual(self):
        """|c_j(T) - c_j(0) - integral <N, eta_j>| per mode, chained."""
        return np.abs(
            self.states[-1].u.coefficients
            - self.states[0].u.coefficients
            - self.cumulative_N
        )


def _attempt_record(t, delta, outcome):
    """Record of one window attempt, from its WindowSolve or WindowFailureError.

    Both carry the attempt's ``work``, one count per ``WORK`` key.  A failed
    attempt names the error that broke the window: the failure's cause when
    it has one.
    """
    accepted = isinstance(outcome, WindowSolve)
    cause = None if accepted else (outcome.__cause__ or outcome)
    return {
        "t": t,
        "delta": delta,
        "start": outcome.start,
        "sweeps": len(outcome.residual_history),
        "residual_history": outcome.residual_history,
        **outcome.work,
        "accepted": accepted,
        "error": None if accepted else type(cause).__name__,
        "message": None if accepted else str(outcome),
    }


def _n_bound_sample(state, n_value):
    """(t, ||N||, ||u||, ||B||, ||chi||_BV) at one node, for the forcing bound."""
    n_norm = float(np.linalg.norm(n_value))
    return (float(state.t), n_norm, state.u.norm(), state.B.norm(), state.bv_norm())


def run(config):
    """Chain fixed-point windows from t = 0 to t = config.T.

    The initial state is the one-node ``initial_window``, and each window is
    anchored at the last accepted one, handed on as ``previous``: a window
    starts from its forcing, extrapolated in time through as many of its
    last nodes as ``_start_nodes`` allows (``fixed_point_window``).  The
    fixed point, its certificate and the halving do not depend on the start.
    A window size below ``delta_min``, the first one or a halved one, ends
    the run with a ``NonConvergenceError`` whose diagnostics read the last
    accepted state; a non-finite N at t = 0 raises ``NumericsError`` before
    any window, since no window size changes it.
    The ledger records every node once, with its forcing-bound sample: t = 0,
    then nodes 1..S of each accepted window, whose dissipation rates are
    those of its last sweep's forcing pass (node 0's carried over, as N is).
    Every window attempt, failed or accepted, leaves a record in
    ``RunResult.attempts``: t, delta, start, sweeps (each counted once its
    residual is known), residual history, the ``WORK`` tally, accepted, and
    the error's class and message.  Deterministic for a fixed configuration.
    """
    state, phase = config.build()
    basis, params, order = state.u.basis, state.params, config.quadrature_order
    e0 = initial_energy(state.u, state.B, state.mesh, params.kappa)
    delta = initial_window_size(config.delta, state.u.norm(), e0, state.bv_norm())
    delta_initial = delta
    tau_e = default_tolerance(delta / config.n_sub, order, e0)

    previous = initial_window(state, order, phase)
    ledger = EnergyLedger(E0=e0)
    record(state, ledger, (0.0, 0.0))
    states = [state]
    samples = [_n_bound_sample(state, previous.N_values[0])]
    history = SpectralTrajectory(basis, previous.t_grid, previous.u_trajectory)
    cumulative_n = np.zeros(len(basis))
    windows = []
    attempts = []
    t = 0.0

    while t < config.T - 1e-12:
        if delta < config.delta_min:
            raise NonConvergenceError(
                f"window size {delta:.6g} is below delta_min {config.delta_min:g} "
                f"at t={t:.6g}",
                diagnostics={
                    "t": t,
                    "delta": delta,
                    "failures": len(attempts) - len(windows),
                    "u_norm": states[-1].u.norm(),
                    "B_norm": states[-1].B.norm(),
                },
            )
        delta_use = min(delta, config.T - t)
        try:
            window = fixed_point_window(
                previous,
                delta_use,
                config.n_sub,
                config.tol,
                config.max_iter,
                order=order,
                h_flow=config.h_flow,
                dt_b=config.dt_b or delta_use / config.n_sub,
                history=history,
                phase=phase,
            )
        except WindowFailureError as exc:
            attempts.append(_attempt_record(t, delta_use, exc))
            delta = delta / 2.0
            continue
        attempts.append(_attempt_record(t, delta_use, window))
        windows.append(window)
        for i in range(1, len(window.t_grid)):
            st = window.states[i]
            samples.append(_n_bound_sample(st, window.N_values[i]))
            dt = window.t_grid[i] - window.t_grid[i - 1]
            viscous_inc = 0.5 * dt * (window.rates[i - 1] + window.rates[i])
            record(st, ledger, (viscous_inc, window.resistive_increments[i - 1]))
            states.append(st)
        cumulative_n += _trapezoid(0.0, window.t_grid, window.N_values)[-1]
        history = history.extended(window.t_grid, window.u_trajectory)
        previous = window
        t = float(window.t_grid[-1])

    return RunResult(
        states=states,
        ledger=ledger,
        windows=windows,
        cumulative_N=cumulative_n,
        n_bound_samples=samples,
        E0=e0,
        tau_E=tau_e,
        delta_initial=delta_initial,
        attempts=attempts,
    )
