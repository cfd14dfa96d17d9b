"""Windowed fixed-point solution of the coupled Galerkin system.

The velocity coefficients satisfy the integral equation

    u(t) = u_anchor + integral of N(u(s), chi(u)(s), B(u)(s)) ds,

where N collects inertia, Lorentz force, two-phase viscosity and the
capillary (weak mean-curvature) forcing.  On each time window the right-hand
side is frozen into the map K and solved by Picard iteration u <- K(u),
recomputing the magnetic field and the interface transport from the current
velocity iterate every sweep; the accepted trajectory carries the certificate
||u - K(u)||_sup < tol.  Windows chain until the final time, halving the
window on failure, mirroring the shrinking local existence interval of the
underlying construction.

Where K contracts, its fixed point does not depend on the first iterate,
which sets only the number of sweeps.  A window that follows an accepted
one starts from that window's forcing, extrapolated in time: the polynomial
through its N values at its last p + 1 nodes (p = min(4, n_sub)), evaluated
on the new grid and integrated from the anchor like K itself.  The
first window, a window longer than its predecessor, and a window whose
predecessor saw its indicator change between nodes (N then jumps in time)
start from the forward-Euler predictor u_anchor + (t - t_m) N(anchor)
instead.  The state at a window's first node is the anchor in every sweep,
so its forcing N(anchor) is memoised by its indicator row, seeded from the
previous window's last node, and computed again only for a new row.

The phase indicator chi(u) depends on the iterate only through the flow map,
and the flow-map stability estimate |X_u - X_v| <= tau ||u - v|| e^{tau L}
bounds how far a sweep can move the back-traced origins.  Each two-phase
window builds one indicator object that traces its band points and keeps
that trace: a later sweep reuses its flags whenever every origin lies
farther from the initial boundary than the estimate lets it move, so chi is
exactly what a new trace would give.

All quadratures use the dealiased uniform grid, and every reduction has a
fixed order, so a run is reproducible bit-for-bit for a given configuration.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import SpectralField, convection_pairing, strain_pairing
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
from .flowmap import SpectralTrajectory, integrate_positions
from .induction import solve_B
from .interface import (
    advect,
    check_simple,
    curvature_pairing_modes,
    distance_lower_bound,
    enclosed_volume,
    perimeter,
    point_in_mesh,
)

# Frozen headroom constant for the forcing bound
#   ||N|| <= N_BOUND_COEFF * (||u||^2 + ||u|| + ||B||^2 + ||chi||_BV),
# calibrated once on the reference two-phase configuration (max observed
# ratio 0.023, frozen with 2x headroom); the window-size policy and the
# bound audit both use it.
N_BOUND_COEFF = 0.05

# Half-width of the band around the window-start mesh inside which the window
# indicator back-traces points through the history.  Outside it the mesh's
# ray cast gives the back-trace's answer: the two differ only where the mesh
# is off the true interface, by the RK4 error of its vertices plus the
# sagitta of its chords, about 1e-4 for the 256-gon of the reference problem.
# A point is back-traced when the window's flow can carry it into the band.
INDICATOR_BAND = 1e-2

# Round-off allowance of the indicator reuse certificate, grown like the
# flow-map bound: two back-traces of one point under fields that agree to
# within eps may also differ by rounding, about 1e-14 over a run's steps.
REUSE_MARGIN = 1e-9

# Degree of the polynomial in t through the previous window's forcing that
# starts the next window (capped by the number of sub-steps).
EXTRAPOLATION_DEGREE = 4


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
            return self.nu_plus
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
    """Accepted fixed-point solve on one window [t_m, t_m + delta]."""

    t_grid: np.ndarray
    u_trajectory: np.ndarray
    iterations: int
    residual_history: list
    N_values: np.ndarray = None
    states: list = field(default_factory=list)
    resistive_increments: np.ndarray = None
    chi_cache: list = field(default_factory=list)
    indicator_traces: int = 0
    start: str = "euler"

    @property
    def meshes(self):
        """Interface mesh at each node of the window."""
        return [state.mesh for state in self.states]


def apply_N(state, order, chi_values=None):
    """Forcing functional against every basis mode: <N, eta_j> for all j.

    Four contributions: inertia (u (x) u, grad eta), Lorentz -(B (x) B,
    grad eta), two-phase viscosity -2 (nu(chi) Du, D eta), and kappa times
    the weak curvature pairing over the interface mesh.  ``chi_values`` are
    indicator samples at the quadrature nodes of the given order, as the
    window driver supplies them (decided by the window-start mesh, except at
    the points the window's flow can carry into its band, which are
    back-traced to t = 0); they may be omitted only when the two viscosities
    are equal (``FluidParams.viscosity``).
    """
    basis = state.u.basis
    quad = basis.quadrature(order)
    u_values = quad.field_values(state.u.coefficients)
    b_values = quad.field_values(state.B.coefficients)
    result = convection_pairing(u_values, u_values, quad)
    result -= convection_pairing(b_values, b_values, quad)
    grads = quad.field_gradients(state.u.coefficients)
    du = 0.5 * (grads + np.swapaxes(grads, 1, 2))
    result -= strain_pairing(du, state.params.viscosity(chi_values), quad)
    if state.params.kappa > 0.0:
        result += state.params.kappa * curvature_pairing_modes(state.mesh, basis)
    if not np.all(np.isfinite(result)):
        raise NumericsError("apply_N produced non-finite entries")
    return result


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


def apply_K(u_trajectory, u_anchor, states, order, chi_values=None, anchor_forcing=None):
    """One sweep of the iteration map K over a window.

    ``states`` hold the dependents (B and mesh) computed from the input
    trajectory at each node of the window grid; the time integral of N uses
    the composite trapezoidal rule, so K(u)(t_m) equals the anchor exactly.
    ``anchor_forcing``, when given, is N at node 0, computed earlier from the
    same state and indicator row; it takes the place of that node's
    ``apply_N`` call.  Returns (K coefficients (S, n), N values (S, n)).
    """
    t_grid = np.array([s.t for s in states])
    n_values = np.empty_like(np.atleast_2d(u_trajectory))
    for i, state in enumerate(states):
        if i == 0 and anchor_forcing is not None:
            n_values[0] = anchor_forcing
            continue
        chi = None if chi_values is None else chi_values[i]
        n_values[i] = apply_N(state, order, chi_values=chi)
    return _trapezoid(u_anchor, t_grid, n_values), n_values


def euler_predictor(anchor, t_grid, forcing):
    """Forward-Euler start of a window: u_i = c_m + (t_i - t_m) N(anchor).

    ``forcing`` is N(anchor) with the window-start mesh's indicator; row 0 is
    the anchor bit for bit.
    """
    u_coeffs = anchor.u.coefficients + (t_grid - t_grid[0])[:, None] * forcing
    u_coeffs[0] = anchor.u.coefficients
    return u_coeffs


def _extrapolates(previous, delta):
    """Whether a window of size ``delta`` starts from ``previous``'s forcing.

    Not after no window, not past the previous window's length (beyond
    rounding), and not when the previous window's indicator rows differ: a
    flip makes N jump in time, and a polynomial through a jump is a worse
    start than the Euler predictor.
    """
    if previous is None:
        return False
    span = previous.t_grid[-1] - previous.t_grid[0]
    rows = previous.chi_cache
    return delta <= (1.0 + 1e-9) * span and all(
        np.array_equal(rows[0], row) for row in rows[1:]
    )


def extrapolated_predictor(anchor, t_grid, previous):
    """Start of a window from the previous window's forcing, extrapolated.

    The polynomial of degree p = min(EXTRAPOLATION_DEGREE, n_sub) through
    ``previous.N_values`` at its last p + 1 nodes, as an Adams predictor
    takes it, is evaluated on ``t_grid`` and integrated from the anchor by
    the trapezoidal rule of ``apply_K``; row 0 is the anchor bit for bit.
    """
    degree = min(EXTRAPOLATION_DEGREE, len(previous.t_grid) - 1)
    t_nodes = previous.t_grid[-(degree + 1):]
    # Lagrange weights of the nodes at every time of the new grid
    weights = np.ones((len(t_grid), degree + 1))
    for j in range(degree + 1):
        for k in range(degree + 1):
            if k != j:
                weights[:, j] *= (t_grid - t_nodes[k]) / (t_nodes[j] - t_nodes[k])
    forcing = weights @ previous.N_values[-(degree + 1):]
    return _trapezoid(anchor.u.coefficients, t_grid, forcing)


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

    Built once per two-phase window: ``distance`` and ``mesh_chi`` are the
    points' distance lower bound to the window-start mesh and their ray cast
    against it, and ``history_growth`` = e^{t_m L_h} bounds how the fixed
    pre-window ``history`` leg grows a displacement.  The object keeps its
    last back-trace: ``moving`` marks the traced points, ``coefficients`` are
    the iterate's rows they were traced under, and ``clearance`` and
    ``inside`` (one row per node) are the origins' distance lower bound to
    the initial boundary and their membership flags.  ``traces`` counts the
    calls that back-traced.
    """

    def __init__(self, anchor, points, t_grid, history, phase, h_flow):
        self.points, self.t_grid, self.history = points, t_grid, history
        self.phase, self.h_flow = phase, h_flow
        self.distance = distance_lower_bound(anchor.mesh, points)
        self.mesh_chi = point_in_mesh(anchor.mesh, points)
        weights = _gradient_weights(anchor.u.basis)
        self.history_growth = np.exp(anchor.t * _row_bound(history.coefficients, weights))
        self.moving = self.coefficients = self.clearance = self.inside = None
        self.traces = 0

    def certifies(self, moving, coefficients, basis):
        """Whether a trace under ``coefficients`` gives the kept flags again.

        One RK4 step of size h is Lipschitz with constant e^{hL}, and driven
        by two fields eps apart it adds at most h eps e^{hL}; so the window
        leg of node i moves an origin by at most e^{tau_i L} tau_i eps
        (tau_i = t_i - t_m), and the fixed history leg grows that by
        ``history_growth``.  No origin crosses the boundary when each
        clearance exceeds that reach plus REUSE_MARGIN, grown alike.
        """
        if self.moving is None or not np.array_equal(moving, self.moving):
            return False
        eps = _row_bound(coefficients - self.coefficients, basis.normalizations)
        weights = _gradient_weights(basis)
        lipschitz = max(_row_bound(coefficients, weights), _row_bound(self.coefficients, weights))
        tau = self.t_grid - self.t_grid[0]
        reach = self.history_growth * np.exp(tau * lipschitz) * (tau * eps + REUSE_MARGIN)
        return bool(np.all(self.clearance > reach[:, None]))

    def __call__(self, sampler):
        """The rows of samples, one per node, under the iterate ``sampler``.

        The iterate's speed is at most sum_j |c_j| n_j over its rows, so a
        point farther than INDICATOR_BAND plus the window's reach from the
        window-start mesh keeps the mesh's answer at every node.  The rest
        take the kept trace's flags when it certifies them for this iterate.
        Otherwise they are back-traced from each node to the window start
        under the iterate, then, stacked, through ``history`` to t = 0 (a
        zero-length leg for the first window) and tested against the initial
        region, and that trace is kept.
        """
        t_grid, h = self.t_grid, self.h_flow
        basis = sampler.basis
        # the sampler's own copy, which no later sweep writes to
        coefficients = sampler.coefficients
        speed = _row_bound(coefficients, basis.normalizations)
        moving = self.distance <= INDICATOR_BAND + (t_grid[-1] - t_grid[0]) * speed
        chi = [self.mesh_chi.copy() for _ in t_grid]
        if not np.any(moving):
            return chi
        if not self.certifies(moving, coefficients, basis):
            points = self.points[moving]
            starts = [integrate_positions(points, sampler, t, t_grid[0], h) for t in t_grid]
            origins = integrate_positions(np.concatenate(starts), self.history, t_grid[0], 0.0, h)
            nodes = (len(t_grid), -1)
            self.moving, self.coefficients = moving, coefficients
            self.clearance = self.phase.boundary_distance(origins).reshape(nodes)
            self.inside = self.phase.contains(origins).reshape(nodes)
            self.traces += 1
        for node, inside in zip(chi, self.inside):
            node[moving] = inside
        return chi


def fixed_point_window(
    anchor,
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
    previous=None,
):
    """Picard solve of u = K(u) on [anchor.t, anchor.t + delta].

    ``previous`` is the accepted window that ends at ``anchor``, if any.  The
    first sweep starts from its forcing, extrapolated in time
    (``extrapolated_predictor``), when ``_extrapolates`` allows it, and
    otherwise from the forward-Euler predictor of the anchor
    (``euler_predictor``), whose indicator is the window-start mesh's; the
    start moves neither the fixed point nor its certificate, only the number
    of sweeps.  N(anchor) is memoised with its indicator row: seeded from
    ``previous``'s last node, read by the Euler start and by every sweep's
    ``apply_K``, and computed again only when that row is new.  Every sweep
    recomputes the magnetic trajectory and the advected interface from the
    current velocity iterate.  When the viscosities differ, one
    ``_WindowIndicator`` gives the indicator rows of every sweep: the
    window-start mesh decides the quadrature points the iterate cannot carry
    to within INDICATOR_BAND of it, and the rest are back-traced, under the
    iterate and then through ``history`` into ``phase``, or keep the last
    trace's flags while the flow-map stability bound certifies them.  Each
    sweep replaces the iterate by K(u), whose row 0 is the anchor bit for
    bit.  A non-finite iterate, a broken dependent or forcing (the predictor's
    included), or an accepted end mesh that crosses itself raises
    WindowFailureError, and so does reaching ``max_iter`` sweeps; otherwise
    the accepted window (residual below ``tol``) is returned.  Both carry
    the number of sweeps that back-traced, ``indicator_traces``, and the
    ``start`` ("euler" or "extrapolated").
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if delta <= 0.0:
        raise ValueError("window size delta must be positive")
    if n_sub < 2:
        raise ValueError("n_sub must be at least 2")
    if previous is not None and previous.states[-1] is not anchor:
        raise ValueError("the previous window must end at the anchor")
    basis = anchor.u.basis
    params = anchor.params
    if params.two_phase and phase is None:
        raise ValueError("a two-phase window needs the initial phase region")
    t_grid = anchor.t + np.linspace(0.0, delta, n_sub + 1)
    if history is None:
        history = SpectralTrajectory(basis, [anchor.t], [anchor.u.coefficients])
    indicator = None
    if params.two_phase:
        indicator = _WindowIndicator(
            anchor, basis.quadrature(order).points, t_grid, history, phase, h_flow
        )
    start = "extrapolated" if _extrapolates(previous, delta) else "euler"
    # N(anchor) and the indicator row it was computed with; the previous
    # window's last node is the anchor
    memo = {"row": previous.chi_cache[-1], "N": previous.N_values[-1]} if previous else {}

    def anchor_forcing(row):
        if not memo or not np.array_equal(memo["row"], row):
            memo.update(row=row, N=apply_N(anchor, order, chi_values=row))
        return memo["N"]

    def failure(message):
        return WindowFailureError(
            f"window at t={anchor.t:.6g} (delta={delta:.3g}) {message}",
            residual_history=residual_history,
            indicator_traces=0 if indicator is None else indicator.traces,
            start=start,
        )

    u_coeffs = None
    residual_history = []
    for iteration in range(1, max_iter + 1):
        try:
            if u_coeffs is None and start == "extrapolated":
                u_coeffs = extrapolated_predictor(anchor, t_grid, previous)
            elif u_coeffs is None:
                mesh_chi = None if indicator is None else indicator.mesh_chi
                u_coeffs = euler_predictor(anchor, t_grid, anchor_forcing(mesh_chi))
            if not np.all(np.isfinite(u_coeffs)):
                raise NumericsError("the velocity iterate has non-finite coefficients")
            sampler = SpectralTrajectory(basis, t_grid, u_coeffs)
            meshes = [anchor.mesh]
            b_fields = [anchor.B]
            resistive = np.zeros(n_sub)
            for i in range(n_sub):
                meshes.append(advect(meshes[-1], sampler, t_grid[i + 1], h_flow))
                b_end, increments = solve_B(
                    sampler, b_fields[-1], t_grid[i], t_grid[i + 1], dt_b, params.sigma, order
                )
                b_fields.append(b_end)
                resistive[i] = float(np.sum(increments))
            chi_cache = [None] * (n_sub + 1) if indicator is None else indicator(sampler)
            states = [
                GalerkinState(
                    t_grid[i], sampler.field_at(t_grid[i]), b_fields[i], meshes[i], params
                )
                for i in range(n_sub + 1)
            ]
            k_coeffs, n_values = apply_K(
                u_coeffs, anchor.u.coefficients, states, order, chi_values=chi_cache,
                anchor_forcing=anchor_forcing(chi_cache[0]),
            )
            residual = float(np.max(np.linalg.norm(u_coeffs - k_coeffs, axis=1)))
            residual_history.append(residual)
            if residual < tol:
                # the end mesh decides the next window's indicator off the band
                check_simple(meshes[-1])
        except (MeshInvariantError, MeshQualityError, IntegrationError, NumericsError) as exc:
            # a blown-up iterate on an oversized window is a window failure,
            # not a run abort: the caller's halving is the remedy
            message = f"broke its dependents or forcing during sweep {iteration}: {exc}"
            raise failure(message) from exc
        if residual < tol:
            return WindowSolve(
                t_grid=t_grid,
                u_trajectory=u_coeffs,
                iterations=iteration,
                residual_history=residual_history,
                N_values=n_values,
                states=states,
                resistive_increments=resistive,
                chi_cache=chi_cache,
                indicator_traces=0 if indicator is None else indicator.traces,
                start=start,
            )
        u_coeffs = k_coeffs
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

    A failed attempt names the error that broke the window: the failure's
    cause when it has one.
    """
    accepted = isinstance(outcome, WindowSolve)
    cause = None if accepted else (outcome.__cause__ or outcome)
    return {
        "t": t,
        "delta": delta,
        "start": outcome.start,
        "sweeps": len(outcome.residual_history),
        "residual_history": outcome.residual_history,
        "indicator_traces": outcome.indicator_traces,
        "accepted": accepted,
        "error": None if accepted else type(cause).__name__,
        "message": None if accepted else str(outcome),
    }


def run(config):
    """Chain fixed-point windows from t = 0 to t = config.T.

    The anchor of each window is the previous endpoint, and the last
    accepted window is handed on as ``previous``: a window starts from its
    forcing, extrapolated in time, unless it is the first, longer than that
    window, or follows one whose indicator changed between nodes, and then
    from the forward-Euler predictor (``fixed_point_window``).  The fixed
    point, its certificate and the halving are the same for either start.
    A window size below ``delta_min``, the first one or a halved one, ends
    the run with a ``NonConvergenceError``.
    The ledger records every sub-step with dissipation increments computed
    by the solver's own quadrature.  Every window attempt, failed or
    accepted, leaves a record (t, delta, start, sweeps, residual history,
    the number of sweeps whose indicator was back-traced rather than reused,
    accepted, and the error's class and message) in ``RunResult.attempts``;
    a sweep counts once its residual is known.  Deterministic for a fixed
    configuration.
    """
    state, phase = config.build()
    basis, params, order = state.u.basis, state.params, config.quadrature_order
    e0 = initial_energy(state.u, state.B, state.mesh, params.kappa)
    delta = initial_window_size(config.delta, state.u.norm(), e0, state.bv_norm())
    delta_initial = delta
    tau_e = default_tolerance(delta / config.n_sub, order, e0)

    ledger = EnergyLedger(E0=e0)
    record(state, ledger, (0.0, 0.0))
    states = [state]
    history = SpectralTrajectory(basis, [0.0], [state.u.coefficients])
    cumulative_n = np.zeros(len(basis))
    windows = []
    samples = []
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
                    "u_norm": state.u.norm(),
                    "B_norm": state.B.norm(),
                },
            )
        delta_use = min(delta, config.T - t)
        try:
            window = fixed_point_window(
                state,
                delta_use,
                config.n_sub,
                config.tol,
                config.max_iter,
                order=order,
                h_flow=config.h_flow,
                dt_b=config.dt_b or delta_use / config.n_sub,
                history=history,
                phase=phase,
                previous=windows[-1] if windows else None,
            )
        except WindowFailureError as exc:
            attempts.append(_attempt_record(t, delta_use, exc))
            delta = delta / 2.0
            continue
        attempts.append(_attempt_record(t, delta_use, window))
        windows.append(window)
        for st, n_value in zip(window.states, window.N_values):
            n_norm = float(np.linalg.norm(n_value))
            samples.append((float(st.t), n_norm, st.u.norm(), st.B.norm(), st.bv_norm()))
        rates = [
            viscous_dissipation_rate(st, order, chi_values=chi)
            for st, chi in zip(window.states, window.chi_cache)
        ]
        for i in range(1, len(window.t_grid)):
            dt = window.t_grid[i] - window.t_grid[i - 1]
            viscous_inc = 0.5 * dt * (rates[i - 1] + rates[i])
            record(window.states[i], ledger, (viscous_inc, window.resistive_increments[i - 1]))
            states.append(window.states[i])
        increments = 0.5 * np.diff(window.t_grid)[:, None] * (
            window.N_values[:-1] + window.N_values[1:]
        )
        cumulative_n += increments.sum(axis=0)
        history = history.extended(window.t_grid, window.u_trajectory)
        state = states[-1]
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
