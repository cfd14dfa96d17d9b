"""Exception types shared across the solver modules."""


class ConfigError(ValueError):
    """Invalid run configuration (bad value, missing field, inconsistency)."""


class IntegrationError(RuntimeError):
    """Non-finite velocity sample encountered while integrating characteristics."""

    def __init__(self, message, t=None, x=None):
        super().__init__(message)
        self.t = t
        self.x = x


class MeshQualityError(RuntimeError):
    """Degenerate interface element (length/area below the quality floor)."""

    def __init__(self, message, element_id=None):
        super().__init__(message)
        self.element_id = element_id


class MeshInvariantError(ValueError):
    """Mesh violates a structural invariant (not closed, flipped orientation)."""


class NumericsError(RuntimeError):
    """Non-finite value produced by quadrature or time stepping."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class WindowFailureError(RuntimeError):
    """Fixed-point iteration on one time window did not reach tolerance.

    Carries the residual of every completed sweep, the attempt's ``work``
    tally up to the failure (``galerkin.WORK``: its forcing evaluations,
    and the sweeps that back-traced and the point-steps and legs of their
    traces), and how the window started ("euler" or "extrapolated").
    """

    def __init__(self, message, residual_history=None, work=None, start=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.work = dict(work or {})
        self.start = start


class NonConvergenceError(RuntimeError):
    """The window size fell below its floor without convergence; run aborted."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
