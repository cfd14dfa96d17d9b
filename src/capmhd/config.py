"""Run configuration: JSON schema, validation and problem assembly.

A configuration is a single JSON object; every validation constraint of the
core modules is checked here before any computation starts.  The resolved
configuration (all defaults filled in) is embedded into the run summary so a
run can be reproduced from its own outputs: ``RunConfig.from_json`` accepts
either a bare configuration or a summary file carrying one under "config".
"""

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .basis import default_quadrature_order, make_basis, project_L2, SpectralField
from .errors import ConfigError
from .galerkin import FluidParams, GalerkinState
from .interface import InitialPhase, mesh_initial

_FIELD_TYPES = ("zero", "taylor_green", "single_mode", "coefficients")


def _taylor_green_sampler(dimension, amplitude):
    if dimension == 2:
        def sampler(points):
            x, y = points[..., 0], points[..., 1]
            return amplitude * np.stack(
                [np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)], axis=-1
            )
    else:
        def sampler(points):
            x, y, z = points[..., 0], points[..., 1], points[..., 2]
            return amplitude * np.stack(
                [
                    np.sin(x) * np.cos(y) * np.cos(z),
                    -np.cos(x) * np.sin(y) * np.cos(z),
                    np.zeros_like(z),
                ],
                axis=-1,
            )
    return sampler


def build_initial_field(spec, basis, order):
    """Spectral field for one initial-data entry of the config.

    Analytic fields go through the L2 projection (hence divergence-free by
    construction); explicit coefficients or single modes are already in the
    span and are set directly.
    """
    kind = spec.get("type")
    if kind == "zero":
        return SpectralField(basis, np.zeros(len(basis)))
    if kind == "taylor_green":
        amplitude = float(spec.get("amplitude", 1.0))
        return project_L2(_taylor_green_sampler(basis.dimension, amplitude), basis, order)
    if kind == "single_mode":
        wavevector = tuple(int(k) for k in spec["wavevector"])
        phase = spec.get("phase", "cos")
        polarization = int(spec.get("polarization", 0))
        amplitude = float(spec.get("amplitude", 1.0))
        j = basis.index(wavevector, phase, polarization)
        if j is None:
            raise ConfigError(
                f"single_mode {wavevector}/{phase}/{polarization} is not in the basis "
                "(wavevector must be in the canonical half-space with max|k_i| <= kmax)"
            )
        coefficients = np.zeros(len(basis))
        coefficients[j] = amplitude
        return SpectralField(basis, coefficients)
    if kind == "coefficients":
        values = np.asarray(spec["values"], dtype=np.float64)
        if values.shape != (len(basis),):
            raise ConfigError(
                f"coefficient list has length {values.size}, basis has {len(basis)} modes"
            )
        return SpectralField(basis, values)
    raise ConfigError(f"initial field type must be one of {_FIELD_TYPES}, got {kind!r}")


def _check_field_spec(key, spec):
    """Reject the nested values that ``build_initial_field`` would cast wrongly.

    float() passes NaN and infinities into the projection, and int() turns
    the wavevector entry 1.5 into mode 1, the polarization 0.7 into 0 and
    true into 1, and fails on a string.
    """
    entries = [spec.get("amplitude", 1.0)]
    if spec.get("type") == "coefficients":
        entries.extend(np.ravel(spec["values"]))
    if any(isinstance(v, bool) or not math.isfinite(float(v)) for v in entries):
        raise ConfigError(f"{key} amplitude and values must be finite numbers")
    if spec.get("type") == "single_mode":
        wavevector = spec.get("wavevector")
        if not isinstance(wavevector, (list, tuple)) or not all(map(_is_integer, wavevector)):
            raise ConfigError(f"{key} wavevector must list integers, got {wavevector!r}")
        polarization = spec.get("polarization", 0)
        if not _is_integer(polarization):
            raise ConfigError(f"{key} polarization must be an integer, got {polarization!r}")


def _is_integer(value):
    """Whether a config value is a whole number (and not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def _is_zero_field(spec):
    if spec.get("type") == "zero":
        return True
    if spec.get("type") in ("taylor_green", "single_mode"):
        return float(spec.get("amplitude", 1.0)) == 0.0
    if spec.get("type") == "coefficients":
        return not np.any(np.asarray(spec.get("values", [0.0])))
    return False


# Solver keys of older configs and summaries, each with the only value it may
# still take and the reason no other value is honoured.
_RETIRED_SOLVER_KEYS = {
    "omega": (1.0, "each Picard sweep takes K(u) undamped"),
    "resample_2d": (False, "the interface is never resampled"),
}


def _solver(default):
    return field(default=default, metadata={"section": "solver"})


def _location(f):
    """(JSON section or None, key) of a RunConfig field."""
    return f.metadata.get("section"), f.metadata.get("key", f.name)


def _coerce(f, key, value):
    """``value`` as the type of field ``f``, rejecting what the cast would change.

    float() passes NaN and infinities and int() truncates 2.7; neither may
    reach the solver.
    """
    if value is None and f.default is None:
        return None
    if f.type in (int, float) and isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if f.type is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    value = f.type(value)
    if f.type is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Validated parameters of one run (solver knobs resolved to defaults).

    Each field sits in the JSON object under its name, in the "solver" or
    "output" section given by its metadata, or under a different key given
    there; ``from_dict`` and ``resolved`` both read this layout.
    """

    dimension: int
    kmax: int
    T: float
    initial_velocity: dict
    initial_magnetic: dict
    phase_shape: dict = field(metadata={"key": "phase"})
    nu_plus: float
    nu_minus: float
    sigma: float
    kappa: float
    delta: float = _solver(0.1)
    n_sub: int = _solver(8)
    tol: float = _solver(1e-8)
    quadrature_order: int = _solver(None)
    h_flow: float = _solver(0.01)
    dt_b: float = _solver(None)
    mesh_resolution: int = _solver(None)
    delta_min: float = _solver(1e-6)
    max_iter: int = _solver(40)
    output_dir: str = field(default="out", metadata={"section": "output", "key": "directory"})
    cadence: float = field(default=None, metadata={"section": "output"})

    def __post_init__(self):
        self.validate()

    def validate(self):
        _check_field_spec("initial_velocity", self.initial_velocity)
        _check_field_spec("initial_magnetic", self.initial_magnetic)
        if self.dimension not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.kmax < 1:
            raise ConfigError(f"kmax must be >= 1, got {self.kmax}")
        if self.T < 0.0 or not math.isfinite(self.T):
            raise ConfigError(f"T must be a finite nonnegative time, got {self.T}")
        self.fluid_params()  # validates nu_plus, nu_minus, sigma and kappa
        if self.nu_plus == 0.0 and self.nu_minus == 0.0:
            if self.kappa > 0.0 or not _is_zero_field(self.initial_magnetic):
                raise ConfigError(
                    "nu_plus = nu_minus = 0 is rejected when kappa > 0 or B0 != 0 "
                    "(no dissipation to control the iteration)"
                )
        if self.delta <= 0.0:
            raise ConfigError("delta must be positive")
        if self.n_sub < 2:
            raise ConfigError("n_sub must be at least 2")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.h_flow <= 0.0:
            raise ConfigError("h_flow must be positive")
        if self.quadrature_order is None:
            self.quadrature_order = default_quadrature_order(self.kmax)
        if self.quadrature_order < 1:
            raise ConfigError("quadrature_order must be positive")
        if self.dt_b is not None and self.dt_b <= 0.0:
            raise ConfigError("dt_b must be positive when given")
        if self.mesh_resolution is None:
            self.mesh_resolution = 256 if self.dimension == 2 else 4
        if self.dimension == 2 and self.mesh_resolution < 8:
            raise ConfigError("2D mesh_resolution must be >= 8 vertices")
        if self.dimension == 3 and self.mesh_resolution < 1:
            raise ConfigError("3D mesh_resolution (icosphere level) must be >= 1")
        if self.delta_min <= 0.0:
            raise ConfigError("delta_min must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if self.cadence is not None and self.cadence <= 0.0:
            raise ConfigError("cadence must be positive when given")
        self.phase_region()  # validates shape and containment

    def phase_region(self):
        shape = dict(self.phase_shape)
        kind = shape.get("shape")
        center = shape.get("center")
        if kind in ("disk", "ball"):
            radius = float(shape["radius"])
            radii = (radius,) * self.dimension
        elif kind in ("ellipse", "ellipsoid"):
            radii = tuple(float(r) for r in shape["radii"])
        else:
            raise ConfigError(f"unknown phase shape {kind!r}")
        try:
            return InitialPhase(kind, tuple(float(c) for c in center), radii)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid phase shape: {exc}") from exc

    def fluid_params(self):
        try:
            return FluidParams(self.nu_plus, self.nu_minus, self.sigma, self.kappa)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build(self):
        """(state at t = 0, initial phase region) of the run.

        The state holds the initial fields on the basis, the initial
        interface mesh and the physical constants.
        """
        basis = make_basis(self.dimension, self.kmax)
        u0 = build_initial_field(self.initial_velocity, basis, self.quadrature_order)
        b0 = build_initial_field(self.initial_magnetic, basis, self.quadrature_order)
        phase = self.phase_region()
        mesh0 = mesh_initial(phase, self.mesh_resolution)
        return GalerkinState(0.0, u0, b0, mesh0, self.fluid_params()), phase

    def resolved(self):
        """Plain dict with every default filled in (embedded into summaries)."""
        out = {}
        for f in fields(self):
            section, key = _location(f)
            target = out.setdefault(section, {}) if section else out
            target[key] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, data):
        """Validated config from a bare config or a summary's "config" object.

        A key that no field reads is rejected, except a retired solver key
        at its only value.
        """
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]  # summary files embed the resolved config
        layout = [(f, *_location(f)) for f in fields(cls)]
        missing = [key for f, _, key in layout if f.default is MISSING and key not in data]
        if missing:
            raise ConfigError(f"missing config fields: {', '.join(missing)}")
        try:
            # copies of the sections, so the retired keys can be taken out
            sources = {
                section: dict(data.get(section, {})) if section else data
                for _, section, _ in layout
            }
            for key, (allowed, reason) in _RETIRED_SOLVER_KEYS.items():
                value = sources["solver"].pop(key, allowed)
                if isinstance(value, bool) != isinstance(allowed, bool) or value != allowed:
                    raise ConfigError(f"{key} must be {json.dumps(allowed)}: {reason}")
            known = {section: {k for _, s, k in layout if s == section} for section in sources}
            known[None] |= set(sources) - {None}
            unknown = [
                f"{key} must be one of the {section or 'top-level'} keys: "
                + ", ".join(sorted(known[section]))
                for section, source in sources.items()
                for key in source
                if key not in known[section]
            ]
            if unknown:
                raise ConfigError("; ".join(unknown))
            return cls(**{
                f.name: _coerce(f, key, sources[section][key])
                for f, section, key in layout
                if key in sources[section]
            })
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid config value: {exc}") from exc

    @classmethod
    def from_json(cls, path):
        try:
            with open(str(path)) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)
