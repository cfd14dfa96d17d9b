"""capmhd: two-phase incompressible MHD with surface tension at desk scale.

Spectral Galerkin velocity and magnetic fields on a periodic cell, a
Lagrangian interface carried by the characteristic flow map, an atomic
varifold lift of the interface measure, windowed fixed-point solution of the
coupled system, and a ledger certifying the generalized energy inequality.
"""

from .basis import Basis, SpectralField, make_basis, project_L2
from .config import RunConfig
from .energy import EnergyLedger, check_inequality, initial_energy
from .flowmap import SpectralTrajectory
from .galerkin import FluidParams, GalerkinState, apply_N, fixed_point_window, initial_window, run
from .interface import (
    InitialPhase,
    InterfaceMesh,
    advect,
    enclosed_volume,
    mesh_initial,
    perimeter,
)
from .varifold import Varifold, coupling_residual, first_variation, lift

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "SpectralField",
    "make_basis",
    "project_L2",
    "RunConfig",
    "EnergyLedger",
    "check_inequality",
    "initial_energy",
    "SpectralTrajectory",
    "FluidParams",
    "GalerkinState",
    "apply_N",
    "fixed_point_window",
    "initial_window",
    "run",
    "InitialPhase",
    "InterfaceMesh",
    "advect",
    "enclosed_volume",
    "mesh_initial",
    "perimeter",
    "Varifold",
    "coupling_residual",
    "first_variation",
    "lift",
    "__version__",
]
