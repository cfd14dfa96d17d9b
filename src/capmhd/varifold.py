"""Atomic varifolds: the oriented-measure face of the interface.

A varifold here is a finite set of weighted (point, unit normal) atoms, the
lift of an interface mesh: one atom per element with the element centroid,
its outward unit normal and its measure.  The mass of the lift equals the
mesh perimeter by construction (shared element measures), and the first
variation evaluated on a lift reproduces the mesh curvature pairing with the
same quadrature.

The sign convention is fixed here once: atoms carry outward normals, and the
boundary-measure coupling is stated so that lifted varifolds satisfy it with
zero defect.
"""

from dataclasses import dataclass

import numpy as np

from . import interface as _interface


@dataclass
class Varifold:
    """Weighted (point, direction) atoms on the cell times the unit sphere."""

    x: np.ndarray
    s: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.s = np.atleast_2d(np.asarray(self.s, dtype=np.float64))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=np.float64))
        if not (len(self.x) == len(self.s) == len(self.w)):
            raise ValueError("atom arrays must have matching lengths")
        if np.any(self.w <= 0.0):
            raise ValueError("atom weights must be positive")
        lengths = np.linalg.norm(self.s, axis=1)
        if np.max(np.abs(lengths - 1.0)) > 1e-12:
            raise ValueError("atom directions must be unit vectors (within 1e-12)")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.w))):
            raise ValueError("atoms must be finite")

    @property
    def dimension(self):
        return self.x.shape[1]

    def mass(self):
        """Total measure of the varifold."""
        return float(np.sum(self.w))


def lift(mesh):
    """Varifold lift of an interface mesh: one atom per element.

    The atoms are copies of the mesh's element geometry, which the varifold
    then owns.
    """
    return Varifold(*(array.copy() for array in mesh.geometry[:3]))


def first_variation(varifold, phi):
    """First variation: sum of w * (I - s s^T) : grad(phi) over atoms.

    ``phi`` maps (m, d) points to a tuple (values (m, d), grads (m, d, d));
    only the gradients enter the sum.  Linear in phi and in the weights;
    agrees with the mesh curvature pairing on lifts (same quadrature).
    """
    _, grads = phi(varifold.x)
    grads = np.asarray(grads, dtype=np.float64)
    trace = np.einsum("aii->a", grads)
    normal_part = np.einsum("ai,aij,aj->a", varifold.s, grads, varifold.s)
    return float(np.sum(varifold.w * (trace - normal_part)))


def _boundary_pairing(x, s, w, psi):
    values = np.asarray(psi(x), dtype=np.float64)
    return float(np.sum(w * np.einsum("ai,ai->a", s, values)))


def coupling_residual(varifold, mesh, psi):
    """Defect between the varifold's direction pairing and the mesh boundary measure.

    Computes |sum w s . psi(x)  -  sum measure n . psi(centroid)|; the two
    sums carry matching signs under the outward-normal convention, so lifted
    varifolds give exactly zero.
    """
    atom_sum = _boundary_pairing(varifold.x, varifold.s, varifold.w, psi)
    mesh_sum = _boundary_pairing(*mesh.geometry[:3], psi)
    return abs(atom_sum - mesh_sum)


def write_varifold(varifold, path):
    """CSV dump with columns x1..xd, s1..sd, w."""
    d = varifold.dimension
    header = ",".join([f"x{i + 1}" for i in range(d)] + [f"s{i + 1}" for i in range(d)] + ["w"])
    table = np.column_stack([varifold.x, varifold.s, varifold.w])
    text = header + "\n" + _interface.format_rows(",".join(["%.12g"] * (2 * d + 1)), table)
    with open(str(path), "w") as handle:
        handle.write(text)


def varifold_filename(t):
    return f"varifold_t{t:.6f}.csv"
