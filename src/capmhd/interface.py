"""Lagrangian interface: meshes for the phase boundary and its measures.

The phase region starts as an analytic disk/ball or axis-aligned
ellipse/ellipsoid strictly inside the periodic cell.  Its boundary is carried
as an oriented closed mesh (polygon in 2D, triangle mesh in 3D) whose
vertices ride the flow map, while the phase indicator at an arbitrary point
is decided in two ways that agree away from the boundary: back-tracing the
point to time zero and testing membership in the analytic initial region,
or casting a ray against the mesh.  The window driver back-traces only the
points that the window's flow can carry into a thin band of the
window-start mesh, where the two may differ by integration error and chord
sagitta; every other point keeps the window's first indicator row.  It
tests the band again where the traced points reach the window start: the
mesh's ray cast decides those outside it, and only the points inside it
are back-traced on to time zero.  The band lies beyond the mesh's own
estimate of its sagitta (``sagitta``), so a coarse or stretched mesh keeps
more points for the back-trace.  A distance to a mesh is asked within a
radius (``mesh_distance``): exact where it is at most the radius, in 2D
and 3D, and +inf beyond, so only the elements whose boxes come that near a
point are measured against it.

Mesh vertices are never wrapped into the periodic cell: the region stays
strictly inside by construction and wrapping would tear the connectivity.
No remeshing happens: a degenerate element raises and aborts the run
(signalling under-resolution) rather than silently perturbing the interface
measure.  The flow map is a homeomorphism, so the connectivity is fixed by
the initial mesh: ``mesh_initial`` pairs its element sides once
(``InterfaceMesh.across``, which refuses an open mesh) and makes it
read-only, and every advected mesh shares both and checks only its geometry.
A mesh's vertices are read-only too, so its geometry (element centres, unit
normals, measures and the signed volume) is computed and checked once,
together, and every measure of the mesh reads it: no reader gets the
geometry of a mesh with a non-finite vertex, a degenerate element or an
inward orientation.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import TWO_PI
from .errors import MeshInvariantError, MeshQualityError
from .flowmap import integrate_positions

_QUALITY_FLOOR = 1e-12

# Padding of the broad-phase boxes of the 3D ray cast and of the distance
# query.  Along the ray the plane coordinates (x - y, y - z) drift by the
# direction's 3e-16 departure from (1, 1, 1)/sqrt(3) per unit length, and
# the exact side test and a computed distance round at about 1e-14 of the
# coordinates, all far below it.
_BOX_PAD = 1e-9

_SHAPES_2D = ("disk", "ellipse")
_SHAPES_3D = ("ball", "ellipsoid")


@dataclass(frozen=True)
class InitialPhase:
    """Analytic descriptor of the initial phase region.

    The closure must sit inside the open cell with margin >= max(radii)/10.
    """

    kind: str
    center: tuple
    radii: tuple

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        radii = np.asarray(self.radii, dtype=np.float64)
        d = center.size
        if d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {d}")
        if radii.size != d:
            raise ValueError("radii must have one entry per axis")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(radii))):
            raise ValueError("center and radii must be finite")
        if self.kind not in (_SHAPES_2D if d == 2 else _SHAPES_3D):
            raise ValueError(f"unknown shape {self.kind!r} in dimension {d}")
        if self.kind in ("disk", "ball") and not np.all(radii == radii[0]):
            raise ValueError(f"{self.kind} requires equal radii")
        if np.any(radii <= 0.0):
            raise ValueError("radii must be positive")
        margin = float(np.max(radii)) / 10.0
        if np.any(center - radii < margin) or np.any(center + radii > TWO_PI - margin):
            raise ValueError(
                "shape must lie inside the cell with margin >= max(radius)/10"
            )

    @property
    def dimension(self):
        return len(self.center)

    def contains(self, points):
        """Membership in the closed region ({0,1} ints, batched)."""
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        p = np.atleast_2d(points)
        scaled = (p - np.asarray(self.center)) / np.asarray(self.radii)
        inside = (np.sum(scaled**2, axis=-1) <= 1.0).astype(np.int64)
        return int(inside[0]) if single else inside

    def boundary_distance(self, points):
        """Lower bound on the distance to the region's boundary, batched.

        With s = (x - c) / r this is r_min * | |s| - 1 |: exact for the disk
        and the ball, and a lower bound for the ellipse and the ellipsoid,
        since every boundary point y has |s(y)| = 1 and
        |x - y| >= r_min |s(x) - s(y)| >= r_min | |s(x)| - 1 |.
        """
        radii = np.asarray(self.radii)
        scaled = (np.atleast_2d(points) - np.asarray(self.center)) / radii
        return np.min(radii) * np.abs(np.sqrt(np.sum(scaled**2, axis=-1)) - 1.0)


def disk(center, radius):
    return InitialPhase("disk", tuple(center), (float(radius),) * 2)


def ball(center, radius):
    return InitialPhase("ball", tuple(center), (float(radius),) * 3)


def ellipse(center, radii):
    return InitialPhase("ellipse", tuple(center), tuple(float(r) for r in radii))


def ellipsoid(center, radii):
    return InitialPhase("ellipsoid", tuple(center), tuple(float(r) for r in radii))


class MeshGeometry(NamedTuple):
    """Element centres, unit outward normals and measures, and the signed volume."""

    centers: np.ndarray
    normals: np.ndarray
    measures: np.ndarray
    volume: float


@dataclass
class InterfaceMesh:
    """Oriented closed Lagrangian mesh: polygon (2D) or triangle mesh (3D).

    The vertices are a read-only copy, so ``geometry``, computed and checked
    once, together, on first use, stays the geometry of the mesh.
    """

    vertices: np.ndarray
    elements: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.vertices = np.array(self.vertices, dtype=np.float64, ndmin=2)
        self.vertices.setflags(write=False)
        self.elements = np.atleast_2d(np.asarray(self.elements, dtype=np.int64))
        d = self.vertices.shape[1]
        if d not in (2, 3):
            raise ValueError(f"vertex dimension must be 2 or 3, got {d}")
        if self.elements.shape[1] != d:
            raise ValueError("elements must be segments in 2D, triangles in 3D")

    @property
    def dimension(self):
        return self.vertices.shape[1]

    def element_corners(self):
        """Corner coordinates per element: (ne, d, d)."""
        return self.vertices[self.elements]

    @functools.cached_property
    def geometry(self):
        """The ``MeshGeometry`` of the elements, in one pass over the corners.

        The normal is the quarter-turned edge (2D) or the cross product of
        two edges (3D), as long as the edge or twice the triangle's area.
        The arrays are read-only.  It is checked as it is computed: a
        non-finite vertex raises MeshInvariantError; an element below the
        quality floor MeshQualityError, naming the smallest element; and a
        signed volume that is not positive MeshInvariantError (orientation).
        """
        if not np.isfinite(self.vertices).all():
            raise MeshInvariantError("mesh vertices contain non-finite entries")
        corners = self.element_corners()
        a, b = corners[:, 0], corners[:, 1]
        # summed about vertex 0, the signed volume does not cancel far from the origin
        o = self.vertices[0]
        if self.dimension == 2:
            tangents = b - a
            raw = np.stack([tangents[:, 1], -tangents[:, 0]], axis=-1)
            volume = 0.5 * float(np.sum(_cross_2d(a - o, b - o)))
            centers = (a + b) / 2
        else:
            c = corners[:, 2]
            raw = _cross3(b - a, c - a)
            volume = float(np.sum(np.einsum("ei,ei->e", a - o, _cross3(b - o, c - o)))) / 6.0
            centers = (a + b + c) / 3
        # np.linalg.norm's own sum of squares
        lengths = np.sqrt(np.add.reduce(raw * raw, axis=1))
        measures = lengths if self.dimension == 2 else 0.5 * lengths
        if (measures < _QUALITY_FLOOR).any():
            bad = int(np.argmin(measures))
            raise MeshQualityError(
                f"degenerate element {bad} (measure {measures[bad]:.3e})",
                element_id=bad,
            )
        if volume <= 0.0:
            raise MeshInvariantError("mesh orientation is not consistently outward")
        normals = raw / lengths[:, None]
        arrays = centers, normals, measures
        for array in arrays:
            array.setflags(write=False)
        return MeshGeometry(*arrays, volume)

    @functools.cached_property
    def across(self):
        """For each element side, the index of the side it meets: (ne, d).

        Side k of element e has index e * d + k, so ``across // d`` is the
        element across each side.  In 2D a segment's sides are its start and
        its end, and its end meets the next segment's start; in 3D its sides
        are the directed edges (a, b), (b, c), (c, a), and (a, b) meets (b, a).
        Sorted, the sides' keys and the keys they seek must be equal and free
        of repeats (and in 2D every vertex used), or MeshInvariantError.
        Whatever needs a closed mesh reads it; ``advect`` hands it on.
        """
        d, n = self.dimension, len(self.vertices)
        if d == 2:
            keys = (2 * self.elements + [0, 1]).ravel()
            partners = keys ^ 1
        else:
            start, end = self.elements.ravel(), np.roll(self.elements, -1, axis=1).ravel()
            keys, partners = start * n + end, end * n + start
        order, wanted = np.argsort(keys), np.argsort(partners)
        ranked = keys[order]
        closed = (np.diff(ranked) > 0).all() and (ranked == partners[wanted]).all()
        if not closed or (d == 2 and len(self.elements) != n):
            raise MeshInvariantError(f"{d}D mesh is not closed with consistent orientation")
        # side wanted[i] meets side order[i]
        across = order[np.argsort(wanted)].reshape(-1, d)
        across.setflags(write=False)
        return across

    @functools.cached_property
    def edges(self):
        """The distinct edges as vertex pairs, and each element's edges as
        rows of them: in 2D a segment is its own edge (``elements`` itself);
        in 3D each triangle has three, each kept once, in the direction of
        the side below the one ``across`` it.  Apart from ``geometry``, so a
        mesh that no distance is asked of does not compute them.
        """
        if self.dimension == 2:
            sides = np.arange(len(self.elements))[:, None]
            sides.setflags(write=False)
            return self.elements, sides
        partner = self.across.ravel()
        first = np.arange(len(partner)) <= partner
        row = np.cumsum(first) - 1
        ends = np.stack([self.elements, np.roll(self.elements, -1, axis=1)], axis=-1)
        arrays = ends.reshape(-1, 2)[first], np.where(first, row, row[partner]).reshape(-1, 3)
        for array in arrays:
            array.setflags(write=False)
        return arrays

    def validate(self):
        """Check closedness (``across``), then read ``geometry``, which checks the rest."""
        self.across
        self.geometry
        return self


def _runs(starts, ends):
    """Index pairs (i, m), one for each m in range(starts[i], ends[i])."""
    counts = np.maximum(ends - starts, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    # each pair's place in its owner's run, shifted to the run's start
    member = np.arange(len(owner)) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return owner, member


def _points_in_boxes(points, lo, hi):
    """Index pairs (point, box) with lo[box] <= points[point] <= hi[box] on every axis.

    ``points`` is (n, k), ``lo`` and ``hi`` are (m, k).  Sort and sweep on
    the first axis: the points are sorted by it once, and two
    ``searchsorted`` calls give each box its run of points there.  Of those
    pairs, the ones that also hold on each other axis in turn are kept.
    """
    order = np.argsort(points[:, 0], kind="stable")
    ranked = points[order, 0]
    box, point = _runs(
        np.searchsorted(ranked, lo[:, 0], side="left"),
        np.searchsorted(ranked, hi[:, 0], side="right"),
    )
    point = order[point]
    for k in range(1, points.shape[1]):
        x = points[:, k][point]
        keep = lo[:, k][box] <= x
        keep &= x <= hi[:, k][box]
        point, box = point[keep], box[keep]
    return point, box


def box_pairs(lo, hi):
    """Index pairs (i, j), i < j, of the boxes [lo, hi] that overlap.

    ``lo`` and ``hi`` are (n, d) corner arrays.  Sort and sweep: the boxes
    are sorted by their low end on the first axis, and ``searchsorted``
    gives each box the run of later boxes that start at or before its high
    end there.  Of those, the pairs that also overlap on every other axis
    are kept.  Every bound is inclusive, so boxes that only touch are a
    pair.
    """
    order = np.argsort(lo[:, 0], kind="stable")
    ends = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    # the later boxes in sweep order that start within each box's x-range
    first, second = _runs(np.arange(1, len(order) + 1), ends)
    i, j = order[first], order[second]
    keep = np.all((lo[i, 1:] <= hi[j, 1:]) & (lo[j, 1:] <= hi[i, 1:]), axis=1)
    return np.minimum(i[keep], j[keep]), np.maximum(i[keep], j[keep])


def check_simple(mesh):
    """Raise MeshInvariantError when two edges of a 2D polygon cross.

    Only proper crossings count: each edge has the other's endpoints strictly
    on opposite sides.  Two edges that share a vertex see it at an exactly
    zero side, since the coordinate differences that reach it are exact, so
    neighbours and collinear edges do not trip the test.  Two edges that
    cross share a point, so their bounding boxes overlap: ``box_pairs``
    finds those pairs, about n of them for a smooth polygon rather than
    n^2, and only they go through the sign test.  The first crossing pair
    by edge index is reported.  3D meshes are not checked.
    """
    if mesh.dimension != 2:
        return mesh
    corners = mesh.element_corners()
    i, j = box_pairs(np.min(corners, axis=1), np.max(corners, axis=1))
    a, span = corners[:, 0], corners[:, 1] - corners[:, 0]
    # where edge j's ends lie seen from edge i, and back
    to_a, here, there = a[j] - a[i], span[i], span[j]
    apart = np.sign(_cross_2d(here, to_a)) * np.sign(_cross_2d(here, to_a + there))
    back = np.sign(_cross_2d(there, -to_a)) * np.sign(_cross_2d(there, here - to_a))
    crossing = np.flatnonzero((apart < 0.0) & (back < 0.0))
    if crossing.size:
        k = crossing[np.lexsort((j[crossing], i[crossing]))[0]]
        raise MeshInvariantError(f"2D mesh crosses itself (edges {i[k]} and {j[k]})")
    return mesh


def mesh_distance(mesh, points, radius):
    """Each point's exact distance to the mesh where it is at most
    ``radius``, and +inf beyond it.

    A segment's nearest point is the point's projection onto it, clamped to
    it; a triangle's is the foot of the perpendicular when that falls inside
    it, else the nearest point of an edge (Ericson, *Real-Time Collision
    Detection*, 2005, 5.1.5).  So the distance is the least over the
    ``edges`` and, in 3D, over the heights of the triangles whose foot is on
    the inner side of every edge.  An element within ``radius`` of a point
    holds the point in its box widened by ``radius`` (and _BOX_PAD), so one
    sweep (``_points_in_boxes``) pairs each point with those elements, and
    the arithmetic, per axis, runs on those pairs and their elements' edges
    only; radius = inf pairs every point with every element.
    """
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d, corners = mesh.dimension, mesh.element_corners()
    # the 3D heights read the normals, so an invalid mesh raises before any arithmetic
    normals = mesh.geometry.normals if d == 3 else None
    edges, sides = mesh.edges
    start = mesh.vertices[edges[:, 0]]
    span = mesh.vertices[edges[:, 1]] - start
    squared_length = np.linalg.norm(span, axis=1) ** 2
    pad = radius + _BOX_PAD
    lo, hi = np.min(corners, axis=1) - pad, np.max(corners, axis=1) + pad
    point, element = _points_in_boxes(p, lo, hi)
    # the candidates' edges; one that two candidates share is measured twice, alike
    q, e = np.repeat(point, sides.shape[1]), sides[element].ravel()
    delta = [p[q, i] - start[e, i] for i in range(d)]
    s = np.clip(sum(delta[i] * span[e, i] for i in range(d)) / squared_length[e], 0.0, 1.0)
    squared = np.full(len(p), np.inf)
    np.minimum.at(squared, q, sum((delta[i] - s * span[e, i]) ** 2 for i in range(d)))
    if d == 3:
        t = element
        a = corners[:, 0]
        # each edge's inward normal in its triangle's plane, and its value on the edge
        inward = np.cross(normals[:, None], np.roll(corners, -1, axis=1) - corners)
        offset = np.einsum("ekd,ekd->ek", corners - a[:, None], inward)
        delta = [p[point, i] - a[t, i] for i in range(d)]
        inside = np.all([
            sum(delta[i] * inward[t, k, i] for i in range(d)) >= offset[t, k] for k in range(3)
        ], axis=0)
        height = sum(delta[i] * normals[t, i] for i in range(d))
        np.minimum.at(squared, point[inside], height[inside] ** 2)
    distance = np.sqrt(squared)
    distance[distance > radius] = np.inf
    return distance


def sagitta(mesh):
    """An estimate of how far the smooth interface through the mesh's
    vertices lies from the mesh: the largest over its elements.

    An element is taken for a piece of the circle (2D) or sphere (3D) that
    the turn theta of its normal to those ``across`` its sides suggests,
    theta the largest such turn:
    - 2D: a chord of length L that turns by theta at each end lies
      (L/2) tan(theta/4) from its arc, exactly so on a circle;
    - 3D: a triangle within r of its nearest corner (r the longest edge /
      sqrt(3)) lies about r^2 / (2R) from a sphere of radius R through its
      corners, and its neighbours' normals turn by about r / R, hence
      r tan(theta/2).
    It is an estimate, not a bound, but a kink or fold only makes it
    larger; it is not below the gap on any polygon of an ellipse or
    icosphere of an ellipsoid that the tests measure.
    """
    d, normals, across = mesh.dimension, mesh.geometry.normals, mesh.across.ravel()
    cosines = np.einsum("ed,ed->e", np.repeat(normals, d, axis=0), normals[across // d])
    theta = np.max(np.arccos(np.clip(cosines, -1.0, 1.0)).reshape(-1, d), axis=1)
    if d == 2:
        return float(np.max(0.5 * mesh.geometry.measures * np.tan(theta / 4.0)))
    corners = mesh.element_corners()
    longest = np.max(np.linalg.norm(np.roll(corners, 1, axis=1) - corners, axis=-1), axis=1)
    return float(np.max(longest / np.sqrt(3.0) * np.tan(theta / 2.0)))


def _cross_2d(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    vertices = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    vertices /= np.linalg.norm(vertices, axis=1)[:, None]
    return vertices, faces


def _subdivide(vertices, faces):
    """Split every face in four, with the edge midpoints on the unit sphere.

    The midpoints of each face's edges (a, b), (b, c), (c, a), taken face by
    face, are numbered after the old vertices in order of first appearance.
    Each norm is the row's own dot product, as for a single vector.
    """
    n = len(vertices)
    ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
    keys = np.min(ends, axis=1) * n + np.max(ends, axis=1)
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    # the midpoint number of each unique edge: the inverse permutation of order
    ab, bc, ca = (n + np.argsort(order)[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    edges = unique[order]
    sums = vertices[edges // n] + vertices[edges % n]
    midpoints = sums / np.sqrt(sums[:, None, :] @ sums[:, :, None])[:, 0]
    children = [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    out = np.stack([np.stack(child, axis=-1) for child in children], axis=1)
    return np.concatenate([vertices, midpoints]), out.reshape(-1, 3)


def _icosphere(level):
    vertices, faces = _icosahedron()
    for _ in range(level):
        vertices, faces = _subdivide(vertices, faces)
    return vertices, faces


def mesh_initial(phase, resolution):
    """Discretize the boundary of the initial region.

    2D: a counter-clockwise polygon with ``resolution`` >= 8 vertices.
    3D: an icosphere at subdivision level ``resolution`` >= 1, scaled by the
    semi-axes.  Vertices lie on the analytic boundary exactly.  The elements
    array is read-only, since every advected mesh shares it.
    """
    d = phase.dimension
    center = np.asarray(phase.center)
    radii = np.asarray(phase.radii)
    if d == 2:
        if resolution < 8:
            raise ValueError(f"2D resolution must be >= 8 vertices, got {resolution}")
        theta = np.arange(resolution) * (2.0 * np.pi / resolution)
        vertices = center + np.stack(
            [radii[0] * np.cos(theta), radii[1] * np.sin(theta)], axis=-1
        )
        idx = np.arange(resolution)
        elements = np.stack([idx, (idx + 1) % resolution], axis=-1)
    else:
        if resolution < 1:
            raise ValueError(f"icosphere subdivision level must be >= 1, got {resolution}")
        unit, elements = _icosphere(resolution)
        vertices = center + unit * radii
    mesh = InterfaceMesh(vertices, elements, t=0.0).validate()
    mesh.elements.setflags(write=False)
    return mesh


def advect(mesh, sampler, t1, h):
    """Transport mesh vertices to time t1 >= mesh.t.

    The result shares ``mesh.elements`` and ``mesh.across``: the flow map leaves
    the connectivity as it was made, so only the geometry is checked, by reading it.
    """
    if t1 < mesh.t:
        raise ValueError(f"target time {t1} precedes start time {mesh.t}")
    vertices = integrate_positions(mesh.vertices, sampler, mesh.t, t1, h)
    advected = InterfaceMesh(vertices, mesh.elements, t=t1)
    advected.across = mesh.across
    advected.geometry
    return advected


def perimeter(mesh):
    """Interface measure: total edge length (2D) / total triangle area (3D)."""
    return float(np.sum(mesh.geometry.measures))


def enclosed_volume(mesh):
    """Volume enclosed by the mesh via the divergence theorem; ``across`` checks it is closed."""
    mesh.across
    return mesh.geometry.volume


def curvature_pairing_modes(mesh, basis):
    """Curvature pairing against every basis mode at once: (n_modes,).

    Each mode gradient is rank one, grad(eta_j) = c_j trig'(k_j . x) e_j k_j^T,
    so (I - n n^T) : grad(eta_j) = c_j trig'(k_j . x) ((e_j . k_j) - (n . e_j)(n . k_j)).
    The trace term e_j . k_j vanishes because every mode is divergence-free,
    which leaves -c_j sum_e |e| trig'(k_j . x_e) (n_e . e_j)(n_e . k_j).  With
    c_j trig'(theta) e_j = Re(i w_j e^{i theta}), w_j the mode's row of
    ``Lattice.weights``, that is Im(w_j . F(k_j) k_j), where
    F(k) = sum_e |e| n_e n_e^T e^{ik.x_e} is one ``Lattice.transform`` of the
    elements' weighted normal products.  F is symmetric, so only its
    d(d+1)/2 distinct entries are transformed, and each mode's row of
    ``Lattice.symmetric_weights`` contracts them.
    """
    centers, n, measures, _ = mesh.geometry
    lattice = basis.lattice
    rows, cols = lattice.upper
    products = measures[:, None] * n[:, rows] * n[:, cols]
    f = lattice.transform(centers, products)[lattice.index]
    return np.sum((lattice.symmetric_weights * f).imag, axis=1)


def _dot3(u, v):
    """u . v over the last axis of length 3, elementwise in a fixed order."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _cross3(u, v):
    """u x v over the last axis of length 3, by the operations of np.cross."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def point_in_mesh(mesh, points):
    """Geometric membership test against the mesh (even-odd ray casting).

    A broad phase (``_points_in_boxes``) first pairs each point with the
    elements its ray can cross: in 2D the ray runs along +x, and an edge can
    be crossed only by the points within its y-range; in 3D the ray runs
    along d, close to (1, 1, 1), and a triangle can be crossed only by the
    points whose plane coordinates (x - y, y - z) lie in its box, padded by
    _BOX_PAD.  The exact test then decides each pair as it would against
    every element.  Even-odd counting is membership only for a closed mesh,
    so ``across`` checks that first.
    """
    mesh.across
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    p = np.atleast_2d(points)
    corners = mesh.element_corners()
    if mesh.dimension == 2:
        ys = corners[..., 1:]
        point, edge = _points_in_boxes(p[:, 1:], np.min(ys, axis=1), np.max(ys, axis=1))
        q, a, b = p[point], corners[edge, 0], corners[edge, 1]
        ay = a[:, 1] - q[:, 1]
        by = b[:, 1] - q[:, 1]
        straddle = (ay > 0.0) != (by > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = a[:, 0] + ay / (ay - by) * (b[:, 0] - a[:, 0])
        hit = straddle & (x_cross > q[:, 0])
    else:
        # The ray crosses a triangle when it passes every edge on the same
        # side: the side of edge (a, b) is the sign of
        #   d . ((a - p) x (b - p)) = d . (a x b) - p . (d x (a - b)).
        # Both terms are built elementwise, so the value is exactly negated
        # for the reversed edge of the neighbouring triangle and a ray
        # through a shared edge counts once; an exact zero takes the sign of
        # the edge's direction in index order.
        direction = np.array([0.57735026918962580, 0.57735026918962562, 0.57735026918962551])
        a, b = corners, np.roll(corners, -1, axis=1)
        offset = _dot3(direction, np.cross(a, b))
        slope = np.cross(direction, a - b)
        normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        height = _dot3(corners[:, 0], normal)
        tie = np.where(mesh.elements < np.roll(mesh.elements, -1, axis=1), 1.0, -1.0)
        plane = np.stack([p[:, 0] - p[:, 1], p[:, 1] - p[:, 2]], axis=-1)
        corner_plane = np.stack([a[..., 0] - a[..., 1], a[..., 1] - a[..., 2]], axis=-1)
        point, tri = _points_in_boxes(
            plane, np.min(corner_plane, axis=1) - _BOX_PAD, np.max(corner_plane, axis=1) + _BOX_PAD
        )
        q = p[point]
        ahead = np.sign(height[tri] - _dot3(q, normal[tri]))
        hit = np.ones(len(tri), dtype=bool)
        for k in range(3):
            side = offset[tri, k] - _dot3(q, slope[tri, k])
            hit &= np.where(side == 0.0, tie[tri, k], np.sign(side)) == ahead
    inside = np.bincount(point[hit], minlength=len(p)) % 2
    return int(inside[0]) if single else inside


def _polygon_order(mesh):
    """Vertex indices walked along the polygon connectivity."""
    following = (mesh.across[:, 1] // 2).tolist()
    walk = [0]
    for _ in range(len(following) - 1):
        walk.append(following[walk[-1]])
    return mesh.elements[walk, 0]


def format_rows(row_format, table):
    """One line per row of ``table``, each ``row_format % row``, in one pass.

    The template of every row is built once and ``%`` fills it from the
    flattened table, whose entries are plain Python floats and ints, so each
    value reads exactly as the row's own format gives it.  The artifact
    writers (ledger, meshes, varifolds) all go through it.
    """
    table = np.asarray(table)
    return (row_format + "\n") * len(table) % tuple(table.ravel().tolist())


def write_mesh(mesh, path):
    """Dump the mesh: CSV polyline (2D) or Wavefront OBJ (3D)."""
    if mesh.dimension == 2:
        text = "x,y\n" + format_rows("%.12g,%.12g", mesh.vertices[_polygon_order(mesh)])
    else:
        text = format_rows("v %.12g %.12g %.12g", mesh.vertices)
        text += format_rows("f %d %d %d", mesh.elements + 1)
    with open(str(path), "w") as handle:
        handle.write(text)


def mesh_filename(mesh, t):
    suffix = "csv" if mesh.dimension == 2 else "obj"
    return f"interface_t{t:.6f}.{suffix}"
