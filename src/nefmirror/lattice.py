"""Exact lattice polyhedral kernel.

Points, normals and offsets are ints and int tuples, and every predicate
is exact.  Every polytope and cone is integral by construction:
:func:`convex_hull` and :func:`make_cone` refuse any other coordinate
(:func:`integer_vector`), and the polar dual is taken only of a reflexive
polytope.  The hull reads the inner normals of its first simplex's
facets from the columns of one scaled inverse of its edge matrix, grows
every later facet from a horizon ridge as an integer combination of the
two facets that meet there, and reads vertices from facet incidence; the
pulling test is cross-multiplied.  Polytopes are built exclusively
through :func:`convex_hull`, which produces an irredundant V- and
H-representation and a triangulation of the boundary.  The normalized
volume is summed from that triangulation on first read (most hulls are
never asked for it), measured in the polytope's affine span against the
induced lattice: in an integer chart of the span, from one unimodular
column reduction of its affine-basis directions, when the polytope is
lower-dimensional.

Conventions
-----------
* A facet ``(normal, offset)`` means the inequality ``<x, normal> >= -offset``.
  Normals are primitive integer vectors and offsets are integers.
* An equation ``(normal, rhs)`` means ``<x, normal> == rhs`` and is present
  only for lower-dimensional polytopes (it cuts out the affine span).
* All point lists are sorted lexicographically; this makes every operation
  deterministic and lets tests compare outputs verbatim.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .errors import ConsistencyError, DomainError, InputError
from .intlin import (
    det,
    dot,
    lattice_split,
    matrix_rank,
    pivot_columns,
    primitivize,
    scaled_inverse,
    vsub,
)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePolytope:
    """A lattice polytope with exact V- and H-representations.

    ``dim`` is the affine dimension; ``facets`` cut the polytope out of its
    affine span, and ``equations`` cut the span out of ambient space.
    Instances are immutable; build them with :func:`convex_hull`.  Equality
    reads (ambient_dim, vertices) only: lower-dimensional facet normals are
    representatives modulo the equations.
    """

    ambient_dim: int
    vertices: tuple
    facets: tuple = field(compare=False)
    equations: tuple = field(compare=False)
    dim: int = field(compare=False)
    boundary: tuple = field(compare=False)  # simplices triangulating the boundary
    # the boundary in the span's integer chart (``boundary`` itself when
    # full-dimensional), which the volume is summed over
    _volume_boundary: tuple = field(compare=False)

    @cached_property
    def nvolume(self):
        """Normalized volume in the affine span, dim(P)! times the volume
        against the lattice induced on the span, an exact integer.  It is
        summed on first read: one
        determinant per boundary simplex coned from the chart boundary's
        lex-first point, a vertex.  Simplices through that vertex add 0
        and are skipped."""
        if self.dim == 0:
            return 1
        simplices = self._volume_boundary
        apex = simplices[0][0]
        return sum(abs(det([vsub(p, apex) for p in simplex]))
                   for simplex in simplices if simplex[0] != apex)

    def contains(self, point):
        if len(point) != self.ambient_dim:
            raise InputError("point/polytope dimension mismatch")
        for normal, rhs in self.equations:
            if dot(point, normal) != rhs:
                return False
        for normal, offset in self.facets:
            if dot(point, normal) < -offset:
                return False
        return True

    @cached_property
    def lattice_points_tuple(self):
        return tuple(_scan_lattice_points(self))

    def __repr__(self):
        return (f"LatticePolytope(dim={self.dim}, ambient={self.ambient_dim}, "
                f"n_vertices={len(self.vertices)})")


@dataclass(frozen=True)
class Cone:
    """A strongly convex lattice cone given by its primitive integer
    extremal generators (lexicographically sorted)."""

    ambient_dim: int
    generators: tuple
    dim: int

    def __repr__(self):
        return f"Cone(dim={self.dim}, generators={list(self.generators)})"


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the boundary of a reflexive polytope, coned at 0.

    ``uses_points[0]`` is the origin; every simplex is an index tuple into
    ``uses_points`` and contains index 0.  Whether the cones over the
    simplices are unimodular is decided on the fan they make
    (``toric.mpcp_fan``).
    """

    simplices: tuple
    uses_points: tuple


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def _affine_basis_indices(points):
    """Greedy in-order choice of affinely independent points: the pivot
    columns of one elimination of the difference vectors."""
    base = points[0]
    diffs = [vsub(p, base) for p in points[1:]]
    return [0] + [c + 1 for c in pivot_columns(list(zip(*diffs)))]


def _full_dim_hull(points, start):
    """Incremental beneath-beyond hull of a full-dimensional, lex-sorted
    point set whose affine basis indices are ``start``.

    Returns (vertices, facets, boundary).  Only the d + 1 facets of the
    first simplex p_0, ..., p_d come from an elimination: the columns of
    :func:`scaled_inverse` of its edge matrix (rows p_s - p_0) are the inner
    normals of the facets opposite p_1, ..., p_d, and minus their sum is
    that of the facet opposite p_0, so none needs an orientation test.
    Each later facet R u {p} grows from a horizon ridge R between a facet
    F that p sees (h_F(p) < 0, with h(x) = <x, n> + c) and a facet G that
    it does not: its functional h_G(p) h_F - h_F(p) h_G vanishes on R and
    at p, and as a nonnegative combination of two inward functionals it
    needs none either.  A point is a vertex iff no other point lies on
    every facet through it, since the intersection of those facets, the
    smallest face containing it, has its vertices among the points.  The
    boundary is the triangulated surface built along the way, as a
    lex-sorted tuple of lex-sorted d-point tuples; the normalized volume is
    summed from it only when read (``LatticePolytope.nvolume``).
    """
    base = points[start[0]]
    inverse = scaled_inverse([vsub(points[i], base) for i in start[1:]])
    opposite = [tuple(-sum(row) for row in inverse), *zip(*inverse)]

    # facet: frozenset of point indices -> (normal, offset); ridge -> facets
    facets = {}
    ridges = {}

    def add_facet(idx_set, hyperplane):
        facets[idx_set] = hyperplane
        for i in idx_set:
            ridges.setdefault(idx_set - {i}, []).append(idx_set)

    for i, normal in zip(start, opposite):
        simplex = frozenset(start) - {i}
        normal = primitivize(normal)
        offset = -dot(points[min(simplex)], normal)
        add_facet(simplex, (normal, offset))

    for i in range(len(points)):
        if i in start:
            continue
        p = points[i]
        values = {fs: dot(p, n) + c for fs, (n, c) in facets.items()}
        for fs, h_f in [(fs, h) for fs, h in values.items() if h < 0]:
            n_f = facets.pop(fs)[0]
            for q in fs:
                ridge = fs - {q}
                pair = ridges.pop(ridge, None)
                if pair is None:
                    continue  # between two visible facets, met from the other
                g = pair[1] if pair[0] == fs else pair[0]
                h_g = values[g]
                if h_g < 0:
                    continue
                normal = primitivize(tuple(
                    h_g * a - h_f * b for a, b in zip(n_f, facets[g][0])))
                ridges[ridge] = [g]
                add_facet(ridge | {i}, (normal, -dot(p, normal)))

    # merge coplanar simplicial facets into geometric facets
    merged = sorted(set(facets.values()))
    boundary = tuple(sorted(tuple(points[i] for i in sorted(fs))
                            for fs in facets))
    # vertices: points whose facet set (a bitmask) no other point's contains
    masks = [sum(1 << k for k, (n, c) in enumerate(merged)
                 if dot(p, n) + c == 0) for p in points]
    vertices = [p for i, (p, mask) in enumerate(zip(points, masks))
                if not any(o & mask == mask
                           for j, o in enumerate(masks) if j != i)]
    return vertices, tuple(merged), boundary


def _chart(points, basis_idx):
    """Integer chart of the affine span of ``points`` (affine basis indices
    ``basis_idx``, origin ``points[0]``).  The image columns of one
    :func:`lattice_split` of the basis directions map the span's lattice
    onto Z^k, so chart volumes are span volumes; the kernel columns are the
    span's integer normals.  Returns (image, kernel, chart coordinates)."""
    origin = points[0]
    image, kernel = lattice_split([vsub(points[i], origin) for i in basis_idx[1:]])
    diffs = [vsub(p, origin) for p in points]
    return image, kernel, [tuple(dot(q, c) for c in image) for q in diffs]


def convex_hull(points):
    """Irredundant convex hull of lattice points.

    Incremental beneath-beyond with exact orientation predicates; handles
    lower-dimensional hulls through an affine chart over the induced
    lattice.  A coordinate that is not an ``int`` is an InputError.
    """
    pts = sorted({integer_vector(p) for p in points})
    if not pts:
        raise InputError("convex_hull needs at least one point")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise InputError("points of mixed dimension")

    basis_idx = _affine_basis_indices(pts)
    dim = len(basis_idx) - 1

    if dim == 0:
        eqs = tuple((tuple(1 if i == j else 0 for i in range(d)), pts[0][j])
                    for j in range(d))
        return LatticePolytope(d, (pts[0],), (), eqs, 0, (), ())

    if dim == d:
        vertices, facets, boundary = _full_dim_hull(pts, basis_idx)
        return LatticePolytope(d, tuple(vertices), facets, (), d, boundary,
                               boundary)

    # A chart facet <y, n> >= -c lifts to <x, a> >= <pts[0], a> - c with
    # a = sum_j n_j image_j, primitive because the transform is unimodular.
    image, kernel, coords = _chart(pts, basis_idx)
    back = dict(zip(coords, pts))
    chart_pts = sorted(back)
    vertices_c, facets_c, boundary_c = _full_dim_hull(
        chart_pts, _affine_basis_indices(chart_pts))
    vertices = sorted(back[v] for v in vertices_c)
    boundary = tuple(sorted(tuple(sorted(back[q] for q in s))
                            for s in boundary_c))
    facets = []
    for n, c in facets_c:
        a = tuple(dot(n, row) for row in zip(*image))
        facets.append((a, c - dot(pts[0], a)))
    equations = sorted((k, dot(pts[0], k)) for k in kernel)
    return LatticePolytope(d, tuple(vertices), tuple(sorted(facets)),
                           tuple(equations), dim, boundary, boundary_c)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def polar_dual(polytope):
    """Polar dual {u : <m,u> >= -1 for all m in P} of a reflexive polytope:
    the hull of its facet normals, an involution.  Any other polytope is a
    DomainError; a facet at lattice distance > 1 makes the polar rational.
    """
    if polytope.dim != polytope.ambient_dim:
        raise DomainError("polar dual needs a full-dimensional polytope")
    if any(offset <= 0 for _, offset in polytope.facets):
        raise DomainError("origin is not strictly interior")
    if any(offset != 1 for _, offset in polytope.facets):
        raise DomainError("the polar dual is not a lattice polytope: "
                          "a facet is not at lattice distance 1")
    return convex_hull([normal for normal, _ in polytope.facets])


def is_reflexive(polytope):
    """True iff the polytope is full-dimensional with every facet at
    lattice distance one (equivalently, the polar dual is again a lattice
    polytope); its vertices are integral by construction."""
    return (polytope.dim == polytope.ambient_dim
            and all(offset == 1 for _, offset in polytope.facets))


def lattice_points(polytope):
    """All lattice points of a bounded polytope, lexicographically sorted
    (cached on the polytope)."""
    return list(polytope.lattice_points_tuple)


def _scan_lattice_points(polytope):
    """The lattice points in lex order.  The first d - 1 coordinates range
    over the bounding box; for each such prefix the last coordinate ranges
    over the interval that the facets and equations leave of the box's,
    and ``contains`` stays the exact test of every candidate.  So the cost
    follows the box's projection, not its volume."""
    d = polytope.ambient_dim
    if d == 0:
        return [()]
    verts = polytope.vertices
    lo = [min(v[i] for v in verts) for i in range(d)]
    hi = [max(v[i] for v in verts) for i in range(d)]
    # each facet <x, n> >= -offset, and each equation <x, n> == rhs as
    # <x, n> >= rhs and <x, -n> >= -rhs, split as (n without its last
    # entry, last entry, right-hand side)
    halfspaces = [(n, -offset) for n, offset in polytope.facets]
    for n, rhs in polytope.equations:
        halfspaces += [(n, rhs), (tuple(-c for c in n), -rhs)]
    bounds = [(n[:-1], n[-1], rhs) for n, rhs in halfspaces]
    out = []
    for prefix in product(*[range(lo[i], hi[i] + 1) for i in range(d - 1)]):
        low, high = lo[-1], hi[-1]
        for head, a, rhs in bounds:
            rest = rhs - dot(prefix, head)      # a * x >= rest
            if a > 0:
                low = max(low, -(-rest // a))
            elif a < 0:
                high = min(high, rest // a)
            elif rest > 0:
                high = low - 1
        for x in range(low, high + 1):
            candidate = prefix + (x,)
            if polytope.contains(candidate):
                out.append(candidate)
    return out


def minkowski_sum(p, q):
    """Minkowski sum, as the hull of pairwise vertex sums."""
    if p.ambient_dim != q.ambient_dim:
        raise InputError("Minkowski sum needs equal ambient dimensions")
    sums = [tuple(a + b for a, b in zip(v, w))
            for v in p.vertices for w in q.vertices]
    return convex_hull(sums)


def minkowski_sum_all(polys):
    total = polys[0]
    for q in polys[1:]:
        total = minkowski_sum(total, q)
    return total


def cayley_pyramid(polys):
    """Cayley pyramid Conv({0} u e_1 x P_1 u ... u e_k x P_k) in R^k x R^n.

    The Cayley points (e_j, v) lie on the hyperplane where the first k
    coordinates sum to 1, so the apex 0 is never in their affine span."""
    if not polys:
        raise InputError("cayley_pyramid needs at least one polytope")
    n = polys[0].ambient_dim
    if any(p.ambient_dim != n for p in polys):
        raise InputError("Cayley factors must share an ambient dimension")
    k = len(polys)
    pts = [tuple(0 for _ in range(k + n))]
    for i, p in enumerate(polys):
        e = tuple(1 if j == i else 0 for j in range(k))
        pts.extend(e + v for v in p.vertices)
    return convex_hull(pts)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def make_cone(generators):
    """Canonical cone from integer generators: primitive, extremal,
    lexicographically sorted.  Requires a strongly convex cone; a
    coordinate that is not an ``int`` is an InputError."""
    gens = sorted({primitivize(g) for g in map(integer_vector, generators)
                   if any(g)})
    if not gens:
        return Cone(0, (), 0)
    d = len(gens[0])
    dim = matrix_rank(gens)
    ineqs, _ = cone_hrep(gens)
    for g in gens:
        if all(dot(g, n) == 0 for n in ineqs):
            raise DomainError("cone is not strongly convex")
    extremal = []
    for g in gens:
        active = [n for n in ineqs if dot(g, n) == 0]
        if matrix_rank(active) >= dim - 1:
            extremal.append(g)
    return Cone(d, tuple(sorted(extremal)), dim)


def cone_hrep(generators):
    """H-representation of cone(generators): (inequalities, equations),
    inequalities as primitive normals n with <x, n> >= 0.  These are the
    facets through the origin, and the equations, of conv(gens + origin)."""
    gens = [primitivize(g) for g in generators]
    zero = tuple(0 for _ in gens[0])
    hull = convex_hull(gens + [zero])
    ineqs = sorted(n for n, c in hull.facets if c == 0)
    return ineqs, sorted(n for n, _ in hull.equations)


def dual_cone(cone):
    """Dual cone {u : <v,u> >= 0 for all v in C} of a full-dimensional cone;
    generators are the primitive inner facet normals of C."""
    if cone.dim != cone.ambient_dim:
        raise DomainError("dual_cone implemented for full-dimensional cones")
    ineqs, _ = cone_hrep(cone.generators)
    return make_cone(ineqs)


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------

def pulling_triangulation(points):
    """Iterated pulling triangulation of a full-dimensional configuration.

    Points are pulled in the order given; each pull stars the cells
    containing the point over their facets.  Every point ends up a vertex,
    and the result restricts to each face as the pulling of that face in
    the same order, so facets pulled in one global order glue into a fan.
    Returns simplices as sorted index tuples.

    With h_H(x) = <x, n_H> + c_H >= 0 on the cell for each facet H and a
    the pulled point, a cell point q joins conv(a ∪ G) iff the ray from a
    through q leaves the cell through G: h_G(q) < h_G(a) and
    h_G(a) * h_H(q) >= h_G(q) * h_H(a) for every facet H.  The test is
    cross-multiplied, so it stays in ``int``.
    """
    pts = list(points)
    f = len(pts[0])
    if f == 0:
        return [(0,)]
    cells = [tuple(range(len(pts)))]
    hull_cache = {}

    def cell_hull(cell):
        if cell not in hull_cache:
            hull_cache[cell] = convex_hull([pts[i] for i in cell])
        return hull_cache[cell]

    for a in range(len(pts)):
        next_cells = []
        for cell in cells:
            if a not in cell or len(cell) == f + 1:
                next_cells.append(cell)
                continue
            hull = cell_hull(cell)
            if hull.dim != f:
                raise ConsistencyError("pulling produced a degenerate cell")
            values = {q: [dot(pts[q], n) + c for n, c in hull.facets]
                      for q in cell}
            h_a = values.pop(a)
            for g, a_g in enumerate(h_a):
                if a_g == 0:
                    continue  # facet contains the pulled point
                members = [a]
                for q, h_q in values.items():
                    q_g = h_q[g]
                    if q_g < a_g and all(a_g * q_h >= q_g * a_h
                                         for q_h, a_h in zip(h_q, h_a)):
                        members.append(q)
                next_cells.append(tuple(sorted(members)))
        cells = next_cells

    for cell in cells:
        if len(cell) != f + 1:
            raise ConsistencyError("pulling did not terminate in simplices")
    return sorted(cells)


def maximal_boundary_triangulation(polytope):
    """Triangulation of the boundary of a reflexive polytope using all of
    its boundary lattice points, coned at the origin.

    Facets are triangulated by iterated pulling in global lexicographic
    order, which keeps shared ridges consistent.  The pulling reads only a
    facet's chart points in that order, so facets with the same chart
    configuration share one pulling, kept for this call only.
    """
    if not is_reflexive(polytope):
        raise DomainError("maximal_boundary_triangulation needs a reflexive polytope")
    d = polytope.ambient_dim
    zero = tuple(0 for _ in range(d))
    boundary = [p for p in lattice_points(polytope) if p != zero]
    uses = (zero,) + tuple(boundary)
    index = {p: i for i, p in enumerate(uses)}

    simplices = []
    pulled = {}  # chart-point tuple -> its pulling triangulation
    for normal, offset in polytope.facets:
        facet_pts = [p for p in boundary if dot(p, normal) == -offset]
        chart_pts = tuple(_chart(facet_pts, _affine_basis_indices(facet_pts))[2])
        if chart_pts not in pulled:
            pulled[chart_pts] = pulling_triangulation(chart_pts)
        for simplex in pulled[chart_pts]:
            simplices.append(tuple(sorted([0] + [index[facet_pts[i]] for i in simplex])))
    return Triangulation(tuple(sorted(set(simplices))), uses)


# ---------------------------------------------------------------------------
# integer input
# ---------------------------------------------------------------------------

def integer_vector(v):
    """``v`` as a tuple of ints; any other coordinate (a Fraction, a
    float, a bool) is an InputError.  The public constructors check here."""
    v = tuple(v)
    if not all(type(x) is int for x in v):
        raise InputError(f"expected integer coordinates, got {v!r}")
    return v


def json_int(x):
    """An integer read from JSON, exactly: a float, a string or a boolean
    is an InputError, never truncated or read as 0/1."""
    if type(x) is not int:
        raise InputError(f"expected an integer, got {x!r}")
    return x
