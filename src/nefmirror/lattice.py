"""Exact rational polyhedral kernel.

Lattice points are plain int tuples, rational vectors are tuples of ints
and fractions.Fraction; every predicate is exact.  Polytopes are built
exclusively through :func:`convex_hull`, which produces an irredundant
V- and H-representation together with the normalized volume measured in
the polytope's affine span (with the induced lattice, obtained from a
saturated integer basis of the span directions).

Conventions
-----------
* A facet ``(normal, offset)`` means the inequality ``<x, normal> >= -offset``.
  Normals are primitive integer vectors; the offset is an integer for
  lattice polytopes and may be a Fraction for rational ones.
* An equation ``(normal, rhs)`` means ``<x, normal> == rhs`` and is present
  only for lower-dimensional polytopes (it cuts out the affine span).
* All point lists are sorted lexicographically; this makes every operation
  deterministic and lets tests compare outputs verbatim.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import ConsistencyError, DomainError, InputError
from .intlin import (
    canon_num,
    canon_vec,
    det,
    dot,
    integer_kernel_basis,
    is_integral,
    matrix_rank,
    nullspace,
    primitivize,
    saturated_span_basis,
    solve_linear,
    vsub,
)

HULL_DIM_CAP = 8


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePolytope:
    """A rational polytope with exact V- and H-representations.

    ``dim`` is the affine dimension; ``facets`` cut the polytope out of its
    affine span, and ``equations`` cut the span out of ambient space.
    Instances are immutable; build them with :func:`convex_hull`.
    """

    ambient_dim: int
    vertices: tuple
    facets: tuple
    equations: tuple
    dim: int
    nvolume: object = field(compare=False)  # normalized volume in the span

    @cached_property
    def is_lattice(self):
        return all(is_integral(v) for v in self.vertices)

    def contains(self, point):
        point = canon_vec(point)
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
    """A strongly convex rational polyhedral cone given by its primitive
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
    ``uses_points`` and contains index 0.  ``unimodular`` records whether
    every maximal simplex has determinant +-1.
    """

    polytope: LatticePolytope
    simplices: tuple
    uses_points: tuple
    unimodular: bool


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def _affine_basis_indices(points):
    """Greedy lex-order selection of affinely independent points."""
    chosen = [0]
    dirs = []
    for i in range(1, len(points)):
        cand = vsub(points[i], points[chosen[0]])
        if matrix_rank(dirs + [cand]) > len(dirs):
            dirs.append(cand)
            chosen.append(i)
    return chosen


def _facet_hyperplane(points, interior_ref):
    """Hyperplane through d affinely independent points of R^d, oriented so
    that the interior reference point strictly satisfies the inequality."""
    base = points[0]
    rows = [vsub(p, base) for p in points[1:]]
    kernel = nullspace(rows) if rows else [(1,)]
    normal = primitivize(kernel[0])
    offset = canon_num(-Fraction(dot(base, normal)))
    if dot(interior_ref, normal) + offset < 0:
        normal = tuple(-x for x in normal)
        offset = -offset
    return normal, offset


def _full_dim_hull(points):
    """Incremental beneath-beyond hull of a full-dimensional point set.

    Returns (vertices, facets, nvolume).  Facets are merged geometric
    facets; the triangulated surface built along the way is used to get the
    normalized volume as a sum of simplex determinants around an interior
    reference point.
    """
    d = len(points[0])
    order = sorted(range(len(points)), key=lambda i: points[i])
    points = [points[i] for i in order]
    start = _affine_basis_indices(points)
    ref = tuple(canon_num(sum(Fraction(points[i][k]) for i in start) / (d + 1))
                for k in range(d))

    # facet: frozenset of point indices -> (normal, offset)
    facets = {}
    ridge_count = {}

    def add_facet(idx_set):
        hp = _facet_hyperplane([points[i] for i in sorted(idx_set)], ref)
        facets[idx_set] = hp
        for i in idx_set:
            ridge = idx_set - {i}
            ridge_count[ridge] = ridge_count.get(ridge, 0) + 1

    def drop_facet(idx_set):
        del facets[idx_set]
        for i in idx_set:
            ridge = idx_set - {i}
            ridge_count[ridge] -= 1

    for combo in range(d + 1):
        add_facet(frozenset(start) - {start[combo]})

    for i in range(len(points)):
        if i in start:
            continue
        p = points[i]
        visible = [fs for fs, (n, c) in facets.items() if dot(p, n) + c < 0]
        if not visible:
            continue
        horizon = []
        for fs in visible:
            for q in fs:
                ridge = fs - {q}
                if ridge_count[ridge] == 2:
                    # shared with exactly one other facet; on the horizon
                    # iff that other facet is not visible
                    horizon.append(ridge)
        vis_set = set(visible)
        horizon = [r for r in set(horizon)
                   if sum(1 for fs in vis_set if r < fs) == 1]
        for fs in visible:
            drop_facet(fs)
        for ridge in horizon:
            add_facet(ridge | {i})

    # merge coplanar simplicial facets into geometric facets
    merged = sorted(set(facets.values()))
    volume = 0
    for fs, (n, c) in facets.items():
        volume += abs(det([vsub(points[i], ref) for i in sorted(fs)]))
    # vertices: points whose active facet normals span R^d
    vertices = []
    for i, p in enumerate(points):
        active = [n for n, c in merged if dot(p, n) + c == 0]
        if len(active) >= d and matrix_rank(active) == d:
            vertices.append(p)
    return sorted(set(vertices)), tuple(merged), canon_num(volume)


def _chart(points):
    """Affine chart for a lower-dimensional point set.

    Returns (origin, basis) where basis is a saturated integer basis of the
    direction lattice; chart coordinates preserve the induced lattice, so
    volumes computed in the chart are the spec'd affine-span volumes.
    """
    origin = min(points)
    dirs = [vsub(p, origin) for p in points if p != origin]
    basis = saturated_span_basis(dirs)
    return origin, basis


def _to_chart(origin, basis, point):
    rows = [[basis[j][i] for j in range(len(basis))] for i in range(len(origin))]
    y = solve_linear(rows, vsub(point, origin))
    if y is None:
        return None
    return canon_vec(y)


def _lift_inequality(origin, basis, normal, offset):
    """Map a chart inequality back to an ambient one on the affine span."""
    d = len(origin)
    rows = [[basis[j][i] for i in range(d)] for j in range(len(basis))]
    ambient = solve_linear(rows, normal)
    if ambient is None:
        raise ConsistencyError("chart inequality lift failed")
    rhs = Fraction(dot(origin, ambient)) - Fraction(offset)
    prim = primitivize(ambient)
    scale = next(Fraction(p) / Fraction(a) for p, a in zip(prim, ambient) if a != 0)
    # scale > 0 since primitivize preserves direction
    return prim, canon_num(-rhs * scale)


def convex_hull(points, ambient_dim=None):
    """Irredundant convex hull of rational points.

    Incremental beneath-beyond with exact orientation predicates; handles
    lower-dimensional hulls through an affine chart over the induced
    lattice.  Ambient dimension is capped at 8.
    """
    pts = sorted({canon_vec(p) for p in points})
    if not pts:
        raise InputError("convex_hull needs at least one point")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise InputError("points of mixed dimension")
    if ambient_dim is not None and ambient_dim != d:
        raise InputError(f"points have dimension {d}, expected {ambient_dim}")
    if d > HULL_DIM_CAP:
        raise InputError(f"ambient dimension {d} exceeds cap {HULL_DIM_CAP}")

    basis_idx = _affine_basis_indices(pts)
    dim = len(basis_idx) - 1

    if dim == 0:
        eqs = tuple((tuple(1 if i == j else 0 for i in range(d)), pts[0][j])
                    for j in range(d))
        return LatticePolytope(d, (pts[0],), (), eqs, 0, 1)

    if dim == d:
        vertices, facets, volume = _full_dim_hull(pts)
        return LatticePolytope(d, tuple(vertices), facets, (), d, volume)

    origin, basis = _chart(pts)
    chart_pts = [_to_chart(origin, basis, p) for p in pts]
    vertices_c, facets_c, volume = _full_dim_hull(chart_pts)
    back = {cp: p for cp, p in zip(chart_pts, pts)}
    vertices = sorted(back[v] for v in vertices_c)
    facets = tuple(sorted(_lift_inequality(origin, basis, n, c)
                          for n, c in facets_c))
    complement = integer_kernel_basis([list(b) for b in basis])
    equations = tuple(sorted((tuple(k), canon_num(Fraction(dot(origin, k))))
                             for k in complement))
    return LatticePolytope(d, tuple(vertices), facets, equations, dim, volume)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def polar_dual(polytope):
    """Polar dual {u : <m,u> >= -1 for all m in P}.

    Requires a full-dimensional polytope with the origin strictly interior;
    an involution on reflexive polytopes.
    """
    if polytope.dim != polytope.ambient_dim:
        raise DomainError("polar dual needs a full-dimensional polytope")
    if any(offset <= 0 for _, offset in polytope.facets):
        raise DomainError("origin is not strictly interior")
    duals = [tuple(Fraction(x, 1) / offset for x in normal)
             for normal, offset in polytope.facets]
    return convex_hull(duals)


def is_reflexive(polytope):
    """True iff the polytope is full-dimensional with integral vertices and
    every facet at lattice distance one (equivalently, the polar dual is
    again a lattice polytope)."""
    if polytope.dim != polytope.ambient_dim:
        return False
    if not polytope.is_lattice:
        return False
    return all(offset == 1 for _, offset in polytope.facets)


def lattice_points(polytope):
    """All lattice points of a bounded polytope, lexicographically sorted
    (cached on the polytope)."""
    return list(polytope.lattice_points_tuple)


def _scan_lattice_points(polytope):
    """Bounding-box scan with exact H-representation membership; fine for
    the desk-scale polytopes in scope."""
    verts = polytope.vertices
    d = polytope.ambient_dim
    lo = [min(_floor(v[i]) for v in verts) for i in range(d)]
    hi = [max(_ceil(v[i]) for v in verts) for i in range(d)]
    out = []
    for candidate in product(*[range(lo[i], hi[i] + 1) for i in range(d)]):
        if polytope.contains(candidate):
            out.append(candidate)
    return out


def _floor(x):
    f = Fraction(x)
    return f.numerator // f.denominator


def _ceil(x):
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


def normalized_volume(polytope):
    """dim(P)!-scaled volume of P inside its affine span, measured against
    the lattice induced on the span.  An exact integer for lattice
    polytopes; may be a Fraction for rational ones."""
    return polytope.nvolume


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


def euclidean_area(polytope):
    """Euclidean area of a polygon in the plane (0 when dim < 2)."""
    if polytope.ambient_dim != 2:
        raise InputError("euclidean_area is for ambient dimension 2")
    if polytope.dim < 2:
        return 0
    return canon_num(Fraction(polytope.nvolume, 2))


def mixed_area(p, q):
    """area(P+Q) - area(P) - area(Q); the intersection number of the
    corresponding nef classes on a smooth toric surface."""
    if p.ambient_dim != 2 or q.ambient_dim != 2:
        raise InputError("mixed_area needs ambient dimension 2")
    return canon_num(euclidean_area(minkowski_sum(p, q))
                     - euclidean_area(p) - euclidean_area(q))


def cayley_polytope(polys):
    """Cayley polytope Conv(e_1 x P_1, ..., e_k x P_k) in R^k x R^n."""
    if not polys:
        raise InputError("cayley_polytope needs at least one polytope")
    n = polys[0].ambient_dim
    if any(p.ambient_dim != n for p in polys):
        raise InputError("Cayley factors must share an ambient dimension")
    k = len(polys)
    pts = []
    for i, p in enumerate(polys):
        e = tuple(1 if j == i else 0 for j in range(k))
        pts.extend(e + v for v in p.vertices)
    return convex_hull(pts)


def pyramid(polytope, apex):
    """Hull of P and an apex outside P's affine span; dim goes up by one."""
    apex = canon_vec(apex)
    in_span = (polytope.dim == polytope.ambient_dim
               or all(dot(apex, n) == rhs for n, rhs in polytope.equations))
    if in_span:
        raise DomainError("apex lies in the affine span of the base")
    out = convex_hull(list(polytope.vertices) + [apex])
    if out.dim != polytope.dim + 1:
        raise ConsistencyError("pyramid did not raise the dimension")
    return out


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def make_cone(generators, ambient_dim=None):
    """Canonical cone from rational generators: primitive, extremal,
    lexicographically sorted.  Requires a strongly convex cone."""
    gens = sorted({primitivize(g) for g in generators
                   if any(Fraction(x) != 0 for x in g)})
    if not gens:
        d = ambient_dim if ambient_dim is not None else 0
        return Cone(d, (), 0)
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
    inequalities as primitive normals n with <x, n> >= 0."""
    gens = [primitivize(g) for g in generators]
    d = len(gens[0])
    span = saturated_span_basis(gens)
    equations = [tuple(k) for k in integer_kernel_basis(span)] if len(span) < d else []
    if len(span) < d:
        # work in the span's chart
        origin = tuple(0 for _ in range(d))
        chart_gens = [_to_chart(origin, span, g) for g in gens]
        chart_ineqs, _ = cone_hrep(chart_gens)
        ineqs = []
        for n in chart_ineqs:
            lifted, _ = _lift_inequality(origin, span, n, 0)
            ineqs.append(lifted)
        return sorted(ineqs), sorted(equations)
    zero = tuple(0 for _ in range(d))
    hull = convex_hull(list(gens) + [zero])
    if hull.dim != d:
        raise ConsistencyError("cone span computation disagrees with hull")
    ineqs = sorted(n for n, c in hull.facets if c == 0)
    return ineqs, []


def cone_contains(cone, vector):
    if not cone.generators:
        return all(Fraction(x) == 0 for x in vector)
    ineqs, eqs = cone_hrep(cone.generators)
    return (all(dot(vector, n) >= 0 for n in ineqs)
            and all(dot(vector, e) == 0 for e in eqs))


def dual_cone(cone):
    """Dual cone {u : <v,u> >= 0 for all v in C} of a full-dimensional cone;
    generators are the primitive inner facet normals of C."""
    if cone.dim != cone.ambient_dim:
        raise DomainError("dual_cone implemented for full-dimensional cones")
    ineqs, _ = cone_hrep(cone.generators)
    return make_cone(ineqs, cone.ambient_dim)


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------

def pulling_triangulation(points):
    """Iterated pulling triangulation of a full-dimensional configuration.

    Points are pulled in lexicographic order; each pull stars the cells
    containing the point over their facets.  Every configuration point ends
    up a vertex, and the result restricts consistently to faces, which is
    what makes the per-facet boundary triangulations below glue into a fan.
    Returns simplices as sorted index tuples.
    """
    pts = [canon_vec(p) for p in points]
    f = len(pts[0])
    if f == 0:
        return [(0,)]
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    cells = [tuple(sorted(range(len(pts))))]
    hull_cache = {}

    def cell_hull(cell):
        if cell not in hull_cache:
            hull_cache[cell] = convex_hull([pts[i] for i in cell])
        return hull_cache[cell]

    for a in order:
        pa = pts[a]
        next_cells = []
        for cell in cells:
            if a not in cell or len(cell) == f + 1:
                next_cells.append(cell)
                continue
            hull = cell_hull(cell)
            if hull.dim != f:
                raise ConsistencyError("pulling produced a degenerate cell")
            for normal, offset in hull.facets:
                ha = dot(pa, normal) + offset
                if ha == 0:
                    continue  # facet contains the pulled point
                members = [a]
                for q in cell:
                    if q == a:
                        continue
                    x = pts[q]
                    lam = (Fraction(dot(x, normal)) + offset) / ha
                    if lam >= 1:
                        continue  # on or beyond the pulled point's level
                    z = tuple((Fraction(xc) - lam * pc) / (1 - lam)
                              for xc, pc in zip(x, pa))
                    if all(dot(z, n2) + c2 >= 0 for n2, c2 in hull.facets):
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
    order, which keeps shared ridges consistent; the flag records whether
    every cone over a maximal simplex is unimodular.
    """
    if not is_reflexive(polytope):
        raise DomainError("maximal_boundary_triangulation needs a reflexive polytope")
    d = polytope.ambient_dim
    zero = tuple(0 for _ in range(d))
    boundary = [p for p in lattice_points(polytope) if p != zero]
    uses = (zero,) + tuple(boundary)
    index = {p: i for i, p in enumerate(uses)}

    simplices = []
    for normal, offset in polytope.facets:
        facet_pts = [p for p in boundary if dot(p, normal) == -offset]
        origin, basis = _chart(facet_pts)
        chart_pts = [_to_chart(origin, basis, p) for p in facet_pts]
        for simplex in pulling_triangulation(chart_pts):
            simplices.append(tuple(sorted([0] + [index[facet_pts[i]] for i in simplex])))
    simplices = tuple(sorted(set(simplices)))

    unimodular = True
    for simplex in simplices:
        gens = [uses[i] for i in simplex if i != 0]
        if abs(det(gens)) != 1:
            unimodular = False
            break
    return Triangulation(polytope, simplices, uses, unimodular)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def polytope_to_json(polytope):
    """JSON document {"dim": d, "vertices": [...]} for a lattice polytope.
    The H-representation is regenerated on load, never trusted from file."""
    if not polytope.is_lattice:
        raise InputError("only lattice polytopes serialize to JSON")
    return json.dumps(
        {"dim": polytope.ambient_dim,
         "vertices": [list(v) for v in polytope.vertices]},
        sort_keys=True)


def polytope_from_json(text):
    try:
        doc = json.loads(text)
        dim = doc["dim"]
        vertices = [tuple(int(x) for x in v) for v in doc["vertices"]]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"bad polytope JSON: {exc}") from exc
    if any(len(v) != dim for v in vertices):
        raise InputError("vertex/dim mismatch in polytope JSON")
    return convex_hull(vertices, ambient_dim=dim)
