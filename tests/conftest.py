"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the package internals:
polygon areas come from the shoelace formula after an exact angular sort,
membership tests from Caratheodory-style barycentric solves over Q
(``rational_solve``, apart from the package's integer kernel), and the
smooth surface completion from elementary 2-cone subdivision.  The
pulling reference keeps the ray-shooting form, in Fraction arithmetic, of
the package's cross-multiplied integer test.  The Cayley references build
the Cayley pyramid in two hulls (the Cayley polytope, then the pyramid
over it) and the S-polytope from lattice points, apart from the package's
single hull.  ``complete_by_hrep`` decides completeness from every
cone's ``cone_hrep``, apart from the package's scaled inverse on
simplicial cones.  ``box_lattice_points`` tests every point of the
bounding box, apart from the package's scan, which narrows the last
coordinate to the interval the facets leave.  ``serialize_by_parts``
writes an operator's line from its fields, apart from the package's
signed term texts joined in one pass.  ``taut_operators`` reads the
text that ``taut_text`` generates back as operators.
``invert_unimodular``, which ``gl_canonical_form`` uses, is the
package's ``scaled_inverse`` with a |det| = 1 check.
``reflexive_polygons`` enumerates the 16 reflexive polygons and
``nef_partitions`` every nef-partition of one; ``polygon_nef_partitions``
keeps all of them, so that the test modules dualize each once.
"""
import json
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from nefmirror import invariants, nefpart
from nefmirror.errors import ConsistencyError, DomainError, InputError
from nefmirror.intlin import (
    det,
    dot,
    matrix_rank,
    primitivize,
    scaled_inverse,
)
from nefmirror.lattice import (
    Cone,
    cone_hrep,
    convex_hull,
    is_reflexive,
    lattice_points,
)
from nefmirror.nefpart import build_nef_partition
from nefmirror.periods import parse_operators, taut_text
from nefmirror.toric import make_fan, normal_fan

P2_DELTA = [(2, -1), (-1, 2), (-1, -1)]
P3_DELTA = [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)]
P4_DELTA = [(4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1),
            (-1, -1, -1, 4), (-1, -1, -1, -1)]
# the two-part P^4 of the fourfold benchmark, whose MPCP fans have 5 and
# 211 cones, as a nef-partition document
P4_TWO_PARTS = {"delta_vertices": [list(v) for v in P4_DELTA],
                "parts": [[0, 1], [2, 3, 4]]}
P4_FIVE_PARTS = {"delta_vertices": [list(v) for v in P4_DELTA],
                 "parts": [[0], [1], [2], [3], [4]]}
HEX_NABLA = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
NON_UNIMODULAR_4D = [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1),
                     (1, 1, 2, 1), (-1, -1, -1, -2)]


def leibniz(rows):
    """Determinant by the Leibniz expansion over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2)
                         if perm[i] > perm[j])
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def elementary_product(n, ops):
    """A matrix in GL(n, Z): the identity under the row additions and
    negations ``ops``."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k, negate in ops:
        if i % n != j % n:
            m[i % n] = [a + k * b for a, b in zip(m[i % n], m[j % n])]
        if negate:
            m[i % n] = [-a for a in m[i % n]]
    return [tuple(row) for row in m]


def box_lattice_points(polytope):
    """The lattice points of a polytope, in lex order: every point of its
    bounding box that the polytope contains."""
    verts = polytope.vertices
    ranges = [range(min(v[i] for v in verts), max(v[i] for v in verts) + 1)
              for i in range(polytope.ambient_dim)]
    return [p for p in product(*ranges) if polytope.contains(p)]


def ccw_sort(points):
    """Sort points counterclockwise around their centroid, exactly."""
    n = len(points)
    cx = sum(Fraction(p[0]) for p in points) / n
    cy = sum(Fraction(p[1]) for p in points) / n

    def half(p):
        dx, dy = Fraction(p[0]) - cx, Fraction(p[1]) - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    import functools

    def compare(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        px, py = Fraction(p[0]) - cx, Fraction(p[1]) - cy
        qx, qy = Fraction(q[0]) - cx, Fraction(q[1]) - cy
        cross = px * qy - py * qx
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return sorted(points, key=functools.cmp_to_key(compare))


def shoelace_area(points):
    """Exact area of the convex polygon spanned by the points."""
    ring = ccw_sort(points)
    twice = sum(Fraction(p[0]) * Fraction(q[1]) - Fraction(p[1]) * Fraction(q[0])
                for p, q in zip(ring, ring[1:] + ring[:1]))
    return abs(twice) / 2


def rational_solve(rows, rhs):
    """The solution in Fractions of rows @ x = rhs when there is exactly
    one, else None, by plain Gauss-Jordan elimination over Q."""
    ncols = len(rows[0]) if rows else 0
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(ncols):
        pr = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pr is None:
            return None  # c is a free column
        m[c], m[pr] = m[pr], m[c]
        m[c] = [a / m[c][c] for a in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[c])]
    if any(row[ncols] for row in m[ncols:]):
        return None
    return [row[ncols] for row in m[:ncols]]


def in_convex_hull_oracle(point, points):
    """Exact membership via barycentric solves over affinely independent
    subsets (Caratheodory); independent of the hull code."""
    d = len(point)
    for size in range(1, d + 2):
        for subset in combinations(points, size):
            rows = [[p[i] for p in subset] for i in range(d)]
            rows.append([1] * size)
            sol = rational_solve(rows, list(point) + [1])
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def boundary_lattice_count(polygon):
    """Lattice points on the boundary of a lattice polygon, via gcds of
    edge vectors (independent of the facet machinery)."""
    from math import gcd
    ring = ccw_sort(polygon.vertices)
    total = 0
    for p, q in zip(ring, ring[1:] + ring[:1]):
        dx, dy = q[0] - p[0], q[1] - p[1]
        total += gcd(abs(int(dx)), abs(int(dy)))
    return total


def random_lattice_polygon(rng, spread=3):
    """A full-dimensional lattice polygon from random small points."""
    while True:
        pts = [(rng.randint(-spread, spread), rng.randint(-spread, spread))
               for _ in range(rng.randint(3, 8))]
        try:
            poly = convex_hull(pts)
        except InputError:
            continue
        if poly.dim == 2:
            return poly


def random_reflexive_polygon(rng):
    while True:
        poly = random_lattice_polygon(rng, spread=2)
        if is_reflexive(poly):
            return poly


def random_nef_partition(polytope, rng, max_parts=3):
    """A random valid nef-partition (falls back to the trivial one)."""
    fan = normal_fan(polytope)
    k = len(fan.rays)
    for _ in range(40):
        r = rng.randint(1, min(max_parts, k))
        assignment = [rng.randrange(r) for _ in range(k)]
        parts = [[i for i in range(k) if assignment[i] == s] for s in range(r)]
        if any(not part for part in parts):
            continue
        try:
            return build_nef_partition(polytope, parts)
        except InputError:
            continue
    return build_nef_partition(polytope, [list(range(k))])


MAXIMAL_REFLEXIVE_POLYGONS = (
    P2_DELTA,
    [(1, 1), (1, -1), (-1, 1), (-1, -1)],
    [(-1, -1), (3, -1), (-1, 1)],
)


@cache
def reflexive_polygons():
    """The reflexive polygons up to GL(2, Z), as the reflexive sub-polygons
    of the three maximal ones.  In the plane a lattice polygon is reflexive
    iff the origin is its only interior lattice point, so dropping a vertex
    of a reflexive polygon from its lattice points leaves a reflexive
    polygon or one without the origin inside; every reflexive sub-polygon
    is reached that way.  Consecutive boundary points of a reflexive
    polygon are a lattice basis, so its face fan over all boundary points
    is smooth, and its GL(2, Z) normal form names the polygon."""
    found = {}
    todo = [convex_hull(vertices) for vertices in MAXIMAL_REFLEXIVE_POLYGONS]
    seen = set()
    while todo:
        poly = todo.pop()
        if poly.vertices in seen:
            continue
        seen.add(poly.vertices)
        boundary = ccw_sort([p for p in lattice_points(poly) if any(p)])
        k = len(boundary)
        fan = make_fan(boundary, [(i, (i + 1) % k) for i in range(k)])
        found.setdefault(gl_canonical_form(fan), poly)
        for v in poly.vertices:
            smaller = convex_hull([p for p in lattice_points(poly) if p != v])
            if smaller.dim == 2 and is_reflexive(smaller):
                todo.append(smaller)
    return tuple(found.values())


def nef_partitions(polygon):
    """Every nef-partition of the polygon, for all r >= 1, each set of
    parts once."""
    k = len(normal_fan(polygon).rays)
    for blocks in set_partitions(list(range(k))):
        try:
            yield build_nef_partition(polygon, blocks)
        except InputError:
            continue  # a part that is not nef


def set_partitions(items):
    """Every partition of the items into nonempty blocks, each once."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


@cache
def polygon_nef_partitions():
    """Every nef-partition of every reflexive polygon, kept, so that each
    is dualized once across the test modules."""
    return tuple(np_ for polygon in reflexive_polygons()
                 for np_ in nef_partitions(polygon))


def smooth_surface_fan(polygon):
    """A smooth complete fan refining the normal fan of a lattice polygon:
    non-unimodular 2-cones are split recursively at an interior lattice
    direction that strictly decreases the determinant."""
    fan = normal_fan(polygon)

    def split(u, v):
        d = abs(u[0] * v[1] - u[1] * v[0])
        if d == 1:
            return [(u, v)]
        tri = convex_hull([(0, 0), u, v])
        best = None
        for w in lattice_points(tri):
            if w == (0, 0) or w == u or w == v:
                continue
            w = primitivize(w)
            d1 = abs(u[0] * w[1] - u[1] * w[0])
            d2 = abs(w[0] * v[1] - w[1] * v[0])
            if d1 == 0 or d2 == 0:
                continue
            key = (max(d1, d2), d1 + d2, w)
            if best is None or key < best:
                best = key
        w = best[2]
        return split(u, w) + split(w, v)

    pairs = []
    for cone in fan.max_cones:
        u, v = fan.rays[cone[0]], fan.rays[cone[1]]
        pairs.extend(split(u, v))
    rays = sorted({r for pair in pairs for r in pair})
    index = {r: i for i, r in enumerate(rays)}
    return make_fan(rays, [tuple(sorted((index[u], index[v]))) for u, v in pairs])


def face_fan(polytope):
    """Face fan of a reflexive polytope: cones over its facets, with all
    boundary lattice points that happen to be vertices as rays."""
    if not is_reflexive(polytope):
        raise DomainError("face fan implemented for reflexive polytopes")
    rays = list(polytope.vertices)
    index = {r: i for i, r in enumerate(rays)}
    cones = [tuple(index[v] for v in polytope.vertices if dot(v, n) == -c)
             for n, c in polytope.facets]
    return make_fan(rays, cones)


def cayley_points(polys):
    """The points (e_i, v), v a vertex of P_i, listed factor by factor."""
    k = len(polys)
    pts = []
    for i, p in enumerate(polys):
        e = tuple(1 if j == i else 0 for j in range(k))
        pts.extend(e + v for v in p.vertices)
    return pts


@st.composite
def cayley_factors(draw):
    """1-3 lattice polytopes in a common R^d, d = 1..3, each the hull of
    1-4 points: points, segments and polygons among them."""
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2)] * d)
    return [convex_hull(draw(st.lists(point, min_size=1, max_size=4)))
            for _ in range(draw(st.integers(1, 3)))]


def cayley_polytope(polys):
    """Cayley polytope Conv(e_1 x P_1, ..., e_k x P_k) in R^k x R^n."""
    if not polys:
        raise InputError("cayley_polytope needs at least one polytope")
    n = polys[0].ambient_dim
    if any(p.ambient_dim != n for p in polys):
        raise InputError("Cayley factors must share an ambient dimension")
    return convex_hull(cayley_points(polys))


def pyramid(polytope, apex):
    """Hull of P and an apex outside P's affine span; dim goes up by one."""
    apex = tuple(apex)
    in_span = (polytope.dim == polytope.ambient_dim
               or all(dot(apex, n) == rhs for n, rhs in polytope.equations))
    if in_span:
        raise DomainError("apex lies in the affine span of the base")
    out = convex_hull(list(polytope.vertices) + [apex])
    if out.dim != polytope.dim + 1:
        raise ConsistencyError("pyramid did not raise the dimension")
    return out


def s_polytope(nef_partition):
    """S = Conv({0} u e_i x (Delta_i cap M)), hulled from lattice points."""
    np_ = nef_partition
    r = np_.r
    pts = [tuple(0 for _ in range(r + np_.dim))]
    for i, poly in enumerate(np_.section_polytopes):
        e = tuple(1 if j == i else 0 for j in range(r))
        pts.extend(e + q for q in lattice_points(poly))
    return convex_hull(pts)


def cone_contains(cone, vector):
    """Membership in a Cone, from the H-representation of its generators."""
    if not cone.generators:
        return all(Fraction(x) == 0 for x in vector)
    ineqs, eqs = cone_hrep(cone.generators)
    return (all(dot(vector, n) >= 0 for n in ineqs)
            and all(dot(vector, e) == 0 for e in eqs))


def complete_by_hrep(fan):
    """Completeness from each cone's ``cone_hrep``, on any fan: every cone
    full-dimensional and strongly convex, each facet (keyed by the cone's
    rays on it) in exactly two cones with opposite normals, and one
    moment-curve point, generic for every normal, inside exactly one
    cone.  The package takes this route only for non-simplicial cones."""
    n = fan.ambient_dim
    cone_normals = []
    ridges = {}
    for cone in fan.max_cones:
        ineqs, eqs = cone_hrep(fan.cone_rays(cone))
        if eqs or matrix_rank(ineqs) != n:
            return False
        cone_normals.append(ineqs)
        for h in ineqs:
            key = frozenset(i for i in cone if dot(fan.rays[i], h) == 0)
            ridges.setdefault(key, []).append(h)
    for normals in ridges.values():
        if len(normals) != 2 or normals[0] != tuple(-x for x in normals[1]):
            return False
    t = 1 + max((abs(x) for normals in cone_normals for h in normals for x in h),
                default=0)
    v = tuple(t ** k for k in range(n))
    return sum(all(dot(v, h) > 0 for h in normals)
               for normals in cone_normals) == 1


def invert_unimodular(rows):
    """Exact inverse of an integer matrix with determinant +-1: its
    ``scaled_inverse``, whose positive scale is |det| = 1."""
    inverse = scaled_inverse(rows)
    if inverse is None or abs(det(rows)) != 1:
        raise ValueError("matrix is not unimodular")
    return inverse


def gl_canonical_form(fan):
    """A canonical representative of a smooth complete fan under GL(Z):
    minimize the (rays, cones) pair over coordinate changes sending some
    maximal cone to the standard positive orthant."""
    n = fan.ambient_dim
    best = None
    for cone in fan.max_cones:
        if len(cone) != n:
            continue
        for perm in permutations(cone):
            rows = [fan.rays[i] for i in perm]
            if abs(det(rows)) != 1:
                continue
            inv = invert_unimodular(rows)
            new_rays = [tuple(sum(r[i] * inv[i][j] for i in range(n))
                              for j in range(n)) for r in fan.rays]
            candidate = make_fan(new_rays, fan.max_cones)
            key = (candidate.rays, candidate.max_cones)
            if best is None or key < best:
                best = key
    if best is None:
        raise DomainError("GL(Z) normal form implemented for smooth fans")
    return best


def reference_pulling(points):
    """Iterated pulling triangulation by ray shooting in Fraction
    arithmetic: pulling a into a cell, q joins the cell conv(a ∪ G) iff
    q is below a's level over the facet G (lam < 1) and the point z where
    the ray from a through q leaves the cell satisfies every facet
    inequality.  Points are pulled in the order given."""
    pts = [tuple(p) for p in points]
    f = len(pts[0])
    if f == 0:
        return [(0,)]
    cells = [tuple(range(len(pts)))]
    for a, pa in enumerate(pts):
        next_cells = []
        for cell in cells:
            if a not in cell or len(cell) == f + 1:
                next_cells.append(cell)
                continue
            hull = convex_hull([pts[i] for i in cell])
            if hull.dim != f:
                raise ConsistencyError("pulling produced a degenerate cell")
            for normal, offset in hull.facets:
                ha = dot(pa, normal) + offset
                if ha == 0:
                    continue
                members = [a]
                for q in cell:
                    if q == a:
                        continue
                    x = pts[q]
                    lam = (Fraction(dot(x, normal)) + offset) / ha
                    if lam >= 1:
                        continue
                    z = tuple((Fraction(xc) - lam * pc) / (1 - lam)
                              for xc, pc in zip(x, pa))
                    if all(dot(z, n2) + c2 >= 0 for n2, c2 in hull.facets):
                        members.append(q)
                next_cells.append(tuple(sorted(members)))
        cells = next_cells
    return sorted(cells)


def taut_operators(degrees, dim):
    """The operators of the tautological system, parsed from the text that
    ``taut_text`` generates, in its order."""
    return parse_operators("".join(taut_text(degrees, dim)))


def _term_text_by_parts(coeff, term):
    """Text of the term with coeff, a positive number, as its coefficient."""
    parts = []
    if coeff != 1:
        parts.append(str(coeff))
    if term.multiplier:
        parts.append(term.multiplier)
    parts.extend(f"d({x})" for x in term.derivs)
    if not parts:
        parts.append("1")
    return "*".join(parts)


def serialize_by_parts(op):
    """An operator's line rebuilt from its fields, term by term, apart from
    the package's signed term texts."""
    chunks = []
    for term in op.terms:
        if term.coeff < 0:
            chunks.append(("-", _term_text_by_parts(-term.coeff, term)))
        else:
            chunks.append(("+", _term_text_by_parts(term.coeff, term)))
    if op.constant:
        sign = "-" if op.constant < 0 else "+"
        chunks.append((sign, str(abs(op.constant))))
    if not chunks:
        return "0"
    sign, first = chunks[0]
    text = ("-" if sign == "-" else "") + first
    for sign, chunk in chunks[1:]:
        text += f" {sign} {chunk}"
    return text


@pytest.fixture
def dk_top_term_plus_one(monkeypatch):
    """Make the DK route disagree with the closed form: add 1 to the
    volume of the Cayley pyramid of the full index set."""
    volumes = invariants._pyramid_volumes

    def plus_one(polytopes, lam):
        out = volumes(polytopes, lam)
        out[tuple(range(len(polytopes)))] += 1
        return out

    monkeypatch.setattr(invariants, "_pyramid_volumes", plus_one)


@pytest.fixture
def cayley_cone_drops_last_generator(monkeypatch):
    """Break Gorenstein cone duality: sigma_nabla, read by
    ``cayley_cone_duality_check`` from ``nefpart.cayley_cone``, loses its
    last generator."""
    cone = nefpart.cayley_cone

    def dropped(nef_partition):
        sigma = cone(nef_partition)
        return Cone(sigma.ambient_dim, sigma.generators[:-1], sigma.dim)

    monkeypatch.setattr(nefpart, "cayley_cone", dropped)


@pytest.fixture
def p2_delta():
    return convex_hull(P2_DELTA)


@pytest.fixture
def p2_fan(p2_delta):
    return normal_fan(p2_delta)


@pytest.fixture
def p4_two_parts_file(tmp_path):
    """P4_TWO_PARTS written to a nef-partition JSON file; its path."""
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(P4_TWO_PARTS), encoding="utf-8")
    return str(path)
