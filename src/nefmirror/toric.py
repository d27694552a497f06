"""Fans and toric computations: normal fans, smoothness/completeness,
Hodge numbers of smooth complete toric varieties, MPCP h-vectors, Cartier
data, projective-bundle fans, semiample contractions, Fano tests.  The
MPCP layer takes the polar P° of a reflexive polytope as its one input:
the h-vector is read from the count of P°'s lattice points (n <= 3) or
from the MPCP fan over P°'s boundary triangulation.  Section
polytopes are taken only of nef divisors on complete fans, where one is
the hull of the divisor's Cartier data (``nef_polytope``), and
``is_nef_polytope`` tests that hull against a polytope without building
it.  ``Fan``, ``ToricDivisor`` and ``CartierData`` are immutable named
tuples with read-only fields; a ``ToricDivisor`` checks its coefficients
when it is made.

Sign convention: a divisor D = sum a_rho D_rho has polytope
``{m : <m, rho> >= -a_rho}`` and support function ``psi(u) = min_{m in
Delta_D} <m, u>``, so the Cartier datum m_sigma of a nef divisor is the
vertex of Delta_D selected by sigma and satisfies <m_sigma, rho> = -a_rho
on the rays of sigma.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb

from .errors import DomainError, InputError, SmoothnessError, check
from .intlin import (
    det,
    dot,
    lattice_split,
    matrix_rank,
    primitivize,
    scaled_inverse,
    solve_linear,
)
from .lattice import (
    cone_hrep,
    convex_hull,
    integer_vector,
    is_reflexive,
    lattice_points,
    maximal_boundary_triangulation,
)


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

class Fan(namedtuple("Fan", "ambient_dim rays max_cones")):
    """A fan given by primitive rays (lex-sorted) and maximal cones as
    ray-index tuples.  Lower-dimensional cones are derived on demand."""

    __slots__ = ()

    def cone_rays(self, cone):
        return tuple(self.rays[i] for i in cone)

    def __repr__(self):
        return (f"Fan(dim={self.ambient_dim}, rays={len(self.rays)}, "
                f"max_cones={len(self.max_cones)})")


class ToricDivisor(namedtuple("ToricDivisor", "fan coeffs")):
    """Torus-invariant divisor sum a_rho D_rho; coefficients follow the
    fan's canonical ray order and must be ints."""

    __slots__ = ()

    def __new__(cls, fan, coeffs):
        integer_vector(coeffs)
        if len(coeffs) != len(fan.rays):
            raise InputError("divisor needs one coefficient per ray")
        return super().__new__(cls, fan, coeffs)

    @classmethod
    def _make(cls, iterable):  # _replace calls it: both check as __new__ does
        return cls(*iterable)


class CartierData(namedtuple("CartierData", "divisor per_cone")):
    """Per-maximal-cone linear functionals m_sigma representing a divisor's
    support function: <m_sigma, rho> = -a_rho on the rays of sigma.
    ``per_cone`` is aligned with ``divisor.fan.max_cones``."""

    __slots__ = ()


def make_fan(rays, max_cones):
    """Canonicalize: rays lex-sorted and primitive, cones as sorted index
    tuples, cone list sorted and deduplicated.  A ray with a coordinate
    that is not an ``int``, and a cone that names a missing ray or repeats
    a ray index, is an InputError."""
    rays = [integer_vector(r) for r in rays]
    if not rays:
        raise InputError("a fan needs at least one ray")
    d = len(rays[0])
    if any(len(r) != d for r in rays):
        raise InputError("rays of mixed dimension")
    for r in rays:
        if not any(r) or primitivize(r) != r:
            raise InputError(f"ray {r} is not a primitive integer vector")
    if len(set(rays)) != len(rays):
        raise InputError("duplicate rays")
    max_cones = [tuple(cone) for cone in max_cones]
    if any(i not in range(len(rays)) for cone in max_cones for i in cone):
        raise InputError("cone refers to a missing ray")
    for cone in max_cones:
        if len(set(cone)) != len(cone):
            raise InputError(f"cone {cone} repeats a ray")
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    relabel = {old: new for new, old in enumerate(order)}
    sorted_rays = tuple(rays[i] for i in order)
    cones = sorted({tuple(sorted(relabel[i] for i in cone)) for cone in max_cones})
    return Fan(d, sorted_rays, tuple(cones))


def normal_fan(polytope):
    """Normal fan: one ray per facet inner normal, one maximal cone per
    vertex (spanned by the normals of its facets).  For a reflexive
    polytope this is the face fan of the polar dual."""
    if polytope.dim != polytope.ambient_dim:
        raise DomainError("normal fan needs a full-dimensional polytope")
    rays = [normal for normal, _ in polytope.facets]
    cones = []
    for v in polytope.vertices:
        cones.append(tuple(i for i, (n, c) in enumerate(polytope.facets)
                           if dot(v, n) == -c))
    return make_fan(rays, cones)


# ---------------------------------------------------------------------------
# fan predicates
# ---------------------------------------------------------------------------

def _cone_extends_to_basis(gens):
    """True iff the generators are part of a Z-basis of the ambient lattice:
    linearly independent, and with chart coordinates of determinant +-1 in
    the lattice of their span."""
    image, _ = lattice_split(gens)
    if len(image) != len(gens):
        return False
    return abs(det([[dot(g, c) for c in image] for g in gens])) == 1


def is_smooth(fan):
    """Every maximal cone's rays extend to a Z-basis.  For a cone of n =
    ambient-dimension rays that is |det(G_sigma)| = 1; a cone of fewer
    rays goes through the lattice of its span (``_cone_extends_to_basis``)."""
    n = fan.ambient_dim
    return all(abs(det(gens)) == 1 if len(gens) == n
               else _cone_extends_to_basis(gens)
               for gens in map(fan.cone_rays, fan.max_cones))


def is_complete(fan):
    """Exact test that the maximal cones form a complete fan, in one loop
    over the maximal cones.  A cone of n rays takes its facet normals from
    the columns of ``scaled_inverse`` of its ray matrix (None when the rays
    are dependent), a cone of more rays from ``cone_hrep``, and a cone of
    fewer rays is never full-dimensional.  The conditions:

    - every cone is full-dimensional and strongly convex: n independent
      rays, or no equations and facet normals of rank n;
    - pseudomanifold: each ridge, keyed by a cone's rays on a facet (all
      rays but row i for column i of the scaled inverse), lies in exactly
      two cones, whose normals there are opposite;
    - degree one: the moment-curve vector v = (1, t, ..., t^{n-1}) lies
      strictly inside exactly one cone.

    v is generic: each wall is <v, h> = 0 for a primitive facet normal h,
    a nonzero integer polynomial in t, so by Cauchy's root bound
    <v, h> != 0 once t = 1 + the largest absolute entry of any normal.

    Full-dimensional cells meeting along ridges in pairs from opposite
    sides, with one generic point covered once, cover every generic point
    once and meet in common faces (De Loera-Rambau-Santos, Triangulations,
    2010, section 4.5)."""
    n = fan.ambient_dim
    cone_normals = []
    ridges = {}
    for cone in fan.max_cones:
        gens = fan.cone_rays(cone)
        if len(gens) < n:
            return False
        if len(gens) == n:
            inverse = scaled_inverse(gens)
            if inverse is None:
                return False
            normals = [primitivize(h) for h in zip(*inverse)]
            keys = [cone[:i] + cone[i + 1:] for i in range(n)]
        else:
            normals, eqs = cone_hrep(gens)
            if eqs or matrix_rank(normals) != n:
                return False
            keys = [tuple(i for i in cone if dot(fan.rays[i], h) == 0)
                    for h in normals]
        cone_normals.append(normals)
        for key, h in zip(keys, normals):
            ridges.setdefault(key, []).append(h)
    for pair in ridges.values():
        if len(pair) != 2 or pair[0] != tuple(-x for x in pair[1]):
            return False
    t = 1 + max((abs(x) for normals in cone_normals for h in normals for x in h),
                default=0)
    v = tuple(t ** k for k in range(n))
    return sum(all(dot(v, h) > 0 for h in normals)
               for normals in cone_normals) == 1


# ---------------------------------------------------------------------------
# MPCP desingularization and Hodge numbers
# ---------------------------------------------------------------------------

# Up to this dimension every fine triangulation of the boundary of a
# reflexive polytope is unimodular, so the MPCP h-vector is read from the
# lattice-point count of the polar (``mpcp_h_vector``) and no fan is built.
COUNT_DIM = 3


def mpcp_h_vector(polar):
    """h-vector of the smooth MPCP fans of a reflexive polytope Delta of
    dimension n <= COUNT_DIM, read from its polar P° = Delta^dual with no
    fan, from the count L = #(P° ∩ Z^n) of its lattice points:

        h = (1, L - n - 1, ..., L - n - 1, 1).

    The fan over a unimodular triangulation of the boundary of a reflexive
    P° has h-vector the Ehrhart h*-vector of P° (Batyrev 1994, with
    Stanley 1980 and Betke-McMullen 1985); h* of a reflexive polytope is
    palindromic, and h*_1 = L - n - 1, which fixes h* for n <= 3.  There
    a smooth MPCP fan always exists: the facets of P° lie at lattice
    distance 1, and an empty lattice segment or triangle has normalized
    volume 1, so every fine boundary triangulation is unimodular."""
    n = polar.ambient_dim
    if n > COUNT_DIM:
        raise DomainError(f"mpcp_h_vector needs dimension at most {COUNT_DIM}")
    if not is_reflexive(polar):
        raise DomainError("mpcp_h_vector needs a reflexive polytope")
    count = len(lattice_points(polar))
    return (1,) + (count - n - 1,) * (n - 1) + (1,)


def mpcp_fan(polar):
    """Maximal projective crepant partial desingularization of the toric
    variety of a reflexive polytope Delta, given its polar P° =
    Delta^dual: the normal fan of Delta refined by all nonzero lattice
    points of P°, the fan over the maximal boundary triangulation of P°
    (a DomainError when P° is not reflexive).  Returns (fan, h_vector),
    the h-vector as in ``hodge_numbers_smooth_toric``.  A nef-partition
    builds it only in dimension n > COUNT_DIM, where it is the smoothness
    certificate and the source of h (``NefPartition.toric_numbers``, which
    checks sum h, the maximal-cone count, against nvol(P°)); below, the
    tests read it as the oracle of ``mpcp_h_vector``.

    The fan must be smooth: a cone over a simplex of |det| != 1 is a
    SmoothnessError.  That shows only that this one (pulling)
    triangulation is not unimodular, not that no smooth MPCP fan exists,
    and the message says no more.  A smooth MPCP fan is complete, a
    theorem checked by ``errors.check``."""
    tri = maximal_boundary_triangulation(polar)
    rays = tri.uses_points[1:]
    cones = [tuple(i - 1 for i in simplex if i != 0) for simplex in tri.simplices]
    fan = make_fan(rays, cones)
    if not is_smooth(fan):
        raise SmoothnessError(
            "the MPCP fan of the pulling triangulation is not unimodular; "
            "no smooth MPCP fan was found")
    check("smooth MPCP fan is complete", is_complete(fan))
    return fan, _h_vector(fan)


def _h_vector(fan):
    """h_p = sum_{i>=p} (-1)^{i-p} C(i,p) #Sigma(n-i) of a simplicial fan,
    whose k-cones are the k-subsets of its maximal cones' ray sets."""
    n = fan.ambient_dim
    counts = [len({sub for cone in fan.max_cones for sub in combinations(cone, k)})
              for k in range(n + 1)]
    return tuple(sum((-1) ** (i - p) * comb(i, p) * counts[n - i]
                     for i in range(p, n + 1))
                 for p in range(n + 1))


def hodge_numbers_smooth_toric(fan):
    """Hodge numbers h^{p,p} of a smooth complete toric variety from its
    cone counts (``_h_vector``); all off-diagonal Hodge numbers vanish and
    chi equals the number of maximal cones.  Returns (h_vector, chi)."""
    if not is_smooth(fan):
        raise SmoothnessError("hodge numbers need a smooth fan")
    if not is_complete(fan):
        raise InputError("hodge numbers need a complete fan")
    return _h_vector(fan), len(fan.max_cones)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

def divisor_from_polytope(fan, polytope):
    """The nef divisor on the fan whose section polytope is the given one:
    a_rho = -min_{m in P} <m, rho>."""
    coeffs = tuple(max(-dot(v, rho) for v in polytope.vertices)
                   for rho in fan.rays)
    return ToricDivisor(fan, coeffs)


def cartier_data(divisor):
    """Solve <m_sigma, rho> = -a_rho on every maximal cone.  Raises
    DomainError when no integral solution exists (non-Cartier)."""
    fan = divisor.fan
    per_cone = []
    for cone in fan.max_cones:
        rows = [fan.rays[i] for i in cone]
        rhs = [-divisor.coeffs[i] for i in cone]
        m = solve_linear(rows, rhs)
        if m is None:
            raise DomainError(f"divisor is not Cartier on cone {cone}")
        if matrix_rank(rows) < fan.ambient_dim:
            raise DomainError("Cartier data needs full-dimensional maximal cones")
        per_cone.append(m)
    return CartierData(divisor, tuple(per_cone))


def _is_convex(data):
    """Nef test on Cartier data: every m_sigma satisfies every ray
    inequality of the divisor polytope."""
    return all(dot(m, rho) >= -a
               for m in data.per_cone
               for rho, a in zip(data.divisor.fan.rays, data.divisor.coeffs))


def _nef_cartier_points(divisor):
    """The set of Cartier data m_sigma of a nef divisor.  Raises
    DomainError when the divisor is not Cartier or not nef."""
    data = cartier_data(divisor)
    if not _is_convex(data):
        raise DomainError("divisor is not nef: its Cartier data is not convex")
    return set(data.per_cone)


def nef_polytope(divisor):
    """Section polytope conv(m_sigma) of a nef divisor on a complete fan
    (Cox-Little-Schenck, Toric Varieties, Thm 6.1.7); completeness is not
    checked.  Raises DomainError when the divisor is not nef."""
    return convex_hull(sorted(_nef_cartier_points(divisor)))


def is_nef_polytope(divisor, polytope):
    """``nef_polytope(divisor) == polytope``, read without a hull, and False
    when the divisor is not Cartier or not nef, as for ``is_ample``:
    conv(m_sigma) is P iff every m_sigma lies in P and every vertex of P
    is some m_sigma (a vertex of conv(S) is a point of S)."""
    try:
        points = _nef_cartier_points(divisor)
    except DomainError:
        return False
    return (polytope.ambient_dim == divisor.fan.ambient_dim
            and points.issuperset(polytope.vertices)
            and all(map(polytope.contains, points)))


def is_ample(divisor):
    """Ample = strictly convex Cartier data: strict inequalities on all
    rays outside each cone."""
    try:
        data = cartier_data(divisor)
    except DomainError:
        return False
    fan = divisor.fan
    for cone, m in zip(fan.max_cones, data.per_cone):
        for i, (rho, a) in enumerate(zip(fan.rays, divisor.coeffs)):
            if i not in cone and dot(m, rho) <= -a:
                return False
    return True


def anticanonical(fan):
    return ToricDivisor(fan, tuple(1 for _ in fan.rays))


def is_fano(fan):
    """True iff -K = sum D_rho is Cartier with strictly convex support
    function (Gorenstein Fano)."""
    if not is_complete(fan):
        raise InputError("is_fano needs a complete fan")
    return is_ample(anticanonical(fan))


# ---------------------------------------------------------------------------
# projective bundle P(L + C) and its contraction
# ---------------------------------------------------------------------------

def projective_bundle_fan(fan, bundle_divisor):
    """Fan of the P^1-bundle compactifying the line bundle of a nonnegative
    divisor: rays (rho_j, a_j), e_inf = (0,..,0,1), e_0 = (0,..,0,-1), and
    per maximal cone tau the two liftings tau_0, tau_inf."""
    if bundle_divisor.fan != fan:
        raise InputError("divisor lives on a different fan")
    if any(a < 0 for a in bundle_divisor.coeffs):
        raise InputError("projective bundle fan needs nonnegative coefficients")
    if not (is_smooth(fan) and is_complete(fan)):
        raise SmoothnessError("projective bundle construction assumes a smooth complete base")
    lifted = [r + (a,) for r, a in zip(fan.rays, bundle_divisor.coeffs)]
    e_inf = tuple(0 for _ in range(fan.ambient_dim)) + (1,)
    e_zero = tuple(0 for _ in range(fan.ambient_dim)) + (-1,)
    rays = lifted + [e_inf, e_zero]
    idx_inf = len(lifted)
    idx_zero = len(lifted) + 1
    cones = []
    for cone in fan.max_cones:
        cones.append(tuple(cone) + (idx_zero,))
        cones.append(tuple(cone) + (idx_inf,))
    return make_fan(rays, cones)


def bundle_nef_divisor(bundle_fan, base_fan, bundle_divisor):
    """H = D_{e_inf} + sum a_j D_{rho_j-bar} on the bundle fan."""
    n = base_fan.ambient_dim
    e_inf = tuple(0 for _ in range(n)) + (1,)
    lifted = {r + (a,): a for r, a in zip(base_fan.rays, bundle_divisor.coeffs)}
    coeffs = []
    for ray in bundle_fan.rays:
        if ray == e_inf:
            coeffs.append(1)
        else:
            coeffs.append(lifted.get(ray, 0))
    return ToricDivisor(bundle_fan, tuple(coeffs))


def semiample_contraction(fan, divisor):
    """Fan obtained by merging maximal cones that share a Cartier datum of
    a nef divisor on a complete fan with full-dimensional polytope
    conv(m_sigma); equals the normal fan of that polytope."""
    points = _nef_cartier_points(divisor)
    polytope = convex_hull(sorted(points))
    if polytope.dim != fan.ambient_dim:
        raise DomainError("divisor polytope is not full-dimensional")
    contracted = normal_fan(polytope)
    extra = set(contracted.rays) - set(fan.rays)
    check("contracted fan rays <= fan rays", not extra,
          rays=tuple(sorted(extra)))
    inner = points - set(polytope.vertices)
    check("every Cartier datum is a vertex of conv(m_sigma)", not inner,
          points=tuple(sorted(inner)))
    return contracted


# ---------------------------------------------------------------------------
# linear equivalence and the Calabi-Yau test
# ---------------------------------------------------------------------------

def linear_equivalence_witness(d1, d2):
    """The m in M with coeffs(D2) - coeffs(D1) = <m, rho> on all rays, or
    None when the divisors are not linearly equivalent."""
    if d1.fan != d2.fan:
        raise InputError("divisors live on different fans")
    fan = d1.fan
    diff = [b - a for a, b in zip(d1.coeffs, d2.coeffs)]
    return solve_linear(list(fan.rays), diff)


def linearly_equivalent(d1, d2):
    return linear_equivalence_witness(d1, d2) is not None


def is_calabi_yau_cover(fan, bundle_divisor, r):
    """True iff (r-1) * a is linearly equivalent to sum_rho D_rho, the
    condition for the r-fold cyclic cover branched in |r*a| to have trivial
    canonical sheaf."""
    if r < 2:
        raise InputError("cyclic cover degree must be at least 2")
    scaled = ToricDivisor(fan, tuple((r - 1) * a for a in bundle_divisor.coeffs))
    return linearly_equivalent(scaled, anticanonical(fan))
