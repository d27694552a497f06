"""Topological invariants of the singular double covers.

Euler characteristics come from two independent routes that the test
suite plays against each other:

* the Danilov-Khovanskii formula, summing normalized volumes of pyramids
  over Cayley polytopes of the section polytopes, assembled through
  inclusion-exclusion into chi of the gauge-fixed branch divisor and then
  through the branched-cover formula chi(D) + r(chi(X) - chi(D)); and
* the closed form chi(Y) = chi(X) + (-1)^n chi(X_dual), with chi of each
  toric side cross-checked as both a maximal-cone count of the MPCP fan
  and a normalized polar volume.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ConsistencyError, DomainError, InputError, SmoothnessError
from .intlin import dot
from .lattice import (
    cayley_polytope,
    lattice_points,
    mixed_area,
    normalized_volume,
    pyramid,
)
from .toric import (
    divisor_from_polytope,
    divisor_polytope,
    is_complete,
    is_nef,
    is_smooth,
)


@dataclass(frozen=True)
class CoverInvariants:
    """Euler characteristics and Hodge data of the mirror pair (Y, Y_dual).

    hodge_offdiag maps (p, q) with p+q != n to h^{p,q}(Y) = h^{p,q}(X);
    h11 and h21 are filled in the threefold case only.
    """

    n: int
    chi_X: int
    chi_Xdual: int
    chi_Y: int
    chi_Ydual: int
    hodge_offdiag: tuple  # tuple of ((p, q), value), sorted
    h11_Y: object
    h21_Y: object
    duality_ok: bool


# ---------------------------------------------------------------------------
# Danilov-Khovanskii
# ---------------------------------------------------------------------------

def cayley_pyramid_volume(polytopes):
    """vol_{n+|J|}(Lambda_J): normalized volume of the pyramid with apex 0
    over the Cayley polytope, in the full ambient R^|J| x M_R (zero when
    the pyramid is not full-dimensional)."""
    cayley = cayley_polytope(polytopes)
    apex = tuple(0 for _ in range(cayley.ambient_dim))
    lam = pyramid(cayley, apex)
    if lam.dim != lam.ambient_dim:
        return 0
    return normalized_volume(lam)


def _pyramid_volumes(polytopes):
    """vol_{n+|J|}(Lambda_J) for every nonempty J, keyed by the index
    tuple J."""
    k = len(polytopes)
    return {subset: cayley_pyramid_volume([polytopes[j] for j in subset])
            for size in range(1, k + 1)
            for subset in combinations(range(k), size)}


def _dk_sum(n, volumes, indices):
    """Danilov-Khovanskii chi of the intersection over the given indices
    with the torus: - sum_{0 != J} (-1)^{n+|J|-1} vol(Lambda_J)."""
    total = 0
    for size in range(1, len(indices) + 1):
        for subset in combinations(indices, size):
            total -= (-1) ** (n + size - 1) * volumes[subset]
    return total


def dk_euler(fan, divisors):
    """Euler characteristic of D_1 cap ... cap D_k cap T for general nef
    divisors, by Danilov-Khovanskii:

        chi = - sum_{0 != J} (-1)^{n+|J|-1} vol_{n+|J|}(Lambda_J).
    """
    if not (is_smooth(fan) and is_complete(fan)):
        raise SmoothnessError("dk_euler assumes a smooth complete fan")
    for d in divisors:
        if d.fan != fan:
            raise InputError("divisor lives on a different fan")
        if not is_nef(d):
            raise DomainError("dk_euler needs nef divisors")
    volumes = _pyramid_volumes([divisor_polytope(d) for d in divisors])
    return _dk_sum(fan.ambient_dim, volumes, tuple(range(len(divisors))))


def branched_cover_euler(chi_x, chi_d, r):
    """chi of an r-fold cyclic cover of X branched over D:
    chi(D) + r (chi(X) - chi(D))."""
    if r < 1:
        raise InputError("cover degree must be at least 1")
    return chi_d + r * (chi_x - chi_d)


# ---------------------------------------------------------------------------
# the mirror pair
# ---------------------------------------------------------------------------

def double_cover_invariants(nef_partition):
    """Invariants of the double covers attached to a nef-partition and its
    Batyrev-Borisov dual.  Requires smooth MPCP fans on both sides."""
    np_ = nef_partition
    n = np_.dim
    dual = np_.dual.nef_partition
    fan_x, h_x = np_.mpcp
    fan_xd, h_xd = dual.mpcp
    chi_x = len(fan_x.max_cones)
    chi_xd = len(fan_xd.max_cones)
    sign = (-1) ** n
    chi_y = chi_x + sign * chi_xd
    chi_yd = chi_xd + sign * chi_x
    offdiag = []
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q != n:
                offdiag.append(((p, q), h_x[p] if p == q else 0))
    h11 = h21 = None
    if n == 3:
        h11 = h_x[1]
        h21 = h_xd[1]
    return CoverInvariants(
        n=n, chi_X=chi_x, chi_Xdual=chi_xd, chi_Y=chi_y, chi_Ydual=chi_yd,
        hodge_offdiag=tuple(sorted(offdiag)),
        h11_Y=h11, h21_Y=h21,
        duality_ok=(chi_y == sign * chi_yd))


def verify_mirror_duality(nef_partition):
    """Recompute chi(Y) through the DK/inclusion-exclusion route and the
    closed form, and check both against (-1)^n chi(Y_dual).

    Returns (ok, report); the report lists every intermediate pyramid
    volume vol_{n+|J|}(Lambda_J).
    """
    np_ = nef_partition
    n = np_.dim
    r = np_.r
    inv = double_cover_invariants(np_)
    fan_x, _ = np_.mpcp

    divisors = [divisor_from_polytope(fan_x, poly)
                for poly in np_.section_polytopes]
    for d in divisors:
        if not is_nef(d):
            raise ConsistencyError("pulled-back nef-partition divisor is not nef")
    polytopes = [divisor_polytope(d) for d in divisors]
    for poly, section in zip(polytopes, np_.section_polytopes):
        if poly != section:
            raise ConsistencyError("pullback changed a section polytope")

    volumes = _pyramid_volumes(polytopes)
    chi_union = 0
    for subset in volumes:
        chi_union += (-1) ** (len(subset) - 1) * _dk_sum(n, volumes, subset)

    chi_branch = inv.chi_X + chi_union
    chi_y_dk = branched_cover_euler(inv.chi_X, chi_branch, 2)
    ok = (chi_y_dk == inv.chi_Y == (-1) ** n * inv.chi_Ydual)
    report = {
        "n": n,
        "r": r,
        "chi_X": inv.chi_X,
        "chi_Xdual": inv.chi_Xdual,
        "chi_branch_divisor": chi_branch,
        "chi_Y_dk": chi_y_dk,
        "chi_Y_closed_form": inv.chi_Y,
        "chi_Ydual": inv.chi_Ydual,
        "duality_ok": ok,
        "dk_terms": [{"J": [j + 1 for j in subset], "volume": volumes[subset]}
                     for subset in sorted(volumes)],
    }
    return ok, report


# ---------------------------------------------------------------------------
# surface node count
# ---------------------------------------------------------------------------

def surface_node_count_from(fan, polytopes):
    """Expected-generic node count of the gauge-fixed branch divisor on a
    smooth toric surface: toric divisors meet at the 2-cones, a toric
    divisor meets a generic curve along the matching facet's lattice
    length, and two generic curves meet in the mixed area of their
    polytopes."""
    if fan.ambient_dim != 2:
        raise InputError("node counts are for surfaces")
    if not (is_smooth(fan) and is_complete(fan)):
        raise SmoothnessError("node counts assume a smooth complete surface")
    count = 0
    for cone in fan.max_cones:
        if len(cone) == 2:
            count += 1
    for rho in fan.rays:
        for poly in polytopes:
            count += _facet_lattice_length(poly, rho)
    for p, q in combinations(polytopes, 2):
        count += mixed_area(p, q)
    return count


def _facet_lattice_length(polytope, rho):
    """Lattice length of the facet of a polygon with inner normal rho
    (zero when absent or when the polytope is lower-dimensional)."""
    if polytope.dim < 2:
        return 0
    for normal, offset in polytope.facets:
        if normal == rho:
            pts = [p for p in lattice_points(polytope)
                   if dot(p, normal) == -offset]
            return len(pts) - 1
    return 0


def surface_node_count(nef_partition):
    """Node count for the branch divisor of the gauge-fixed double cover
    attached to a 2-dimensional nef-partition (e.g. 15 for the classical
    six-line K3 configuration)."""
    if nef_partition.dim != 2:
        raise InputError("node counts are for surfaces")
    fan, _ = nef_partition.mpcp
    return surface_node_count_from(fan, list(nef_partition.section_polytopes))
