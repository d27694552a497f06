"""Topological invariants of the singular double covers.

Euler characteristics come from two independent routes that the test
suite plays against each other:

* the Danilov-Khovanskii formula, with every Cayley pyramid Lambda_J of
  the section polytopes read as a face of the one pyramid Lambda; its
  inclusion-exclusion into chi of the gauge-fixed branch divisor cancels
  to vol(Lambda) = chi(X_dual) (the Cayley trick), and the branched-cover
  formula chi(D) + r(chi(X) - chi(D)) then gives chi(Y); and
* the closed form chi(Y) = chi(X) + (-1)^n chi(X_dual), with chi and the
  h-vector of each toric side read from ``NefPartition.toric_numbers``:
  in dimension n <= 3 from the lattice-point count of the polar, with no
  fan, and above from the MPCP fan over it; on both routes sum h is
  checked against the normalized polar volume (the Ehrhart identity).

For n <= 3 the DK route thus sets the Cayley volume vol(Lambda) against a
lattice-point count of the other side's polar.

``verify_mirror_duality`` is the one place that checks the mirror pair's
theorem set: the two routes against each other, the Ehrhart identity on
each side and Gorenstein cone duality.  It returns its report as the one
document of these numbers: the ``invariants`` command prints it, and
``catalog`` checks its goldens, s_volume included, against it.
"""
from __future__ import annotations

from itertools import combinations

from .errors import DomainError, InputError, SmoothnessError, check
from .intlin import det
from .lattice import cayley_pyramid
from .nefpart import cayley_cone_duality_check
from .toric import (
    COUNT_DIM,
    divisor_from_polytope,
    is_complete,
    is_nef_polytope,
    is_smooth,
    nef_polytope,
)


# ---------------------------------------------------------------------------
# Danilov-Khovanskii
# ---------------------------------------------------------------------------

def cayley_pyramid_volume(polytopes):
    """vol_{n+|J|}(Lambda_J): normalized volume of the Cayley pyramid of
    the polytopes in the full ambient R^|J| x M_R (zero when the pyramid
    is not full-dimensional)."""
    lam = cayley_pyramid(polytopes)
    return lam.nvolume if lam.dim == lam.ambient_dim else 0


def _pyramid_volumes(polytopes, lam):
    """vol_{n+|J|}(Lambda_J) for every nonempty J, keyed by the index
    tuple J, all read from ``lam``, the Cayley pyramid of all k polytopes:
    Lambda_J is its face x_j = 0 (j not in J), so lam's boundary
    triangulation restricts to one of Lambda_J, whose full cells are the
    apex 0 (lex-first) and n + |J| points of the parts in J."""
    k = len(polytopes)
    n = lam.ambient_dim - k
    cones = [[(p[:k].index(1), p) for p in simplex[1:]]
             for simplex in lam.boundary if not any(simplex[0])]
    volumes = {}
    for size in range(1, k):
        for subset in combinations(range(k), size):
            cells = {frozenset(p for j, p in cone if j in subset)
                     for cone in cones}
            volumes[subset] = sum(
                abs(det([[p[j] for j in subset] + list(p[k:]) for p in cell]))
                for cell in cells if len(cell) == n + size)
    volumes[tuple(range(k))] = lam.nvolume if lam.dim == lam.ambient_dim else 0
    return volumes


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
    if any(d.fan != fan for d in divisors):
        raise InputError("divisor lives on a different fan")
    try:
        polytopes = [nef_polytope(d) for d in divisors]
    except DomainError as exc:
        raise DomainError("dk_euler needs nef divisors") from exc
    volumes = _pyramid_volumes(polytopes, cayley_pyramid(polytopes))
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
    Batyrev-Borisov dual, from the ``toric_numbers`` of both sides, as the
    fields of the ``invariants`` document: n, chi_X, chi_Xdual, chi_Y and
    chi_Ydual (the closed form chi(X) + (-1)^n chi(X_dual) and its mirror),
    hodge, mapping "p,q" with p+q != n to h^{p,q}(Y) = h^{p,q}(X), and for
    n = 3 h11_Y and h21_Y.  Requires smooth MPCP fans on both sides, which
    always exist in dimension n <= COUNT_DIM."""
    np_ = nef_partition
    n = np_.dim
    dual = np_.dual
    # a refusal needs one side only, so the dual side goes first: on the
    # non-unimodular 4-polytope of the tests it refuses after 3 hulls,
    # where the primal side's pulling triangulation builds 520
    chi_xd, h_xd = dual.toric_numbers
    chi_x, h_x = np_.toric_numbers
    sign = (-1) ** n
    inv = {
        "n": n,
        "chi_X": chi_x,
        "chi_Xdual": chi_xd,
        "chi_Y": chi_x + sign * chi_xd,
        "chi_Ydual": chi_xd + sign * chi_x,
        "hodge": {f"{p},{q}": h_x[p] if p == q else 0
                  for p in range(n + 1) for q in range(n + 1) if p + q != n},
    }
    if n == 3:
        inv["h11_Y"] = h_x[1]
        inv["h21_Y"] = h_xd[1]
    return inv


def verify_mirror_duality(nef_partition):
    """Check the theorem set of the mirror pair (Y, Y_dual) and return its
    document.  The identities:

    * the Ehrhart identity sum h = nvol(polar) on each side, checked by
      ``toric_numbers`` when ``double_cover_invariants`` reads chi(X) and
      chi(X_dual); on the dual side that polar is Conv(Delta_1, ...,
      Delta_r), by the polar identity ``dualize`` checks;
    * Gorenstein cone duality dual_cone(sigma_Delta) == sigma_nabla, by
      ``cayley_cone_duality_check``;
    * in dimension n > COUNT_DIM, where the MPCP fan is built, each
      Delta_i pulled back to that fan is nef with section polytope Delta_i
      again, by ``is_nef_polytope`` with no hull (below, no fan is built
      and there is nothing to pull back to);
    * the DK route: chi(Y) recomputed from the Cayley pyramid volumes
      equals the closed form chi(X) + (-1)^n chi(X_dual), which equals
      (-1)^n chi(Y_dual) by construction.  The route reduces to vol(Lambda)
      = chi(X_dual) = nvol(Conv(Delta_i)), so it holds exactly when the
      S-volume identity does.

    Each identity is an ``errors.check``, so a failure raises.  Returns
    (True, report); the flag, always true, stays for the benchmark's
    tracer.  The report is the document ``invariants`` prints: the fields
    of ``double_cover_invariants``, duality_ok (true) and dk_terms, every
    pyramid volume vol_{n+|J|}(Lambda_J) with J counted from 1.
    """
    np_ = nef_partition
    n = np_.dim
    r = np_.r
    inv = double_cover_invariants(np_)
    check("Gorenstein cone duality dual_cone(sigma_Delta) == sigma_nabla",
          cayley_cone_duality_check(np_))
    if n > COUNT_DIM:
        fan_x, _ = np_.mpcp  # checked complete when built
        for i, poly in enumerate(np_.section_polytopes):
            check("pulled-back Delta_i is nef with nef_polytope == Delta_i",
                  is_nef_polytope(divisor_from_polytope(fan_x, poly), poly),
                  i=i)

    # the pulled-back polytopes are the sections, so their Cayley pyramid
    # is the one the nef-partition keeps
    volumes = _pyramid_volumes(np_.section_polytopes, np_.cayley_pyramid)
    # inclusion-exclusion of the DK sums over the D_j cancels to the top
    # term (the Cayley trick)
    chi_union = (-1) ** (n + 1) * volumes[tuple(range(r))]

    chi_branch = inv["chi_X"] + chi_union
    dk = branched_cover_euler(inv["chi_X"], chi_branch, 2)
    check("DK route chi(Y) == chi(X) + (-1)^n chi(X_dual)", dk == inv["chi_Y"],
          dk=dk, closed_form=inv["chi_Y"])
    return True, {
        **inv,
        "duality_ok": True,
        "dk_terms": [{"J": [j + 1 for j in subset], "volume": volumes[subset]}
                     for subset in sorted(volumes)],
    }


# ---------------------------------------------------------------------------
# surface node count
# ---------------------------------------------------------------------------

def surface_node_count(nef_partition):
    """Node count of the branch divisor of the gauge-fixed double cover
    attached to a 2-dimensional nef-partition (15 for the classical
    six-line K3 configuration), on its smooth complete MPCP surface X:

        nodes = chi(X) + K_X^2 + sum_{i<j} D_i . D_j
              = chi(X) + nvol(Delta)
                + (nvol(Delta) - sum_{dim Delta_i = 2} nvol(Delta_i)) / 2,

    chi(X) from ``toric_numbers``, with no fan.

    The branch divisor is the toric boundary plus a generic curve D_i per
    part.  Toric divisors meet at the chi(X) torus-fixed points; they sum
    to -K = D_1 + ... + D_r, so they meet the curves K^2 times; two curves
    meet D_i . D_j times.  On a surface D^2 is the normalized volume of
    D's section polytope, 0 for a segment or a point, so the pairwise sum
    is ((sum D_i)^2 - sum D_i^2) / 2.  Checked: that difference is even,
    and chi(Y) + nodes = 24 (Y resolves to a K3), with chi(Y) read from
    both sides' ``toric_numbers``."""
    if nef_partition.dim != 2:
        raise InputError("node counts are for surfaces")
    chi_x, _ = nef_partition.toric_numbers
    volume = nef_partition.delta.nvolume
    squares = sum(p.nvolume for p in nef_partition.section_polytopes
                  if p.dim == 2)
    pairings, odd = divmod(volume - squares, 2)
    check("pairing sum nvol(Delta) - sum nvol(Delta_i) == "
          "2 sum_{i<j} D_i.D_j is even", not odd,
          nvol_delta=volume, sum_nvol_parts=squares)
    nodes = chi_x + volume + pairings
    chi_y = chi_x + nef_partition.dual.toric_numbers[0]
    check("K3 node count chi(Y) + nodes == 24", chi_y + nodes == 24,
          chi_Y=chi_y, nodes=nodes)
    return nodes
