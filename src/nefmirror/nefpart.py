"""Nef-partitions and the Batyrev-Borisov duality construction.

A nef-partition on a reflexive polytope Delta is a partition of the rays
of its normal fan such that each partial divisor sum E_s is nef; it
induces the Minkowski decomposition Delta = Delta_1 + ... + Delta_r into
section polytopes.  The Batyrev-Borisov dual is again a NefPartition:
its polytope is nabla = nabla_1 + ... + nabla_r with nabla_k =
Conv({0} u I_k), reflexive with polar Conv(Delta_1, ..., Delta_r), and
its section polytopes are the nabla_k; nabla is read as that polar's
polar.  Dualizing twice gives back the original value.  A NefPartition
is an immutable named tuple of its four fields, and keeps beside them
what it derives on first read.
"""
from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property

from .errors import DomainError, InputError, check
from .lattice import (
    Cone,
    cayley_pyramid,
    convex_hull,
    is_minkowski_sum,
    is_reflexive,
    json_int,
    polar_dual,
)
from .toric import (
    COUNT_DIM,
    ToricDivisor,
    is_nef_polytope,
    mpcp_fan,
    mpcp_h_vector,
    nef_polytope,
    normal_fan,
)


class NefPartition(namedtuple("NefPartition",
                              "delta fan parts section_polytopes")):
    """A reflexive polytope ``delta`` with its normal fan ``fan``, a nef ray
    partition ``parts`` (a tuple of sorted ray-index tuples) and the
    derived ``section_polytopes`` (in the order of the parts).

    The Batyrev-Borisov dual (``dual``), the Euler characteristic and
    h-vector of the MPCP side (``toric_numbers``), the polar dual
    (``polar``), the MPCP fan (``mpcp``), the hull of the sections
    (``sections_hull``) and their Cayley pyramid (``cayley_pyramid``) are
    computed on first read and kept on the object; equality and hashing
    use the four fields only.  The MPCP layer reads the one ``polar``:
    ``toric_numbers`` counts its lattice points in dimension n <=
    COUNT_DIM and reads the MPCP fan over it above."""

    @property
    def r(self):
        return len(self.parts)

    @property
    def dim(self):
        return self.delta.ambient_dim

    @cached_property
    def dual(self):
        """The dual NefPartition on nabla: ``dualize(self)``."""
        return dualize(self)

    @cached_property
    def mpcp(self):
        """(fan, h_vector) of the MPCP desingularization of P_delta:
        ``mpcp_fan(polar)``, checked smooth and complete.
        ``toric_numbers`` reads it in dimension n > COUNT_DIM; below, only
        the tests do, as the oracle of the count."""
        return mpcp_fan(self.polar)

    @cached_property
    def polar(self):
        """P° = Delta^dual, the one input of the MPCP layer: its nonzero
        lattice points are the rays of the MPCP fan, and their count gives
        the h-vector in dimension n <= COUNT_DIM.  On a dual side made by
        ``dualize`` it is the primal side's ``sections_hull`` (the polar
        identity), so no hull is built."""
        return polar_dual(self.delta)

    @cached_property
    def toric_numbers(self):
        """(chi, h) of the MPCP desingularization X of P_delta: its
        h-vector, h_p = h^{p,p}(X), and chi(X) = sum h.

        In dimension n <= COUNT_DIM, h is read from the lattice-point
        count of ``polar`` (``mpcp_h_vector``) and no fan is built; above,
        h is the MPCP fan's, whose smoothness ``mpcp_fan`` decides.  On
        both routes the Ehrhart identity sum h = nvol(P°), for a fan its
        maximal-cone count, is checked here."""
        h = self.mpcp[1] if self.dim > COUNT_DIM else mpcp_h_vector(self.polar)
        volume = self.polar.nvolume
        check("Ehrhart identity sum(h) == nvol(polar)", sum(h) == volume,
              sum_h=sum(h), nvol_polar=volume)
        return sum(h), h

    @cached_property
    def sections_hull(self):
        """Conv(Delta_1, ..., Delta_r), the polar dual of the dual side's
        polytope nabla, which ``dualize`` builds as this hull's polar."""
        return convex_hull([v for p in self.section_polytopes for v in p.vertices])

    @cached_property
    def cayley_pyramid(self):
        """Lambda = Conv({0} u e_1 x Delta_1 u ... u e_r x Delta_r) in
        R^r x M_R.  It is the polytope S of the volume identity (a lattice
        polytope is the hull of its lattice points), the cone over it is
        the Gorenstein cone sigma_Delta, and its volume is the top
        Danilov-Khovanskii term."""
        return cayley_pyramid(self.section_polytopes)

    def __repr__(self):
        return f"NefPartition(dim={self.dim}, r={self.r}, parts={self.parts})"


def part_divisor(fan, part):
    coeffs = tuple(1 if i in part else 0 for i in range(len(fan.rays)))
    return ToricDivisor(fan, coeffs)


def build_nef_partition(polytope, parts):
    """Validate a ray partition on a reflexive polytope and compute the
    section polytopes.  Rejects empty and non-nef parts by name; the
    Minkowski sum Delta_1 + ... + Delta_r = Delta is a theorem, checked
    with no hull."""
    if not is_reflexive(polytope):
        raise InputError("nef-partitions need a reflexive polytope")
    fan = normal_fan(polytope)  # complete: the polytope is full-dimensional
    n_rays = len(fan.rays)
    seen = []
    for part in parts:
        seen.extend(part)
    if sorted(seen) != list(range(n_rays)):
        raise InputError("parts must partition the ray set "
                         f"{{0,...,{n_rays - 1}}}")
    for s, part in enumerate(parts):
        if not part:
            raise InputError(f"part {s} is empty")
    parts = tuple(tuple(sorted(part)) for part in parts)
    sections = _section_polytopes(fan, parts)
    check("Minkowski sum Delta_1 + ... + Delta_r == Delta",
          is_minkowski_sum(sections, polytope), delta_vertices=polytope.vertices,
          section_vertices=tuple(p.vertices for p in sections))
    return NefPartition(polytope, fan, parts, sections)


def _section_polytopes(fan, parts):
    """The section polytope of each part's divisor E_s, read from its
    Cartier data; a part whose E_s is not nef is rejected by index."""
    sections = []
    for s, part in enumerate(parts):
        try:
            sections.append(nef_polytope(part_divisor(fan, part)))
        except DomainError as exc:
            raise InputError(f"part {s} is not nef: E_{s} has non-convex or "
                             "non-integral Cartier data") from exc
    return tuple(sections)


def _assign_rays_to_parts(rays, part_polytopes):
    """Assign each ray to the unique part polytope containing it; a tie or
    a miss breaks a theorem of the dual nef-partition."""
    assignment = []
    for ray in rays:
        hits = [k for k, poly in enumerate(part_polytopes) if poly.contains(ray)]
        check("each ray of nabla's fan lies in exactly one Delta_k",
              len(hits) == 1, ray=ray, parts=tuple(hits))
        assignment.append(hits[0])
    return assignment


def dualize(nef_partition):
    """Batyrev-Borisov dual nef-partition: nabla_k = Conv({0} u I_k),
    nabla = sum nabla_k, with the rays of nabla's normal fan assigned to
    the Delta_k that contain them.  Checks that Conv(Delta_1, ..., Delta_r)
    is reflexive, the polar identity nabla^dual = Conv(Delta_1, ...,
    Delta_r), and that each dual part is nef with section polytope
    nabla_k; all are theorems, checked by ``errors.check``.

    No identity builds a hull of its own.  nabla is read as the polar of
    the held ``sections_hull``, so the polar identity is nabla = sum
    nabla_k, decided by ``is_minkowski_sum``; each dual part's Cartier
    data is tested against nabla_k by ``is_nef_polytope``."""
    np_ = nef_partition
    fan = np_.fan
    zero = tuple(0 for _ in range(np_.dim))
    nabla_parts = tuple(convex_hull([zero] + [fan.rays[i] for i in part])
                        for part in np_.parts)
    hull = np_.sections_hull
    check("Conv(Delta_1, ..., Delta_r) is reflexive", is_reflexive(hull),
          sections_hull=hull.vertices)
    nabla = polar_dual(hull)
    check("polar identity polar(nabla) == Conv(Delta_1, ..., Delta_r)",
          is_minkowski_sum(nabla_parts, nabla), nabla_vertices=nabla.vertices,
          nabla_part_vertices=tuple(p.vertices for p in nabla_parts))

    dual_fan = normal_fan(nabla)
    assignment = _assign_rays_to_parts(dual_fan.rays, np_.section_polytopes)
    dual_parts = tuple(tuple(i for i, k in enumerate(assignment) if k == s)
                       for s in range(np_.r))
    for k, (part, part_poly) in enumerate(zip(dual_parts, nabla_parts)):
        check("dual part F_k is nef with nef_polytope(F_k) == nabla_k",
              is_nef_polytope(part_divisor(dual_fan, part), part_poly), k=k)
    dual = NefPartition(nabla, dual_fan, dual_parts, nabla_parts)
    vars(dual)["polar"] = hull  # polar_dual is an involution
    return dual


def dualize_document(nef_partition):
    """The document the ``dualize`` command prints: the vertices of nabla
    and of its polar Conv(Delta_1, ..., Delta_r), the dual parts, the
    vertices of each nabla_k and the normal fan of nabla."""
    dual = nef_partition.dual
    return {
        "nabla_vertices": [list(v) for v in dual.delta.vertices],
        "parts": [list(p) for p in dual.parts],
        "nabla_polar_vertices": [list(v) for v in
                                 nef_partition.sections_hull.vertices],
        "nabla_part_vertices": [[list(v) for v in poly.vertices]
                                for poly in dual.section_polytopes],
        "fan": {"dim": dual.fan.ambient_dim,
                "rays": [list(r) for r in dual.fan.rays],
                "max_cones": [list(c) for c in dual.fan.max_cones]},
    }


def cayley_cone(nef_partition):
    """Gorenstein cone sigma_Delta over the Cayley polytope of the section
    polytopes inside R^r x M_R, read from the section polytopes with no
    hull: its generators are the nonzero vertices of the Cayley pyramid,
    the (e_i, w) for w a vertex of Delta_i (each is a vertex of the face
    x_i = 1, which is e_i x Delta_i).  It is full-dimensional, r + n, since
    the Delta_i sum to the full-dimensional Delta."""
    np_ = nef_partition
    r = np_.r
    generators = sorted(tuple(1 if j == i else 0 for j in range(r)) + w
                        for i, part in enumerate(np_.section_polytopes)
                        for w in part.vertices)
    return Cone(r + np_.dim, tuple(generators), r + np_.dim)


def cayley_cone_duality_check(nef_partition):
    """dual_cone(sigma_Delta) == sigma_nabla, the reflexive Gorenstein cone
    pair of index r.  The generators of the dual cone are the inner normals
    of the Cayley pyramid's facets through the apex; sigma_nabla is the
    Cayley cone of the dual partition, whose section polytopes dualize
    asserts to be the nabla_k, read from them with no hull, so only this
    side's Cayley pyramid is hulled."""
    sigma_nabla = cayley_cone(nef_partition.dual)
    apex_normals = sorted(n for n, c in nef_partition.cayley_pyramid.facets
                          if c == 0)
    return tuple(apex_normals) == sigma_nabla.generators


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def nef_partition_from_doc(doc):
    """The NefPartition of a parsed {"delta_vertices", "parts"} document,
    as read from a file or a catalog entry; every entry must be an int."""
    try:
        vertices = [tuple(json_int(x) for x in v) for v in doc["delta_vertices"]]
        parts = [tuple(json_int(i) for i in p) for p in doc["parts"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad nef-partition JSON: {exc}") from exc
    if not vertices:
        raise InputError("empty vertex list in nef-partition JSON")
    delta = convex_hull(vertices)
    return build_nef_partition(delta, parts)


def nef_partition_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad nef-partition JSON: {exc}") from exc
    return nef_partition_from_doc(doc)
