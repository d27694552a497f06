"""Nef-partitions and the Batyrev-Borisov duality construction.

A nef-partition on a reflexive polytope Delta is a partition of the rays
of its normal fan such that each partial divisor sum E_s is nef; it
induces the Minkowski decomposition Delta = Delta_1 + ... + Delta_r into
section polytopes.  The dual side sets nabla_k = Conv({0} u I_k); their
Minkowski sum nabla is reflexive with polar Conv(Delta_1, ..., Delta_r),
and carries the dual nef-partition.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import ConsistencyError, InputError, SmoothnessError
from .lattice import (
    convex_hull,
    dual_cone,
    is_reflexive,
    lattice_points,
    make_cone,
    minkowski_sum_all,
    normalized_volume,
    polar_dual,
)
from .toric import (
    ToricDivisor,
    divisor_polytope,
    hodge_numbers_smooth_toric,
    is_nef,
    mpcp_fan,
    normal_fan,
)


@dataclass(frozen=True)
class NefPartition:
    """A reflexive polytope with a nef ray partition and the derived
    section polytopes (in the order of the parts).

    The Batyrev-Borisov dual (``dual``) and the MPCP side (``mpcp``) are
    computed on first read and kept on the object; equality and hashing
    use the four fields only."""

    delta: object
    fan: object            # normal fan of delta
    parts: tuple           # tuple of sorted ray-index tuples
    section_polytopes: tuple

    @property
    def r(self):
        return len(self.parts)

    @property
    def dim(self):
        return self.delta.ambient_dim

    @cached_property
    def dual(self):
        """The DualNefPartition of this partition: ``dualize(self)``."""
        return dualize(self)

    @cached_property
    def mpcp(self):
        """(fan, h_vector) of the MPCP desingularization of P_delta.  Its
        Euler characteristic, the maximal-cone count, is cross-checked
        against the polar volume and the h-vector sum."""
        fan, unimodular = mpcp_fan(self.delta)
        if not unimodular:
            raise SmoothnessError(
                "MPCP fan is not unimodular; the smoothness assumption fails")
        if len(fan.max_cones) != normalized_volume(polar_dual(self.delta)):
            raise ConsistencyError("maximal-cone count disagrees with polar volume")
        h_vector, _chi = hodge_numbers_smooth_toric(fan)
        return fan, h_vector

    def __repr__(self):
        return f"NefPartition(dim={self.dim}, r={self.r}, parts={self.parts})"


@dataclass(frozen=True)
class DualNefPartition:
    """Batyrev-Borisov dual: nabla with its Minkowski parts, its polar
    Conv(Delta_1,...,Delta_r), and the induced NefPartition on nabla."""

    nef_partition: NefPartition     # partition on nabla
    nabla: object
    nabla_parts: tuple              # the polytopes nabla_k
    nabla_polar: object             # Conv(Delta_1,...,Delta_r) = nabla^dual


def part_divisor(fan, part):
    coeffs = tuple(1 if i in part else 0 for i in range(len(fan.rays)))
    return ToricDivisor(fan, coeffs)


def build_nef_partition(polytope, parts):
    """Validate a ray partition on a reflexive polytope and compute the
    section polytopes.  Rejects non-nef parts by name; a Minkowski-sum
    mismatch is an internal consistency error (it is a theorem)."""
    if not is_reflexive(polytope):
        raise InputError("nef-partitions need a reflexive polytope")
    fan = normal_fan(polytope)
    n_rays = len(fan.rays)
    seen = []
    for part in parts:
        seen.extend(part)
    if sorted(seen) != list(range(n_rays)):
        raise InputError("parts must partition the ray set "
                         f"{{0,...,{n_rays - 1}}}")
    parts = tuple(tuple(sorted(part)) for part in parts)
    sections = []
    for s, part in enumerate(parts):
        divisor = part_divisor(fan, part)
        if not is_nef(divisor):
            raise InputError(f"part {s} is not nef: E_{s} has non-convex or "
                             "non-integral Cartier data")
        sections.append(divisor_polytope(divisor))
    total = minkowski_sum_all(sections)
    if total != polytope:
        raise ConsistencyError("section polytopes do not Minkowski-sum to Delta")
    return NefPartition(polytope, fan, parts, tuple(sections))


def _assign_rays_to_parts(rays, part_polytopes):
    """Assign each ray to the unique part polytope containing it; ties and
    misses are internal errors (they cannot occur for a genuine dual
    nef-partition)."""
    assignment = []
    for ray in rays:
        hits = [k for k, poly in enumerate(part_polytopes) if poly.contains(ray)]
        if len(hits) != 1:
            raise ConsistencyError(
                f"ray {ray} lies in {len(hits)} part polytopes; expected exactly 1")
        assignment.append(hits[0])
    return assignment


def dualize(nef_partition):
    """Batyrev-Borisov dual nef-partition: nabla_k = Conv({0} u I_k),
    nabla = sum nabla_k.  Asserts reflexivity of nabla and the polar
    identity nabla^dual = Conv(Delta_1,...,Delta_r); both are theorems and
    failures surface loudly."""
    np_ = nef_partition
    fan = np_.fan
    n = np_.dim
    zero = tuple(0 for _ in range(n))
    nabla_parts = []
    for part in np_.parts:
        pts = [zero] + [fan.rays[i] for i in part]
        nabla_parts.append(convex_hull(pts))
    nabla = minkowski_sum_all(nabla_parts)
    if not is_reflexive(nabla):
        raise ConsistencyError("dual polytope nabla is not reflexive")
    nabla_polar = convex_hull([v for p in np_.section_polytopes for v in p.vertices])
    if polar_dual(nabla) != nabla_polar:
        raise ConsistencyError("polar of nabla differs from Conv(Delta_i)")

    dual_fan = normal_fan(nabla)
    assignment = _assign_rays_to_parts(dual_fan.rays, np_.section_polytopes)
    dual_parts = tuple(tuple(i for i, k in enumerate(assignment) if k == s)
                       for s in range(np_.r))
    dual_np = build_nef_partition(nabla, dual_parts)
    for k, (section, part_poly) in enumerate(
            zip(dual_np.section_polytopes, nabla_parts)):
        if section != part_poly:
            raise ConsistencyError(
                f"dual section polytope {k} differs from nabla_{k}")
    return DualNefPartition(dual_np, nabla, tuple(nabla_parts), nabla_polar)


def double_dual_check(nef_partition):
    """Dualize twice and compare with the original (polytope, parts)."""
    dual = dualize(nef_partition)
    double = dualize(dual.nef_partition)
    back = double.nef_partition
    return (back.delta == nef_partition.delta
            and back.parts == nef_partition.parts)


def cayley_cone(nef_partition):
    """Gorenstein cone over the Cayley polytope of the section polytopes:
    generated by (e_i, w) for w a vertex of Delta_i, inside R^r x M_R."""
    np_ = nef_partition
    r = np_.r
    gens = []
    for i, poly in enumerate(np_.section_polytopes):
        e = tuple(1 if j == i else 0 for j in range(r))
        gens.extend(e + v for v in poly.vertices)
    return make_cone(gens)


def cayley_cone_duality_check(nef_partition):
    """dual_cone(sigma_Delta) == sigma_nabla, the reflexive Gorenstein cone
    pair of index r.  sigma_nabla is the Cayley cone of the dual partition,
    whose section polytopes dualize asserts to be the nabla_k."""
    sigma_nabla = cayley_cone(nef_partition.dual.nef_partition)
    return dual_cone(cayley_cone(nef_partition)) == sigma_nabla


def s_polytope(nef_partition):
    """S = Conv({0} u e_i x (Delta_i cap M)): its normalized volume equals
    the normalized volume of Conv(Delta_1,...,Delta_r)."""
    np_ = nef_partition
    r = np_.r
    n = np_.dim
    pts = [tuple(0 for _ in range(r + n))]
    for i, poly in enumerate(np_.section_polytopes):
        e = tuple(1 if j == i else 0 for j in range(r))
        pts.extend(e + q for q in lattice_points(poly))
    return convex_hull(pts)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def nef_partition_to_json(nef_partition):
    """{"delta_vertices": [...], "parts": [[ray indices]...]}; ray indices
    refer to the canonical (lex-sorted) ray order of the normal fan."""
    return json.dumps(
        {"delta_vertices": [list(v) for v in nef_partition.delta.vertices],
         "parts": [list(p) for p in nef_partition.parts]},
        sort_keys=True)


def nef_partition_from_json(text):
    try:
        doc = json.loads(text)
        vertices = [tuple(int(x) for x in v) for v in doc["delta_vertices"]]
        parts = [tuple(int(i) for i in p) for p in doc["parts"]]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"bad nef-partition JSON: {exc}") from exc
    if not vertices:
        raise InputError("empty vertex list in nef-partition JSON")
    delta = convex_hull(vertices)
    return build_nef_partition(delta, parts)
