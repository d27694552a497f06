"""Seeded inputs, operations and exact outcome checks for the three workloads.

Every input polytope gets its own small unimodular change of coordinates
g in GL(n, Z), drawn from the workload seed.  Seed 0 is the identity.
Polytopes of the nef-partitions live in M and are mapped by g; rays,
nabla and its parts live in the dual lattice N and are mapped by g^{-T}.
Ray indices (the "parts" of a nef-partition, the coefficients of a
divisor) follow the program's lex-sorted ray order, so they are relabelled
after the rays move.  Everything the checks compare is either invariant
under GL(n, Z) or transformed along with its input.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def projective_delta(n):
    """Vertices of the anticanonical polytope of P^n."""
    verts = []
    for i in range(n):
        verts.append(tuple(n if j == i else -1 for j in range(n)))
    verts.append(tuple(-1 for _ in range(n)))
    return verts


P4 = projective_delta(4)
NON_UNIMODULAR_4D = [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1),
                     (1, 1, 2, 1), (-1, -1, -1, -2)]

# Input nef-partitions written to files; parts are ray indices at seed 0.
FILE_INPUTS = {
    "p4-2parts": (P4, [[0, 1], [2, 3, 4]]),
    "p4-5parts": (P4, [[0], [1], [2], [3], [4]]),
    "p4-1part": (P4, [[0, 1, 2, 3, 4]]),
    "nonunimodular-4d": (NON_UNIMODULAR_4D, [[0, 1, 2, 3, 4]]),
}

# One op is one CLI command; "{in:NAME}" becomes the path of an input file.
WORKLOADS = {
    "catalog": [
        ("catalog", ["catalog"]),
    ],
    "fourfold": [
        ("inv-p4-2parts", ["invariants", "--input", "{in:p4-2parts}"]),
        ("inv-p4-5parts", ["invariants", "--input", "{in:p4-5parts}"]),
        ("inv-nonunimodular-4d",
         ["invariants", "--input", "{in:nonunimodular-4d}"]),
    ],
    "periods": [
        ("taut-5-p4", ["tautgen", "--degrees", "5", "--dim", "4"]),
        ("taut-6-p3", ["tautgen", "--degrees", "6", "--dim", "3"]),
        ("taut-33-p4", ["tautgen", "--degrees", "3,3", "--dim", "4"]),
        ("taut-11112-check",
         ["tautgen", "--degrees", "1,1,1,1,2", "--dim", "2", "--check"]),
        ("gkz-p4-1part", ["gkz", "--input", "{in:p4-1part}", "--side", "primal"]),
        ("gkz-p4-2parts",
         ["gkz", "--input", "{in:p4-2parts}", "--side", "primal"]),
        ("gkz-p2-triple-dual-check",
         ["gkz", "--input", "p2-triple", "--side", "dual", "--check"]),
        ("gkz-p2-3-12-primal-check",
         ["gkz", "--input", "p2-(3)(12)", "--side", "primal", "--check"]),
    ],
}

# The GKZ ops whose output is coordinate-dependent: op -> (input, lattice).
# "M" outputs move by g, "N" outputs by g^{-T}; seed 0 output is stored.
GKZ_OPS = {
    "gkz-p4-1part": ("p4-1part", "M"),
    "gkz-p4-2parts": ("p4-2parts", "M"),
    "gkz-p2-triple-dual-check": ("catalog:p2-triple", "N"),
    "gkz-p2-3-12-primal-check": ("catalog:p2-(3)(12)", "M"),
}


# ---------------------------------------------------------------------------
# exact integer linear algebra for the coordinate changes
# ---------------------------------------------------------------------------

def inverse(g):
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(g)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(g)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [x / scale for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def transpose(g):
    return [list(col) for col in zip(*g)]


def as_int_matrix(g):
    if any(x.denominator != 1 for row in g for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in g]


def apply(g, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in g)


def random_unimodular(n, rng):
    """A signed permutation followed by one elementary shear with
    coefficient +-1: small, so costs stay close to those at seed 0."""
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        g[i][j] = rng.choice((-1, 1))
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


class Coordinates:
    """The change of coordinates of one input polytope: g on M, g^{-T} on N."""

    def __init__(self, g):
        self.g = g
        self.g_dual = as_int_matrix(transpose(inverse(g)))

    @classmethod
    def draw(cls, n, seed, name):
        if seed == 0:
            return cls([[int(i == j) for j in range(n)] for i in range(n)])
        rng = random.Random(f"nefmirror-bench:{seed}:{name}")
        return cls(random_unimodular(n, rng))

    def on_m(self, v):
        return apply(self.g, v)

    def on_n(self, v):
        return apply(self.g_dual, v)


def simplex_rays(vertices):
    """Inner facet normals (rays of the normal fan) of a reflexive simplex,
    lex-sorted as the program sorts them: the ray of the facet missing
    vertex k solves <u, v> = -1 on the other vertices."""
    rays = []
    for k in range(len(vertices)):
        facet = [v for i, v in enumerate(vertices) if i != k]
        u = apply(inverse(facet), [-1] * len(facet))
        rays.append(tuple(int(x) for x in u))
    return sorted(rays)


def relabel_rays(vertices, coords):
    """Map from ray index at seed 0 to ray index after the change."""
    rays = simplex_rays(vertices)
    moved = [coords.on_n(r) for r in rays]
    order = sorted(moved)
    return [order.index(m) for m in moved]


def transform_nef_partition(vertices, parts, coords):
    relabel = relabel_rays(vertices, coords)
    return {"delta_vertices": [list(coords.on_m(v)) for v in vertices],
            "parts": [sorted(relabel[i] for i in part) for part in parts]}


def transform_gkz_golden(golden, coords, lattice):
    """Move the coordinate rows of a GKZ matrix; the group rows stay."""
    a = [list(row) for row in golden["A"]]
    r = len(golden["beta"]) - len(coords.g)
    g = coords.g if lattice == "M" else coords.g_dual
    columns = list(zip(*a[r:]))
    moved = [apply(g, c) for c in columns]
    return {"A": a[:r] + [list(row) for row in zip(*moved)],
            "beta": list(golden["beta"])}


def transform_catalog(doc, seed):
    """The packaged catalog with every entry moved by its own coordinates,
    and its coordinate-dependent goldens moved with it."""
    out = json.loads(json.dumps(doc))
    for entry in out["entries"]:
        npd = entry["nef_partition"]
        verts = [tuple(v) for v in npd["delta_vertices"]]
        coords = Coordinates.draw(len(verts[0]), seed, "catalog:" + entry["name"])
        entry["nef_partition"] = transform_nef_partition(verts, npd["parts"],
                                                         coords)
        expected = entry.get("expected", {})
        if "nabla_vertices" in expected:
            expected["nabla_vertices"] = sorted(
                list(coords.on_n(v)) for v in expected["nabla_vertices"])
        if "dual_fan_rays" in expected:
            expected["dual_fan_rays"] = sorted(
                list(coords.on_m(v)) for v in expected["dual_fan_rays"])
        for side, golden in expected.get("gkz", {}).items():
            lattice = "M" if side == "primal" else "N"
            expected["gkz"][side] = transform_gkz_golden(golden, coords, lattice)
    bundle = out.get("bundle_example")
    if bundle:
        verts = [tuple(v) for v in bundle["delta_vertices"]]
        coords = Coordinates.draw(len(verts[0]), seed, "bundle:" + bundle["name"])
        relabel = relabel_rays(verts, coords)
        coeffs = [0] * len(bundle["bundle_coeffs"])
        for i, c in enumerate(bundle["bundle_coeffs"]):
            coeffs[relabel[i]] = c
        bundle["delta_vertices"] = [list(coords.on_m(v)) for v in verts]
        bundle["bundle_coeffs"] = coeffs
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

class Inputs:
    """The seeded input files of one run, and the coordinates behind them."""

    def __init__(self, seed, workdir, packaged_catalog):
        self.seed = seed
        self.workdir = workdir
        self.paths = {}
        self.coords = {}
        with open(packaged_catalog, encoding="utf-8") as handle:
            self.packaged = json.load(handle)
        self.catalog_path = os.path.join(workdir, "catalog.json")
        for name, (verts, _parts) in FILE_INPUTS.items():
            self.coords[name] = Coordinates.draw(len(verts[0]), seed, name)
            self.paths[name] = os.path.join(workdir, name + ".json")
        for entry in self.packaged["entries"]:
            n = len(entry["nef_partition"]["delta_vertices"][0])
            key = "catalog:" + entry["name"]
            self.coords[key] = Coordinates.draw(n, seed, key)

    def write(self):
        os.makedirs(self.workdir, exist_ok=True)
        _write_json(self.catalog_path, transform_catalog(self.packaged, self.seed))
        for name, (verts, parts) in FILE_INPUTS.items():
            _write_json(self.paths[name],
                        transform_nef_partition(verts, parts, self.coords[name]))

    def argv(self, template, output):
        out = []
        for arg in template:
            if arg.startswith("{in:"):
                arg = self.paths[arg[4:-1]]
            out.append(arg)
        return out + ["--output", output]


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)


# ---------------------------------------------------------------------------
# expected outcomes
# ---------------------------------------------------------------------------

def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _grouped_columns(a_matrix, r):
    groups = {}
    for col in zip(*a_matrix):
        groups.setdefault(col[:r].index(1), []).append(tuple(col))
    return {g: sorted(cols) for g, cols in groups.items()}


def _check_gkz(doc, want, coords, lattice):
    """GKZ output against the seed-0 output moved by the same coordinates."""
    moved = transform_gkz_golden(want, coords, lattice)
    r = len(want["beta"]) - len(coords.g)
    problems = []
    if doc.get("beta") != want["beta"]:
        problems.append("beta differs")
    if _grouped_columns(doc["A"], r) != _grouped_columns(moved["A"], r):
        problems.append("A differs up to column order within groups")
    columns = [tuple(c) for c in zip(*doc["A"])]
    listed = [tuple([int(i == g["group"]) for i in range(r)] + g["point"])
              for g in doc["groups"]]
    if listed != columns:
        problems.append("groups do not list the columns of A")
    zero = [0] * len(coords.g)
    firsts = {}
    for g in doc["groups"]:
        firsts.setdefault(g["group"], g["point"])
    if any(p != zero for p in firsts.values()):
        problems.append("a group does not start at the origin")
    return problems


def check_outcome(op, code, stderr_text, output, want, inputs):
    """Compare one op's exit code, error kind and output with its expected
    outcome.  Returns a list of problems; empty means the outcome is the
    expected one."""
    problems = []
    if code != want["exit"]:
        problems.append(f"exit {code}, expected {want['exit']}")
        return problems
    if want["exit"] != 0:
        try:
            kind = json.loads(stderr_text.strip().splitlines()[-1])["error"]
        except (ValueError, IndexError, KeyError, TypeError):
            kind = None
        if kind != want["error"]:
            problems.append(f"error kind {kind!r}, expected {want['error']!r}")
        return problems
    if output is None:
        return ["no output written"]
    digest = sha256(output)
    seed_free = op not in GKZ_OPS
    if "sha256" in want and (seed_free or inputs.seed == 0) \
            and digest != want["sha256"]:
        problems.append("output bytes differ from the seed-0 output")
    text = output.decode("utf-8")
    if "fields" in want:
        doc = json.loads(text)
        for key, value in want["fields"].items():
            if doc.get(key) != value:
                problems.append(f"{key}: got {doc.get(key)!r}, expected {value!r}")
    if "lines" in want and text.count("\n") != want["lines"]:
        problems.append(f"{text.count(chr(10))} lines, expected {want['lines']}")
    if "last_line" in want and text.rstrip("\n").splitlines()[-1] != want["last_line"]:
        problems.append("last line differs")
    if op in GKZ_OPS:
        source, lattice = GKZ_OPS[op]
        problems.extend(_check_gkz(json.loads(text), want["gkz"],
                                   inputs.coords[source], lattice))
    return problems
