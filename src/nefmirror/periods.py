"""GKZ A-hypergeometric data and tautological PDE systems for the
gauge-fixed double-cover families.

The GKZ matrix of a nef-partition stacks an r-row group indicator block
over the n lattice coordinates of the lattice points of its section
polytopes; the exponent beta is (-1/2,...,-1/2,0,...,0), the fractional
entries reflecting the square root in the period integrand.  The dual
family is the GKZ data of the dual nef-partition ``np.dual``, whose
section polytopes are the Minkowski parts nabla_i.

The tautological system attached to line bundles O(d_1),...,O(d_k) on
P^dim consists of one Euler operator per bundle (eigenvalue -1/2), one
symmetry operator per ordered pair of homogeneous coordinates (diagonal
constant +1), and all second-order binomial box operators between
coefficient pairs with equal bundle multiset and equal total monomial.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .errors import DomainError, InputError
from .intlin import canon_num, integer_kernel_basis
from .lattice import lattice_points


# ---------------------------------------------------------------------------
# GKZ data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GKZData:
    """Integer matrix A with fractional exponent beta.

    Rows 1..r are the group indicator block, rows r+1..r+n the lattice
    coordinates; every column is (e_i, p) for p a lattice point of the
    group-i polytope, with 0 first and the rest lexicographic."""

    A: tuple            # tuple of row tuples
    beta: tuple         # Fractions, length r + n
    column_groups: tuple  # ((group index, lattice point), ...)
    kernel_basis: tuple   # integer basis of {x : A x = 0}

    @property
    def r(self):
        return max(g for g, _ in self.column_groups) + 1

    @property
    def shape(self):
        return (len(self.A), len(self.A[0]))


def _group_columns(polytopes):
    zero = tuple(0 for _ in range(polytopes[0].ambient_dim))
    columns = []
    for i, poly in enumerate(polytopes):
        pts = lattice_points(poly)
        if zero not in pts:
            raise DomainError(f"group polytope {i} does not contain 0")
        ordered = [zero] + [p for p in pts if p != zero]
        columns.extend((i, p) for p in ordered)
    return columns


def gkz_data(partition):
    """GKZ data of the gauge-fixed family of a nef-partition, grouped by
    its section polytopes; ``gkz_data(np.dual)`` is the dual family."""
    groups = partition.section_polytopes
    r = len(groups)
    n = groups[0].ambient_dim
    columns = _group_columns(groups)
    rows = []
    for i in range(r):
        rows.append(tuple(1 if g == i else 0 for g, _ in columns))
    for coord in range(n):
        rows.append(tuple(p[coord] for _, p in columns))
    beta = tuple([Fraction(-1, 2)] * r + [Fraction(0)] * n)
    kernel = tuple(integer_kernel_basis(rows))
    return GKZData(tuple(rows), beta, tuple(columns), kernel)


def gkz_to_json(data):
    return json.dumps(
        {"A": [list(row) for row in data.A],
         "beta": [str(b) for b in data.beta],
         "groups": [{"group": g, "point": list(p)} for g, p in data.column_groups]},
        sort_keys=True)


def gkz_matrix_text(data):
    """Aligned plain-text rendering of A."""
    width = max(len(str(x)) for row in data.A for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row)
                     for row in data.A)


def gkz_equal_up_to_group_permutation(data, a_matrix, beta):
    """Compare with a stored matrix up to permutation of columns within
    each indicator group; the within-group column order is a convention,
    not an invariant."""
    if [Fraction(b) for b in beta] != list(data.beta):
        return False
    rows = [tuple(row) for row in a_matrix]
    if len(rows) != len(data.A) or any(len(r) != len(data.A[0]) for r in rows):
        return False
    r = data.r

    def grouped(matrix):
        cols = list(zip(*matrix))
        groups = {}
        for col in cols:
            indicator = col[:r]
            if sum(indicator) != 1 or any(x not in (0, 1) for x in indicator):
                return None
            groups.setdefault(indicator.index(1), []).append(col)
        return {g: sorted(v) for g, v in groups.items()}

    return grouped(rows) == grouped(data.A)


# ---------------------------------------------------------------------------
# tautological systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffVar:
    """A coefficient variable of one bundle's general section."""

    label: str
    bundle: int          # 0-based index into the degree list
    monomial: tuple      # exponent vector over homogeneous coordinates


@dataclass(frozen=True)
class DiffTerm:
    """coeff * multiplier * d(derivs...); coeff is an int when integral and
    a Fraction otherwise."""

    coeff: int | Fraction
    derivs: tuple        # sorted labels, order <= 2
    multiplier: str       # variable label or ""


@dataclass(frozen=True)
class DiffOperator:
    """Sum of terms plus a constant; terms are canonically sorted and
    nonzero, so equality is syntactic equality of normal forms.  Like the
    coefficients, the constant is an int when integral."""

    terms: tuple
    constant: int | Fraction

    def negated(self):
        return DiffOperator(
            tuple(DiffTerm(-t.coeff, t.derivs, t.multiplier) for t in self.terms),
            -self.constant)


def _exact(value):
    """An exact scalar as an int when integral, else as a Fraction."""
    return value if type(value) is int else canon_num(Fraction(value))


def make_operator(terms, constant=0):
    cleaned = []
    for c, d, m in terms:
        c = _exact(c)
        if c:
            cleaned.append(DiffTerm(c, tuple(sorted(d)), m or ""))
    cleaned.sort(key=lambda t: (t.derivs, t.multiplier, t.coeff))
    return DiffOperator(tuple(cleaned), _exact(constant))


def monomials_of_degree(degree, n_vars):
    """Exponent vectors of total degree d, ordered by (support size,
    multiset of variable indices): pure powers first, then mixed products,
    the conventional x^2, y^2, z^2, xy, xz, yz numbering for quadrics."""
    multisets = sorted(
        combinations_with_replacement(range(n_vars), degree),
        key=lambda ms: (len(set(ms)), ms))
    out = []
    for ms in multisets:
        exp = [0] * n_vars
        for i in ms:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def coefficient_variables(bundle_degrees, dim):
    """One CoeffVar per monomial per bundle.  Bundles of equal degree share
    a letter ('a' for the first distinct degree, 'b' for the next, ...);
    the label is letter + monomial index + bundle index within its class,
    giving the familiar a_ij / b_i1 names.  Two variables with one label
    (11 or more bundles and monomials in a class) are an InputError."""
    if not bundle_degrees or dim < 0:
        raise InputError("need a bundle degree and a dimension >= 0")
    n_vars = dim + 1
    letters = {}
    class_counter = {}
    by_label = {}
    for bundle, degree in enumerate(bundle_degrees):
        if degree <= 0:
            raise InputError("bundle degrees must be positive")
        if degree not in letters:
            letters[degree] = chr(ord("a") + len(letters))
        letter = letters[degree]
        class_counter[degree] = class_counter.get(degree, 0) + 1
        within = class_counter[degree]
        for m_idx, exp in enumerate(monomials_of_degree(degree, n_vars), start=1):
            var = CoeffVar(f"{letter}{m_idx}{within}", bundle, exp)
            other = by_label.setdefault(var.label, var)
            if other is not var:
                raise InputError(f"coefficient label {var.label!r} names two "
                                 f"variables: {other} and {var}")
    return list(by_label.values())


def taut_system(bundle_degrees, dim):
    """The tautological PDE system for sections of O(d_1) x ... x O(d_k)
    over P^dim: Euler, symmetry, and box operators (in that order)."""
    variables = coefficient_variables(bundle_degrees, dim)
    n_vars = dim + 1
    by_bundle = {}
    for v in variables:
        by_bundle.setdefault(v.bundle, []).append(v)

    operators = []
    # Euler operators: (sum_m c_m d/dc_m + 1/2) omega = 0, one per bundle.
    for bundle in range(len(bundle_degrees)):
        terms = [(1, (v.label,), v.label) for v in by_bundle[bundle]]
        operators.append(make_operator(terms, Fraction(1, 2)))

    # Symmetry operators from the gl(dim+1) action x_u -> x_u + eps x_v:
    # the monomial exponent m contributes m_u * c_m d/dc_{m - e_u + e_v};
    # diagonal operators carry the constant +1.
    label_of = {(v.bundle, v.monomial): v.label for v in variables}
    for u in range(n_vars):
        for v_idx in range(n_vars):
            terms = []
            for var in variables:
                mu = var.monomial[u]
                if mu == 0:
                    continue
                target = list(var.monomial)
                target[u] -= 1
                target[v_idx] += 1
                terms.append((mu, (label_of[(var.bundle, tuple(target))],),
                              var.label))
            operators.append(make_operator(terms, 1 if u == v_idx else 0))

    # Box operators: all binomial relations between unordered coefficient
    # pairs with equal bundle multiset and equal total monomial.  Each is
    # built directly in make_operator's normal form: the pairs are sorted
    # label tuples, distinct and ascending within a bucket, so d(p1) - d(p2)
    # has its terms in canonical order.  The +1 and -1 term of each pair is
    # built once and shared by every operator that uses the pair.
    buckets = {}
    for v1, v2 in combinations_with_replacement(variables, 2):
        key = (tuple(sorted((v1.bundle, v2.bundle))),
               tuple(a + b for a, b in zip(v1.monomial, v2.monomial)))
        buckets.setdefault(key, []).append(tuple(sorted((v1.label, v2.label))))
    for key in sorted(buckets):
        pairs = sorted(set(buckets[key]))
        terms = [(DiffTerm(1, p, ""), DiffTerm(-1, p, "")) for p in pairs]
        for (plus, _), (_, minus) in combinations(terms, 2):
            operators.append(DiffOperator((plus, minus), 0))
    return operators


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _term_text(coeff, term):
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


def serialize_operator(op):
    chunks = []
    for term in op.terms:
        if term.coeff < 0:
            chunks.append(("-", _term_text(-term.coeff, term)))
        else:
            chunks.append(("+", _term_text(term.coeff, term)))
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


def serialize_operators(operators):
    """One operator per line, canonical term order; round-trips through
    parse_operators."""
    return "\n".join(serialize_operator(op) for op in operators)


def _parse_term(text):
    coeff = Fraction(1)
    derivs = []
    multiplier = ""
    for factor in text.split("*"):
        factor = factor.strip()
        if factor.startswith("d(") and factor.endswith(")"):
            derivs.append(factor[2:-1])
        elif factor and (factor[0].isdigit() or factor[0] in "+-"):
            coeff *= Fraction(factor)
        elif factor:
            if multiplier:
                raise InputError(f"two multipliers in term {text!r}")
            multiplier = factor
    return coeff, tuple(derivs), multiplier


def parse_operator(line):
    line = line.strip()
    if line == "0":
        return make_operator([])
    tokens = line.replace(" - ", " + -").split(" + ")
    terms = []
    constant = Fraction(0)
    for token in tokens:
        token = token.strip()
        neg = token.startswith("-")
        if neg:
            token = token[1:].strip()
        coeff, derivs, multiplier = _parse_term(token)
        if neg:
            coeff = -coeff
        if not derivs and not multiplier:
            constant += coeff
        else:
            terms.append((coeff, derivs, multiplier))
    return make_operator(terms, constant)


def parse_operators(text):
    return [parse_operator(line) for line in text.splitlines() if line.strip()]


def operators_contain(generated, wanted):
    """Containment test used by the golden checks: every wanted operator
    appears among the generated ones, up to overall sign."""
    pool = set(generated)
    return all(op in pool or op.negated() in pool for op in wanted)
