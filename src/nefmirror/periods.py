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
``taut_text`` generates it, as the text that the ``tautgen`` command
writes: the Euler and symmetry operators are built by ``make_operator``
and rendered by ``serialize_operator``, and each box line d(p_i) - d(p_j),
nearly all of a large system, is joined from the pairs' labels with no
operator built.  ``parse_operators`` reads the text back as
``DiffOperator``s in the same normal form.  ``GKZData``, ``CoeffVar``,
``DiffTerm`` and ``DiffOperator`` are immutable named tuples with
read-only fields.
"""
from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from operator import add

from .errors import DomainError, InputError
from .intlin import integer_kernel_basis
from .lattice import lattice_points


# ---------------------------------------------------------------------------
# GKZ data
# ---------------------------------------------------------------------------

class GKZData(namedtuple("GKZData", "A beta column_groups")):
    """Integer matrix A (a tuple of row tuples) with fractional exponent
    beta (Fractions, length r + n).

    Rows 1..r are the group indicator block, rows r+1..r+n the lattice
    coordinates; every column is (e_i, p) for p a lattice point of the
    group-i polytope, with 0 first and the rest lexicographic, and
    ``column_groups`` lists them as ((group index, lattice point), ...).
    The integer kernel basis of A is computed on its first read: no output
    prints it, and, a function of A, it takes no part in equality."""

    @cached_property
    def kernel_basis(self):
        """Sorted integer basis of {x : A x = 0}."""
        return tuple(integer_kernel_basis(self.A))

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
    its section polytopes; ``gkz_data(np.dual)`` is the dual family.  The
    kernel basis is left to the first read of ``kernel_basis``."""
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
    return GKZData(tuple(rows), beta, tuple(columns))


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

class CoeffVar(namedtuple("CoeffVar", "label bundle monomial")):
    """A coefficient variable of one bundle's general section: ``bundle``
    is a 0-based index into the degree list and ``monomial`` an exponent
    vector over the homogeneous coordinates."""

    __slots__ = ()


class DiffTerm(namedtuple("DiffTerm", "coeff derivs multiplier")):
    """coeff * multiplier * d(derivs...); coeff is an int when integral and
    a Fraction otherwise, derivs are sorted labels (order <= 2) and the
    multiplier is a variable label or ""."""

    __slots__ = ()


class DiffOperator(namedtuple("DiffOperator", "terms constant")):
    """Sum of terms plus a constant; terms are canonically sorted,
    nonzero and distinct in (derivs, multiplier), so equality is
    syntactic equality of normal forms.  Like the
    coefficients, the constant is an int when integral."""

    __slots__ = ()

    def negated(self):
        return DiffOperator(
            tuple(DiffTerm(-t.coeff, t.derivs, t.multiplier) for t in self.terms),
            -self.constant)


def _exact(value):
    """An exact scalar as an int when integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


def make_operator(terms, constant=0):
    """The normal form of the operator with ``terms`` (coeff, derivs,
    multiplier) and ``constant``: the coefficients of terms with equal
    sorted derivs and multiplier are summed, zero sums are dropped, and
    the terms are sorted by (derivs, multiplier)."""
    sums = {}
    for c, d, m in terms:
        key = (tuple(sorted(d)), m or "")
        sums[key] = sums.get(key, 0) + _exact(c)
    cleaned = []
    for (derivs, multiplier), c in sorted(sums.items()):
        c = _exact(c)
        if c:
            cleaned.append(DiffTerm(c, derivs, multiplier))
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


def taut_text(bundle_degrees, dim):
    """An iterator over the text of the tautological PDE system for
    sections of O(d_1) x ... x O(d_k) over P^dim: one line per operator,
    Euler, symmetry and box operators in that order, each line ending in a
    newline, in chunks of whole lines.  The degrees are checked here, at
    the call.  The Euler and symmetry operators are rendered by
    ``serialize_operator``; the box operators, nearly all of the text, are
    written from their coefficient labels, one chunk per pair of a bucket,
    with no operator built."""
    variables = coefficient_variables(bundle_degrees, dim)
    return _taut_chunks(variables, len(bundle_degrees), dim + 1)


def _box_buckets(variables):
    """The sorted label pairs of each bucket of unordered coefficient pairs
    with equal bundle multiset and equal total monomial, in key order.
    ``variables`` is ordered by bundle, so v1.bundle <= v2.bundle and the
    flat key sorts as (bundle multiset, monomial)."""
    buckets = {}
    # plain (label, bundle, monomial) tuples: over the n^2 / 2 pairs,
    # unpacking them costs less than reading six named fields
    pairs = combinations_with_replacement(map(tuple, variables), 2)
    for (a, i, m1), (b, j, m2) in pairs:
        key = (i, j, *map(add, m1, m2))
        buckets.setdefault(key, []).append((a, b) if a <= b else (b, a))
    for key in sorted(buckets):
        yield sorted(buckets[key])


def _taut_chunks(variables, n_bundles, n_vars):
    by_bundle = {}
    for v in variables:
        by_bundle.setdefault(v.bundle, []).append(v)

    # Euler operators: (sum_m c_m d/dc_m + 1/2) omega = 0, one per bundle.
    for bundle in range(n_bundles):
        terms = [(1, (v.label,), v.label) for v in by_bundle[bundle]]
        yield serialize_operator(make_operator(terms, Fraction(1, 2))) + "\n"

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
            op = make_operator(terms, 1 if u == v_idx else 0)
            yield serialize_operator(op) + "\n"

    # Box operators: all binomial relations d(p_i) - d(p_j), i < j, within
    # a bucket.  The pairs are distinct and ascending, so the line of
    # d(p_i) - d(p_j) is t_i + " - " + t_j, t = d(x)*d(y), as
    # serialize_operator renders the normal form.  The lines of one p_i
    # make one chunk: with head = t_i + " - " and l = t + "\n",
    # head + head.join(l_(i+1), l_(i+2), ...) is head + l_(i+1) + head +
    # l_(i+2) + ..., joined in one call.
    for pairs in _box_buckets(variables):
        texts = ["d(" + ")*d(".join(p) + ")" for p in pairs]
        lines = [t + "\n" for t in texts]
        for i, t in enumerate(texts[:-1]):
            head = t + " - "
            yield head + head.join(lines[i + 1:])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _term_text(term):
    """The term's signed text, " + t" or " - t": t is |coeff| (left out
    when it is 1), the multiplier and one d(x) per derivative, joined by
    "*", or "1" when there are none."""
    magnitude = abs(term.coeff)
    factors = [] if magnitude == 1 else [str(magnitude)]
    if term.multiplier:
        factors.append(term.multiplier)
    if term.derivs:
        factors.append("d(" + ")*d(".join(term.derivs) + ")")
    return (" - " if term.coeff < 0 else " + ") + ("*".join(factors) or "1")


def serialize_operator(op):
    """The operator's line: its terms' texts joined, then the signed
    constant, with the leading " + " dropped or " - " made "-"; "0" when
    there is neither a term nor a constant."""
    text = "".join(map(_term_text, op.terms))
    constant = op.constant
    if constant:
        text += f" - {-constant}" if constant < 0 else f" + {constant}"
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def serialize_operators(operators):
    """One operator per line, canonical term order; round-trips through
    parse_operators."""
    return "\n".join(map(serialize_operator, operators))


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
