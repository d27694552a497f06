"""GKZ data and tautological PDE systems."""
import hashlib
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import P2_DELTA, serialize_by_parts, taut_operators
from nefmirror import catalog
from nefmirror.catalog import check_taut_golden, golden_taut_operators
from nefmirror.errors import DomainError, GoldenMismatchError, InputError
from nefmirror.lattice import convex_hull
from nefmirror.nefpart import build_nef_partition, dualize
from nefmirror.periods import (
    DiffOperator,
    DiffTerm,
    coefficient_variables,
    gkz_data,
    gkz_equal_up_to_group_permutation,
    gkz_matrix_text,
    gkz_to_json,
    make_operator,
    monomials_of_degree,
    parse_operator,
    parse_operators,
    serialize_operator,
    serialize_operators,
    taut_text,
)

DELTA = convex_hull(P2_DELTA)
TRIPLE = build_nef_partition(DELTA, [[2], [1], [0]])
SPLIT_3_12 = build_nef_partition(DELTA, [[0], [2, 1]])

GOLDEN_5X6 = [
    [1, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 0, -1],
    [0, 0, 0, 1, 0, -1],
]
GOLDEN_4X9 = [
    [1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 0, -1, -1, -1, 0, 1],
    [0, 0, 1, 0, 1, 0, -1, -1, -1],
]


# ---------------------------------------------------------------------------
# GKZ data
# ---------------------------------------------------------------------------

def test_gkz_dual_triple_matches_golden():
    data = gkz_data(TRIPLE.dual)
    assert data.shape == (5, 6)
    assert data.beta == (Fraction(-1, 2),) * 3 + (Fraction(0),) * 2
    assert gkz_equal_up_to_group_permutation(
        data, GOLDEN_5X6, ["-1/2", "-1/2", "-1/2", "0", "0"])
    # here even the column order coincides with the golden matrix
    assert [list(row) for row in data.A] == GOLDEN_5X6


def test_gkz_dual_triple_groups_are_zero_and_ray():
    data = gkz_data(TRIPLE.dual)
    groups = {}
    for g, p in data.column_groups:
        groups.setdefault(g, []).append(p)
    assert groups[0] == [(0, 0), (1, 0)]
    assert groups[1] == [(0, 0), (0, 1)]
    assert groups[2] == [(0, 0), (-1, -1)]


def test_gkz_primal_4x9_matches_golden():
    data = gkz_data(SPLIT_3_12)
    assert data.shape == (4, 9)
    assert gkz_equal_up_to_group_permutation(
        data, GOLDEN_4X9, ["-1/2", "-1/2", "0", "0"])


def test_gkz_primal_triple_is_5x9():
    data = gkz_data(TRIPLE)
    assert data.shape == (5, 9)
    assert data.beta == (Fraction(-1, 2),) * 3 + (Fraction(0),) * 2


def test_gkz_legendre():
    seg = convex_hull([(-1,), (1,)])
    np_ = build_nef_partition(seg, [[0, 1]])
    data = gkz_data(np_)
    assert data.shape == (2, 3)
    assert data.A[0] == (1, 1, 1)
    assert set(data.A[1]) == {0, -1, 1}
    assert data.beta == (Fraction(-1, 2), Fraction(0))


def test_gkz_accepts_dual_object():
    assert gkz_data(dualize(TRIPLE)) == gkz_data(TRIPLE.dual)


def test_gkz_kernel_and_rank():
    for data in (gkz_data(TRIPLE.dual),
                 gkz_data(SPLIT_3_12),
                 gkz_data(TRIPLE)):
        for v in data.kernel_basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0
                       for row in data.A)
        rows, cols = data.shape
        assert len(data.kernel_basis) == cols - rows  # full row rank
        # beta-compatibility: indicator rows sum to the group sizes
        sizes = {}
        for g, _ in data.column_groups:
            sizes[g] = sizes.get(g, 0) + 1
        for i in range(data.r):
            assert sum(data.A[i]) == sizes[i]


def test_gkz_comparison_rejects_wrong_matrix():
    data = gkz_data(TRIPLE.dual)
    wrong = [list(row) for row in GOLDEN_5X6]
    wrong[3][1] = 5
    assert not gkz_equal_up_to_group_permutation(
        data, wrong, ["-1/2", "-1/2", "-1/2", "0", "0"])
    assert not gkz_equal_up_to_group_permutation(
        data, GOLDEN_5X6, ["-1/2", "-1/2", "-1/2", "0", "-1/2"])


def test_gkz_requires_zero_in_groups():
    # a shifted reflexive polytope is rejected upstream, so exercise the
    # zero check directly through a squeezed fake partition
    from nefmirror.nefpart import NefPartition
    shifted = convex_hull([(1, 0), (2, 0), (1, 1)])
    fake = NefPartition(DELTA, TRIPLE.fan, ((0, 1, 2),), (shifted,))
    with pytest.raises(DomainError):
        gkz_data(fake)


def test_gkz_text_and_json():
    data = gkz_data(TRIPLE.dual)
    text = gkz_matrix_text(data)
    assert text.splitlines()[0].split() == ["1", "1", "0", "0", "0", "0"]
    assert '"beta": ["-1/2", "-1/2", "-1/2", "0", "0"]' in gkz_to_json(data)


# ---------------------------------------------------------------------------
# tautological systems
# ---------------------------------------------------------------------------

def test_monomial_order_quadric_convention():
    assert monomials_of_degree(1, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomials_of_degree(2, 3) == [
        (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_variable_labels():
    labels = [v.label for v in coefficient_variables([1, 1, 1, 1, 2], 2)]
    assert labels[:3] == ["a11", "a21", "a31"]
    assert labels[3:6] == ["a12", "a22", "a32"]
    assert labels[-6:] == ["b11", "b21", "b31", "b41", "b51", "b61"]


def test_variable_labels_must_be_unique():
    # monomial 11 of bundle 1 and monomial 1 of bundle 11 both read a111
    with pytest.raises(InputError, match="a111") as exc:
        coefficient_variables([1] * 11, 10)
    assert "bundle=0" in str(exc.value) and "bundle=10" in str(exc.value)
    # ten bundles stay unambiguous at the same dimension
    assert len({v.label for v in coefficient_variables([1] * 10, 10)}) == 110


def test_taut_system_counts():
    ops = taut_operators([1, 1, 1, 1, 2], 2)
    euler, symmetry, box = ops[:5], ops[5:14], ops[14:]
    assert len(euler) == 5
    assert len(symmetry) == 9 == (2 + 1) ** 2
    assert len(box) == 60  # 18 a-a minors, 6 b-b, 36 mixed


def test_taut_euler_rendering():
    ops = taut_operators([1, 1, 1, 1, 2], 2)
    assert serialize_operator(ops[0]) == \
        "a11*d(a11) + a21*d(a21) + a31*d(a31) + 1/2"


def test_taut_diagonal_symmetry_constant():
    ops = taut_operators([1, 1, 1, 1, 2], 2)
    symmetry = ops[5:14]
    diagonal = [op for op in symmetry if op.constant == 1]
    assert len(diagonal) == 3  # one per homogeneous coordinate


def test_taut_contains_golden_operators():
    generated = set(taut_operators([1, 1, 1, 1, 2], 2))
    golden = golden_taut_operators()
    assert len(golden) == 45  # 5 euler + 9 symmetry + 18 + 6 + 7 box
    # euler and symmetry match exactly, box operators up to sign
    assert set(golden[:14]) <= generated
    assert all(op in generated or op.negated() in generated
               for op in golden[14:])
    check_taut_golden(taut_text([1, 1, 1, 1, 2], 2))


def test_taut_golden_check_rejects_a_negated_euler_operator(monkeypatch):
    """Only a box operator may match up to sign: a golden Euler operator
    that the system holds only negated is a mismatch."""
    golden = golden_taut_operators()
    negated = [golden[0].negated()] + golden[1:]
    monkeypatch.setattr(catalog, "golden_taut_operators", lambda: negated)
    with pytest.raises(GoldenMismatchError) as info:
        check_taut_golden(taut_text([1, 1, 1, 1, 2], 2))
    # the message names the failing golden line and its kind
    assert str(info.value) == (
        "generated tautological system is missing the golden Euler operator "
        "-b11*d(b11) - b21*d(b21) - b31*d(b31) - b41*d(b41) - b51*d(b51) "
        "- b61*d(b61) - 1/2")


@pytest.mark.parametrize("index, kind", [(5, "symmetry"), (11, "symmetry"),
                                         (14, "box")])
def test_taut_golden_check_names_the_kind_of_a_missing_operator(monkeypatch,
                                                               index, kind):
    # golden 5 is an off-diagonal symmetry operator (constant 0), golden 11
    # a diagonal one (constant 1) and golden 14 the first box operator;
    # doubling one leaves a line the system does not hold
    golden = golden_taut_operators()
    doubled = make_operator([(2 * t.coeff, t.derivs, t.multiplier)
                             for t in golden[index].terms],
                            2 * golden[index].constant)
    monkeypatch.setattr(catalog, "golden_taut_operators", lambda: [doubled])
    with pytest.raises(GoldenMismatchError) as info:
        check_taut_golden(taut_text([1, 1, 1, 1, 2], 2))
    assert str(info.value) == (
        f"generated tautological system is missing the golden {kind} "
        f"operator {serialize_operator(doubled)}")


def test_taut_single_linear_bundle_on_line():
    ops = taut_operators([1], 1)
    assert len(ops) == 5  # 1 euler + 4 symmetry + 0 box
    assert serialize_operator(ops[0]) == "a11*d(a11) + a21*d(a21) + 1/2"
    diagonals = [op for op in ops[1:] if op.constant == 1]
    assert len(diagonals) == 2


def test_taut_single_quadric_on_line():
    ops = taut_operators([2], 1)
    box = ops[5:]
    assert [serialize_operator(op) for op in box] == \
        ["d(a11)*d(a21) - d(a31)*d(a31)"]  # x^2 y^2 = (xy)^2


def test_taut_rejects_bad_degrees():
    with pytest.raises(InputError):
        taut_text([0], 1)
    with pytest.raises(InputError):
        taut_text([1, -2], 2)


def test_symmetry_count_general():
    for degrees, dim in (([1], 1), ([2], 1), ([1, 1, 1, 1, 2], 2), ([3], 2)):
        ops = taut_operators(degrees, dim)
        k = len(degrees)
        symmetry = ops[k:k + (dim + 1) ** 2]
        assert len(symmetry) == (dim + 1) ** 2


@pytest.mark.parametrize("degrees, dim", [
    ([2], 1), ([1, 1, 1, 1, 2], 2), ([2, 3], 2), ([3], 3), ([1, 2], 3),
    ([2, 2], 3),
])
def test_box_operators_are_in_normal_form(degrees, dim):
    """The box lines, those after the Euler and symmetry operators, read
    as binomials d(p_i) - d(p_j) in make_operator's normal form, with int
    coefficients and no constant, and are written back unchanged."""
    lines = "".join(taut_text(degrees, dim)).splitlines()
    box = lines[len(degrees) + (dim + 1) ** 2:]
    assert box
    for line in box:
        op = parse_operator(line)
        assert [t.coeff for t in op.terms] == [1, -1]
        assert all(type(t.coeff) is int and not t.multiplier
                   and len(t.derivs) == 2 for t in op.terms)
        assert type(op.constant) is int and op.constant == 0
        assert serialize_operator(op) == line


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_roundtrip():
    ops = taut_operators([1, 1, 1, 1, 2], 2)
    text = serialize_operators(ops)
    assert parse_operators(text) == ops


def test_serializing_the_stream_peaks_below_holding_the_system():
    """Each chunk of the text is written and dropped before the next is
    joined, so writing a system takes less memory than holding its
    text."""
    tracemalloc.start()
    try:
        for _ in taut_text([5], 3):
            pass
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = "".join(taut_text([5], 3))
        holding = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held.count("\n") > 1000
    assert streamed < holding


def test_serialize_empty():
    assert serialize_operators([]) == ""
    assert parse_operators("") == []


def test_serialize_negative_and_fractional():
    op = make_operator([(Fraction(-3, 2), ("a11",), "b11")], Fraction(-1, 2))
    text = serialize_operator(op)
    assert text == "-3/2*b11*d(a11) - 1/2"
    assert parse_operators(text) == [op]


# ---------------------------------------------------------------------------
# operator normal form
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

small_ints = st.integers(-3, 3)
coefficients = st.one_of(
    small_ints,
    small_ints.map(Fraction),
    st.builds(Fraction, small_ints, st.integers(1, 4)),
)
labels = st.sampled_from(["a11", "a21", "b12", "c3"])
# every term carries a derivative: a bare number serializes as the constant
op_terms = st.lists(st.tuples(coefficients,
                              st.lists(labels, min_size=1, max_size=2),
                              st.sampled_from(["", "a11", "b12"])),
                    max_size=5)
operators = st.builds(make_operator, op_terms, coefficients)


def _exact_type(value):
    return int if Fraction(value).denominator == 1 else Fraction


@SETTINGS
@given(op_terms, coefficients)
def test_make_operator_normal_form(terms, constant):
    op = make_operator(terms, constant)
    sums = {}
    for c, d, m in terms:
        key = (tuple(sorted(d)), m)
        sums[key] = sums.get(key, 0) + Fraction(c)
    # one term per (derivs, multiplier) with a nonzero sum, sorted by it
    assert [(t.derivs, t.multiplier) for t in op.terms] == \
        sorted(key for key, c in sums.items() if c)
    assert all(t.coeff == sums[t.derivs, t.multiplier] for t in op.terms)
    for term in op.terms:
        assert term.coeff != 0
        assert type(term.coeff) is _exact_type(term.coeff)
    assert type(op.constant) is _exact_type(op.constant)
    # an integral coefficient gives the same operator as int or Fraction
    as_fractions = make_operator(
        [(Fraction(c), d, m) for c, d, m in terms], Fraction(constant))
    as_ints = make_operator(
        [(int(c) if c == int(c) else c, d, m) for c, d, m in terms],
        int(constant) if constant == int(constant) else constant)
    assert repr(as_fractions) == repr(as_ints) == repr(op)


def test_make_operator_sums_terms_with_equal_derivs_and_multiplier():
    assert parse_operator("d(a11) + 2*d(a11)") == parse_operator("3*d(a11)")
    assert repr(parse_operator("b12*d(a11) + 2*d(a11) + b12*d(a11)")) == \
        repr(make_operator([(2, ("a11",), ""), (2, ("a11",), "b12")]))


def test_make_operator_drops_terms_that_cancel():
    op = parse_operator("d(a11) - d(a11)")
    assert op == make_operator([]) and serialize_operator(op) == "0"
    op = parse_operator("d(a11)*d(a21) - d(a21)*d(a11) + 1")
    assert serialize_operator(op) == "1"


def test_containment_up_to_sign_holds_for_unmerged_text(monkeypatch):
    # a golden box operator, with no multiplier, may match negated
    monkeypatch.setattr(catalog, "golden_taut_operators",
                        lambda: [parse_operator("-d(a11) - 2*d(a11)")])
    check_taut_golden(["3*d(a11)\n"])


@SETTINGS
@given(op_terms, coefficients)
def test_negated_is_the_normal_form_of_the_negated_terms(terms, constant):
    negative = make_operator([(-c, d, m) for c, d, m in terms], -constant)
    assert make_operator(terms, constant).negated() == negative


@SETTINGS
@given(st.lists(operators, max_size=4))
def test_serialize_roundtrip_property(ops):
    parsed = parse_operators(serialize_operators(ops))
    assert parsed == ops
    assert repr(parsed) == repr(ops)


# any term, a bare number and a multiplier alone included
any_terms = st.lists(st.tuples(coefficients,
                               st.lists(labels, max_size=2),
                               st.sampled_from(["", "a11", "b12"])),
                     max_size=5)


@SETTINGS
@example(make_operator([]))
@example(make_operator([], Fraction(-5, 3)))
@example(make_operator([(-1, (), "b12"), (Fraction(7, 2), (), "a11")]))
@example(DiffOperator((DiffTerm(Fraction(-3, 2), (), ""),), 0))
@given(st.builds(make_operator, any_terms, coefficients))
def test_serializer_matches_term_by_term_rendering(op):
    assert serialize_operator(op) == serialize_by_parts(op)


@pytest.mark.parametrize("degrees, dim", [
    ([2], 1), ([1, 1, 1, 1, 2], 2), ([2, 3], 2),
])
def test_taut_system_serializer_matches_term_by_term_rendering(degrees, dim):
    ops = taut_operators(degrees, dim)
    assert serialize_operators(ops) == "\n".join(map(serialize_by_parts, ops))


@SETTINGS
@given(operators)
def test_negated_flips_the_sign_of_every_term_text(op):
    def text(term):
        return serialize_operator(DiffOperator((term,), 0))

    negated = op.negated()
    assert len(negated.terms) == len(op.terms)
    for term, negative in zip(op.terms, negated.terms):
        line = text(term)
        assert text(negative) == (line[1:] if line[0] == "-" else "-" + line)


# one term as make_operator takes it: exact coefficient, derivative
# labels (possibly none) and a multiplier (possibly alone)
single_terms = st.tuples(coefficients.filter(bool),
                         st.lists(labels, max_size=2).map(sorted).map(tuple),
                         st.sampled_from(["", "a11", "b12"]))


@SETTINGS
@example((Fraction(-3, 2), (), ""))
@example((1, (), "b12"))
@example((-1, ("a11", "a11"), ""))
@given(single_terms)
def test_direct_term_matches_make_operator(term):
    coeff, derivs, multiplier = term
    if type(coeff) is Fraction and coeff.denominator == 1:
        coeff = int(coeff)  # the normal form of an integral coefficient
    direct = DiffTerm(coeff, derivs, multiplier)
    (normal,) = make_operator([term]).terms
    assert direct == normal and hash(direct) == hash(normal)
    assert repr(direct) == repr(normal)


@pytest.mark.parametrize("obj, fields", [
    (DiffTerm(Fraction(1, 2), ("a11",), "b12"),
     ("coeff", "derivs", "multiplier")),
    (DiffOperator((DiffTerm(1, ("a11",), ""),), 0), ("terms", "constant")),
])
def test_every_field_is_frozen(obj, fields):
    before = repr(obj)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before


@SETTINGS
@given(st.builds(make_operator, any_terms, coefficients))
def test_negated_round_trips(op):
    twice = op.negated().negated()
    assert twice == op and hash(twice) == hash(op)
    assert repr(twice) == repr(op)
    assert serialize_operator(twice) == serialize_operator(op)


# every degree list of length 1-3 with entries 1-3 on P^0..P^3: 156
# systems, 34,716 lines, the largest 124 KB of text
@pytest.mark.parametrize("degrees, dim", [
    (list(degrees), dim) for length in (1, 2, 3)
    for degrees in product((1, 2, 3), repeat=length) for dim in range(4)
])
def test_taut_text_is_the_serialized_system(degrees, dim):
    """Every line is the normal form of the operator it writes: the one
    that serialize_operator writes of the line read back."""
    chunks = list(taut_text(degrees, dim))
    assert all(chunk.endswith("\n") for chunk in chunks)
    for line in "".join(chunks).splitlines():
        assert serialize_operator(parse_operator(line)) == line


# sha256 of the tautgen output of three large systems
TAUT_DIGESTS = [
    ([6], 3, "eccf757e4b62b814d6150d1803711a9cae4d987ef97cb4f661f8e406ae6d1b62"),
    ([3, 3], 4,
     "0bafc4a17032f687a48d93f58b330a3af8765c99919afb7bb00d75a54ca57740"),
    ([5], 4, "6b1cc290c96373c0bffee8b2d5c712ae1649a74728ad3357f654705022c89beb"),
]


@pytest.mark.parametrize("degrees, dim, digest", TAUT_DIGESTS)
def test_taut_system_bytes_pinned(degrees, dim, digest):
    """The operators of three large systems, read back from the text and
    serialized again, give the tautgen output byte for byte."""
    text = serialize_operators(taut_operators(degrees, dim)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("degrees, dim, digest", TAUT_DIGESTS)
def test_taut_text_bytes_pinned(degrees, dim, digest):
    """The tautgen output of three large systems, byte for byte."""
    text = "".join(taut_text(degrees, dim))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
