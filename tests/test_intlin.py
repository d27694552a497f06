"""The exact elimination kernel against reference definitions.

Reference values come from definitions that share no code with
``nefmirror.intlin``: the Leibniz expansion for determinants, the
largest nonvanishing minor for ranks, and elimination over Q
(``rational_solve``) for solutions.  Matrices are small (up to 4x5) with
int entries: the kernel is integer-only.
"""
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elementary_product, invert_unimodular, leibniz, rational_solve
from nefmirror.intlin import (
    det,
    integer_kernel_basis,
    lattice_split,
    matrix_rank,
    nullspace,
    primitivize,
    scaled_inverse,
    solve_linear,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

ints = st.integers(-4, 4)


def matrices(nrows, ncols, elements=ints):
    return st.lists(st.lists(elements, min_size=ncols, max_size=ncols)
                    .map(tuple), min_size=nrows, max_size=nrows)


shapes = st.tuples(st.integers(1, 4), st.integers(1, 5))
any_matrix = shapes.flatmap(lambda s: matrices(*s))
square = st.integers(1, 4).flatmap(lambda n: matrices(n, n))


def minor_rank(rows):
    """Largest k with a nonzero k x k minor."""
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                if leibniz([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def matvec(rows, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


@SETTINGS
@given(square)
def test_det_is_leibniz(rows):
    value = det(rows)
    assert value == leibniz(rows)
    assert type(value) is int


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda n: matrices(n, n, st.integers(-10**9, 10**9))))
def test_det_of_integer_matrix_is_int(rows):
    # Entries large enough that any float or divided step would lose digits.
    value = det(rows)
    assert type(value) is int
    assert value == leibniz(rows)


@SETTINGS
@given(any_matrix)
def test_rank_is_largest_nonzero_minor(rows):
    assert matrix_rank(rows) == minor_rank(rows)


@SETTINGS
@given(st.lists(ints, min_size=1, max_size=5).filter(any))
def test_primitivize_is_the_primitive_vector_on_the_ray(v):
    p = primitivize(v)
    assert all(type(x) is int for x in p)
    assert gcd(*p) == 1
    i = next(i for i, x in enumerate(v) if x)
    t = Fraction(p[i], v[i])
    assert t > 0
    assert all(a == t * b for a, b in zip(p, v))
    with pytest.raises(ValueError):
        primitivize([0 * x for x in v])


@SETTINGS
@given(any_matrix)
def test_nullspace_spans_kernel(rows):
    basis = nullspace(rows)
    ncols = len(rows[0])
    assert len(basis) == ncols - matrix_rank(rows)
    for v in basis:
        assert len(v) == ncols
        assert all(type(x) is int for x in v)
        assert all(x == 0 for x in matvec(rows, v))
    if basis:
        assert minor_rank(basis) == len(basis)


@SETTINGS
@given(shapes.flatmap(lambda s: st.tuples(matrices(*s),
                                          st.lists(ints, min_size=s[0],
                                                   max_size=s[0]))))
def test_solve_linear_exactly_when_consistent(system):
    # the solution with free variables 0 is read over Q on the pivot
    # columns, each one not in the span of the columns before it;
    # solve_linear returns it when it is integral, and None otherwise
    rows, rhs = system
    x = solve_linear(rows, rhs)
    augmented = [row + (b,) for row, b in zip(rows, rhs)]
    if minor_rank(augmented) > minor_rank(rows):
        assert x is None
        return
    ncols = len(rows[0])
    pivots = [c for c in range(ncols)
              if minor_rank([row[:c + 1] for row in rows])
              > minor_rank([row[:c] for row in rows])]
    want = [Fraction(0)] * ncols
    for c, value in zip(pivots, rational_solve(
            [[row[c] for c in pivots] for row in rows], rhs)):
        want[c] = value
    if all(v.denominator == 1 for v in want):
        assert x == tuple(want)
        assert all(type(v) is int for v in x)
        assert matvec(rows, x) == tuple(rhs)
    else:
        assert x is None


@pytest.mark.parametrize("rows, rhs, solution", [
    ([(2, 0), (0, 3)], [4, 9], (2, 3)),
    ([(2, 0), (0, 3)], [4, 1], None),   # x_2 = 1/3
    ([(2, 3)], [1], None),              # x_2 = 0 leaves x_1 = 1/2
    ([(1, 1), (1, 1)], [1, 2], None),   # inconsistent
])
def test_solve_linear_returns_only_integral_solutions(rows, rhs, solution):
    assert solve_linear(rows, rhs) == solution


@SETTINGS
@given(st.one_of(square, st.integers(1, 4).flatmap(
    lambda n: matrices(n, n, st.integers(-2, 2)))))
def test_scaled_inverse_is_a_positive_multiple_of_the_inverse(rows):
    x = scaled_inverse(rows)
    if leibniz(rows) == 0:
        assert x is None
        return
    n = len(rows)
    assert all(type(v) is int for col in x for v in col)
    product = [tuple(sum(rows[i][k] * x[k][j] for k in range(n))
                     for j in range(n)) for i in range(n)]
    c = product[0][0]
    assert c > 0
    assert product == [tuple(c * (i == j) for j in range(n)) for i in range(n)]


unimodular = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                 st.integers(-2, 2), st.booleans()),
                       max_size=8).map(lambda ops: elementary_product(n, ops)))


@SETTINGS
@given(unimodular)
def test_invert_unimodular_inverts(rows):
    inv = invert_unimodular(rows)
    n = len(rows)
    product = [tuple(sum(inv[i][k] * rows[k][j] for k in range(n))
                     for j in range(n)) for i in range(n)]
    assert product == [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert all(type(x) is int for row in inv for x in row)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n, ints)))
def test_invert_unimodular_rejects_other_determinants(rows):
    if abs(leibniz(rows)) == 1:
        invert_unimodular(rows)
    else:
        with pytest.raises(ValueError):
            invert_unimodular(rows)


@SETTINGS
@given(any_matrix)
def test_lattice_split_is_unimodular_with_kernel_half(rows):
    image, kernel = lattice_split(rows)
    ncols = len(rows[0])
    assert len(kernel) == ncols - minor_rank(rows)
    assert len(image) + len(kernel) == ncols
    for k in kernel:
        assert all(x == 0 for x in matvec(rows, k))
    columns = image + kernel
    assert all(type(x) is int for col in columns for x in col)
    assert abs(leibniz(columns)) == 1
    assert integer_kernel_basis(rows) == sorted(kernel)


def test_empty_matrices():
    assert det([]) == 1
    assert matrix_rank([]) == 0
    assert nullspace([]) == []
    assert scaled_inverse([]) == []
    assert solve_linear([], []) == ()
    assert invert_unimodular([]) == []
