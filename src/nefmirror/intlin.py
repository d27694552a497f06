"""Exact integer linear algebra on plain tuples.

No floats and no rescaling: every matrix eliminated here is integral,
since every polytope, fan, cone and divisor is built from ``int``
coordinates (``lattice.integer_vector`` checks them at the public
constructors).  Elimination runs in two routines: fraction-free Bareiss
row elimination for rank, solve, nullspace, determinant and the scaled
inverse, and unimodular column reduction (:func:`lattice_split`) for
integer kernels and lattice charts.  The columns of
:func:`scaled_inverse` are the inner facet normals of a simplex (from its
edge matrix) or of a simplicial cone (from its generators), so the hull's
first simplex and the completeness test read them from one elimination.
Every result is made of ints: :func:`solve_linear` returns only an
integral solution.  Vectors are tuples, matrices are lists/tuples of row
tuples.  This is deliberately small-scale code (a few dozen rows) written
for clarity and determinism, not asymptotics.
"""
from __future__ import annotations

from math import gcd
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def primitivize(v):
    """The primitive integer vector on the ray of a nonzero integer
    vector: v divided by the gcd of its entries.  Raises on the zero
    vector."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(x // g for x in v)


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss, Math. Comp.
    22, 1968) of an integer matrix: each pivot step replaces every other
    row by (p*row - f*pivot_row) / previous pivot, an exact integer
    division.  Returns (m, pivots, last, sign) with m = last * rref(rows),
    rows in swapped order, and last = sign * det(rows) for a square
    nonsingular matrix (last = 1 when there is no pivot).
    """
    m = list(rows)  # rows are replaced, never changed in place
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    last, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // last for a, b in zip(m[i], prow)]
        pivots.append(c)
        last = p
    return m, pivots, last, sign


def pivot_columns(rows):
    """Pivot columns of the row echelon form: each column that is not in
    the span of the columns before it."""
    return _eliminate(rows)[1]


def matrix_rank(rows):
    return len(pivot_columns(rows))


def solve_linear(rows, rhs):
    """The solution x of rows @ x = rhs with its free variables 0, when
    the system is consistent and that solution is integral; else None.
    When rows has full column rank the solution is unique, so None means
    that no integral solution exists."""
    if not rows:
        return ()
    ncols = len(rows[0])
    m, pivots, last, _ = _eliminate(
        [tuple(row) + (b,) for row, b in zip(rows, rhs)])
    if ncols in pivots:  # pivot in the rhs column
        return None
    x = [0] * ncols
    for row, c in zip(m, pivots):
        q, rem = divmod(row[ncols], last)
        if rem:
            return None
        x[c] = q
    return tuple(x)


def nullspace(rows):
    """Integer basis of {x : rows @ x = 0}, one vector per free column f:
    the rref kernel vector with x_f = 1, scaled by the final Bareiss pivot
    so that no division is needed.  The vectors need not be primitive and
    do not in general span the kernel lattice (see
    :func:`integer_kernel_basis` for that)."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots, last, _ = _eliminate(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = last
        for row, c in zip(m, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def det(rows):
    """Exact determinant of a square integer matrix: the signed final
    pivot of the elimination."""
    _, pivots, last, sign = _eliminate(rows)
    if len(pivots) < len(rows):
        return 0
    return sign * last


def scaled_inverse(rows):
    """A positive integer multiple c * rows^-1 of the inverse of a square
    integer matrix, from one elimination of [rows | I], or None when rows
    is singular.  The right block of the eliminated matrix is
    last * rows^-1, the adjugate up to sign, negated when last < 0.
    Since rows @ X = c * I, column i of X vanishes on every row but row i,
    where it is positive: read as cone generators or simplex edges, it is
    the inner normal of the facet opposite row i."""
    n = len(rows)
    m, pivots, last, _ = _eliminate(
        [(*row, *(0,) * i, 1, *(0,) * (n - 1 - i))
         for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    if last < 0:
        return [tuple(-x for x in row[n:]) for row in m]
    return [tuple(row[n:]) for row in m]


def lattice_split(rows):
    """Unimodular column reduction of an integer matrix: T in GL(m, Z)
    with rows @ T = [H | 0], H of full column rank, returned as its
    columns ``(image, kernel)``.  ``kernel`` is a basis of
    {x in Z^m : rows @ x = 0}; dot products with the ``image`` columns map
    span_Q(rows) ∩ Z^m onto Z^rank."""
    nrows = len(rows)
    cols = [list(col) for col in zip(*rows)]
    ncols = len(cols)
    transform = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    active = list(range(ncols))
    pivots = []
    for r in range(nrows):
        live = [c for c in active if cols[c][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(cols[c][r]))
            c0 = live[0]
            for c in live[1:]:
                q = cols[c][r] // cols[c0][r]
                cols[c] = [a - q * b for a, b in zip(cols[c], cols[c0])]
                transform[c] = [a - q * b for a, b in zip(transform[c], transform[c0])]
            live = [c for c in live if cols[c][r] != 0]
        if live:
            active.remove(live[0])
            pivots.append(live[0])
    return ([tuple(transform[c]) for c in pivots],
            [tuple(transform[c]) for c in active])


def integer_kernel_basis(rows):
    """Sorted basis of the lattice {x in Z^m : rows @ x = 0}."""
    return sorted(lattice_split(rows)[1])

