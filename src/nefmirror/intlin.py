"""Exact integer/rational linear algebra on plain tuples.

No floats anywhere: entries are ints or fractions.Fraction.  Vectors are
tuples, matrices are lists/tuples of row tuples.  This is deliberately
small-scale code (dimensions <= 8, a few dozen rows) written for clarity
and determinism, not asymptotics.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

Num = "int | Fraction"


def canon_num(x):
    """Normalize a rational to int when it is integral."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


def canon_vec(v):
    return tuple(canon_num(Fraction(x)) for x in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def is_integral(v):
    return all(isinstance(canon_num(x), int) for x in v)


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitivize(v):
    """Scale a nonzero rational vector to the primitive integer vector on
    the same ray.  Raises on the zero vector."""
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ValueError("cannot primitivize the zero vector")
    lcm_den = 1
    for x in fracs:
        lcm_den = lcm_den * x.denominator // gcd(lcm_den, x.denominator)
    ints = [int(x * lcm_den) for x in fracs]
    g = vec_gcd(ints)
    return tuple(x // g for x in ints)


def _rref(rows):
    """Reduced row echelon form over Q.  Returns (rref_rows, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def matrix_rank(rows):
    if not rows:
        return 0
    return len(_rref(rows)[1])


def solve_linear(rows, rhs):
    """One exact solution x of rows @ x = rhs (free variables set to 0),
    or None when the system is inconsistent."""
    if not rows:
        return ()
    aug = [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    m, pivots = _rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:  # pivot in the rhs column
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return canon_vec(x)


def nullspace(rows):
    """Rational basis of {x : rows @ x = 0}, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        basis.append(canon_vec(v))
    return basis


def det(rows):
    """Exact determinant via fraction-free-ish Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        result *= piv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return canon_num(sign * result)


def integer_kernel_basis(rows):
    """Basis of the lattice {x in Z^m : rows @ x = 0}.

    Unimodular column reduction: bring the matrix to column echelon form
    while tracking the transform; columns that end up zero correspond to
    kernel basis vectors.  The result is automatically saturated.
    """
    rows = [tuple(int(x) for x in row) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return []
    cols = [[rows[r][c] for r in range(nrows)] for c in range(ncols)]
    transform = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    active = list(range(ncols))
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
    basis = [tuple(transform[c]) for c in range(ncols) if all(x == 0 for x in cols[c])]
    return sorted(basis)


def saturated_span_basis(vectors):
    """Basis of span_Q(vectors) ∩ Z^d, the lattice induced on the span.

    Double-kernel trick: the orthogonal complement of the span is an
    integer kernel, and the saturation is the kernel of that.
    """
    vecs = [primitivize(v) for v in vectors if any(Fraction(x) != 0 for x in v)]
    if not vecs:
        return []
    d = len(vecs[0])
    complement = integer_kernel_basis(vecs)
    if not complement:
        return [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    return integer_kernel_basis(complement)


def invert_unimodular(rows):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(rows)
    inv_cols = []
    for j in range(n):
        rhs = [1 if i == j else 0 for i in range(n)]
        col = solve_linear(rows, rhs)
        if col is None or not is_integral(col):
            raise ValueError("matrix is not unimodular")
        inv_cols.append([int(x) for x in col])
    return [tuple(inv_cols[j][i] for j in range(n)) for i in range(n)]
