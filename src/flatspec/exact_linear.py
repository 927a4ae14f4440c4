"""Exact integer and rational linear algebra over the canonical lattice Z^n.

Matrices are tuples of row tuples of Python ints; vectors are plain tuples.
Rational vectors use ``fractions.Fraction``.  Every operation in this module
is exact: no floating point anywhere.  The error taxonomy lives here too,
since every other module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


class FlatspecError(Exception):
    """An error reported as the one line ``error: {prefix}{message}``."""

    prefix = ""


class UsageError(FlatspecError, ValueError):
    """The input is malformed or out of range."""


class LimitError(FlatspecError, ValueError):
    """The work would exceed a resource guard."""

    prefix = "limit: "


class InternalError(FlatspecError, ArithmeticError):
    """An exactness check failed: a bug, not a bad input."""

    prefix = "internal: "


def as_int_matrix(rows: Sequence[Sequence[int]], name: str = "matrix") -> IntMatrix:
    """Freeze ``rows`` into an IntMatrix, checking shape and integrality."""
    if not all(isinstance(row, (list, tuple)) for row in rows):
        raise UsageError(f"{name} must be a list of rows")
    frozen = tuple(tuple(row) for row in rows)
    if frozen:
        width = len(frozen[0])
        for row in frozen:
            if len(row) != width:
                raise UsageError(f"{name} rows have unequal lengths")
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise UsageError(f"non-integer entry in {name}: {entry!r}")
    return frozen


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise ValueError("incompatible shapes for matrix product")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_vec(m: IntMatrix, v: Sequence) -> tuple:
    """Apply ``m`` to a vector of ints or Fractions."""
    if m and len(m[0]) != len(v):
        raise ValueError("incompatible shapes for matrix-vector product")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def signed_perm(m: IntMatrix) -> tuple[IntVector, IntVector]:
    """(image, sign) of a signed permutation: column j is sign[j] e_{image[j]}.

    Raises ValueError unless ``m`` has exactly one entry +-1 per row and per
    column.  ``signed_perm_matrix`` is the inverse.
    """
    n = len(m)
    image = [-1] * n
    sign = [0] * n
    for i, row in enumerate(m):
        nz = [j for j, x in enumerate(row) if x != 0]
        if len(row) != n or len(nz) != 1 or row[nz[0]] not in (1, -1) or image[nz[0]] >= 0:
            raise ValueError("matrix is not a signed permutation")
        image[nz[0]], sign[nz[0]] = i, row[nz[0]]
    return tuple(image), tuple(sign)


def signed_perm_matrix(image: Sequence[int], sign: Sequence[int]) -> IntMatrix:
    """The signed permutation whose column j is sign[j] e_{image[j]}."""
    rows = [[0] * len(image) for _ in image]
    for j, (i, s) in enumerate(zip(image, sign)):
        rows[i][j] = s
    return tuple(tuple(row) for row in rows)


def is_signed_permutation(m: IntMatrix) -> bool:
    """True iff ``m`` has exactly one entry +-1 per row and per column.

    Signed permutations are exactly the orthogonal integer matrices, i.e. the
    symmetries of the canonical lattice.
    """
    try:
        signed_perm(m)
    except ValueError:
        return False
    return True


class Cycle(NamedTuple):
    """One cycle of a signed permutation B.

    ``support`` lists the coordinates in the order B visits them.
    ``vector`` is the +-1 vector u_c on that support found by following the
    cycle, and ``sign`` is the product of the signs met along it; B u_c = u_c
    exactly when ``sign`` is +1.
    """

    support: tuple[int, ...]
    vector: IntVector
    sign: int


def cycles(m: IntMatrix) -> tuple[Cycle, ...]:
    """The cycles of a signed permutation, by one walk over its columns."""
    image, sign = signed_perm(m)
    n = len(m)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        support = []
        u = [0] * n
        j, uj = start, 1
        while not seen[j]:
            seen[j] = True
            support.append(j)
            u[j] = uj
            uj *= sign[j]
            j = image[j]
        # uj is now the sign product of the cycle
        out.append(Cycle(tuple(support), tuple(u), uj))
    return tuple(out)


def signed_permutation_order(m: IntMatrix) -> int:
    """Multiplicative order: lcm of L_c, or 2 L_c for a cycle of sign -1."""
    return lcm(*(len(c.support) * (1 if c.sign == 1 else 2) for c in cycles(m)))


def det(m: IntMatrix) -> int:
    """Determinant of a signed permutation: prod_c (-1)^(L_c + 1) s_c."""
    return prod((-1) ** (len(c.support) + 1) * c.sign for c in cycles(m))


def trace_p(m: IntMatrix, p: int) -> int:
    """Trace of a signed permutation's action on the p-th exterior power.

    It is the coefficient of t^p in det(I + tB), and a cycle of length L
    and sign s contributes the factor 1 - s (-t)^L.
    """
    n = len(m)
    if not 0 <= p <= n:
        raise UsageError(f"exterior power {p} out of range for dimension {n}")
    poly = [1] + [0] * n
    for c in cycles(m):
        length = len(c.support)
        step = -c.sign * (-1) ** length
        for k in range(n, length - 1, -1):
            poly[k] += step * poly[k - length]
    return poly[p]


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular u, v and diagonal d with u * m * v = d, d_1 | d_2 | ..."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        k = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(k))

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformation matrices.

    Deterministic: pivots are chosen as the smallest nonzero |entry|,
    ties broken by position.
    """
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def addmul_col(i, j, q):
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nrows, ncols):
        # locate smallest nonzero |entry| in the trailing block
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)

        # clear the rest of row t and column t; remainders shrink |pivot|
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    addmul_row(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    addmul_col(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break

        # enforce d_t | trailing entries
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, -1)
            continue  # redo elimination at the same t
        t += 1

    d = tuple(tuple(row) for row in a)
    return SmithDecomposition(
        u=tuple(tuple(row) for row in u), d=d, v=tuple(tuple(row) for row in v)
    )


def hermite_row_basis(vectors: Sequence[IntVector]) -> tuple[IntVector, ...]:
    """Canonical Hermite-reduced basis of the row lattice spanned by ``vectors``.

    Pivots positive, entries above each pivot reduced into [0, pivot).  The
    output is deterministic, which fixes downstream enumeration order.
    """
    rows = [list(vec) for vec in vectors if any(vec)]
    if not rows:
        return ()
    ncols = len(rows[0])
    pr = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(pr, len(rows)) if rows[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][col]), i))
            if i0 != pr:
                rows[pr], rows[i0] = rows[i0], rows[pr]
            if len(nz) == 1:
                break
            p = rows[pr][col]
            done = True
            for i in range(pr + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pr])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if pr < len(rows) and rows[pr][col] != 0:
            if rows[pr][col] < 0:
                rows[pr] = [-x for x in rows[pr]]
            p = rows[pr][col]
            for i in range(pr):
                q = rows[i][col] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pr])]
            pr += 1
            if pr == len(rows):
                break
    return tuple(tuple(row) for row in rows[:pr])


def integer_kernel(m: IntMatrix) -> tuple[IntVector, ...]:
    """Hermite-reduced primitive basis of {v in Z^cols : m v = 0}.

    The basis extends to a basis of Z^cols (it consists of columns of a
    unimodular matrix), so membership in its span over Z is membership in
    the kernel sublattice.
    """
    if not m:
        return ()
    snf = smith_normal_form(m)
    rank = snf.rank()
    ncols = len(m[0])
    vt = transpose(snf.v)
    return hermite_row_basis(vt[rank:ncols])


def in_image_lattice(s: IntMatrix, w: Sequence) -> bool:
    """Decide w in s * Z^n exactly, via the Smith form of s.

    ``w`` must have integer entries (callers check membership in Z^n first).
    """
    wi = []
    for x in w:
        f = Fraction(x)
        if f.denominator != 1:
            raise ValueError(f"in_image_lattice needs an integer vector, got {x}")
        wi.append(f.numerator)
    snf = smith_normal_form(s)
    y = mat_vec(snf.u, wi)
    diag = snf.diagonal()
    for i, yi in enumerate(y):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if yi != 0:
                return False
        elif yi % di != 0:
            return False
    return True
