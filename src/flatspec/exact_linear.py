"""Signed permutations, walked once per cycle, and integer lattices in Z^n.

Matrices are tuples of row tuples of Python ints; vectors are plain tuples.
Rational vectors use ``fractions.Fraction``.  ``coset_walk`` gives each cycle
of a signed permutation its length, sign and phase, which fix the order, the
determinant and the exterior traces; ``fixed_cycles`` keeps the coordinates
of the fixed cycle vectors.  Lattice work goes through two routines: one
Hermite basis and one invariant-factor Smith form.  Every operation is exact.
The error taxonomy and the ``Record`` base of the package's value types live
here too, since every other module imports this one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import attrgetter
from typing import Sequence

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


class Record:
    """An immutable value: a subclass names its fields in ``__slots__`` and
    their defaults in ``_defaults``.  Equality and the hash read every field
    but ``label``, a name for output only; the hash is computed on first use
    and kept, so a record used as a cache key hashes its fields once."""

    __slots__ = ("_hash",)
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._key = attrgetter(*(f for f in cls.__slots__ if f != "label"))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # binding by name costs twice as much
            bound = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or bound.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args = [bound[n] for n in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Validate the fields; a field may be normalised through object.__setattr__."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._key(self)))
            return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the record refuses setattr
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


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


# B L_b as (image, sign) of B, read by signed_perm, and t = q b mod q
Coset = tuple[IntVector, IntVector, IntVector]


def coset_walk(coset: Coset, q: int) -> tuple[tuple[int, int, int], ...]:
    """(L_c, s_c, u_c . t mod q) for each cycle c of B, by one walk over (image,
    sign): c visits its L_c coordinates from the least, u_c is the +-1 vector
    met along it, and s_c the product of its signs, so B u_c = u_c iff s_c = 1."""
    image, sign, t = coset
    seen = [False] * len(image)
    out = []
    for start in range(len(image)):
        j, u, length, phase = start, 1, 0, 0
        while not seen[j]:
            seen[j] = True
            length += 1
            phase += u * t[j]
            u *= sign[j]
            j = image[j]
        if length:
            out.append((length, u, phase % q))
    return tuple(out)


def fixed_cycles(perm: tuple[IntVector, IntVector]) -> tuple[int, list[list[tuple[int, int]]]]:
    """(order of B, the entries (j, u_c[j]) of each cycle c of sign +1, in the
    order ``coset_walk`` visits them) for B given as (image, sign): the u_c
    span ker(B - I)."""
    image, sign = perm
    seen, walk, fixed = [False] * len(image), [], []
    for start in range(len(image)):
        j, u, entries = start, 1, []
        while not seen[j]:
            seen[j] = True
            entries.append((j, u))
            u, j = u * sign[j], image[j]
        if entries:
            walk.append((len(entries), u))
            fixed += [entries] if u == 1 else []
    return walk_order(walk), fixed


def walk_order(walk) -> int:
    """B's multiplicative order from the (L_c, s_c, ...) of its cycles: the lcm
    of L_c, or 2 L_c for a cycle of sign -1."""
    return lcm(*(c[0] * (1 if c[1] == 1 else 2) for c in walk))


def _matrix_walk(m: IntMatrix) -> tuple[tuple[int, int, int], ...]:
    return coset_walk(signed_perm(m) + ((0,) * len(m),), 1)


def signed_permutation_order(m: IntMatrix) -> int:
    """Multiplicative order: lcm of L_c, or 2 L_c for a cycle of sign -1."""
    return walk_order(_matrix_walk(m))


def det(m: IntMatrix) -> int:
    """Determinant of a signed permutation: prod_c (-1)^(L_c + 1) s_c."""
    return prod((-1) ** (length + 1) * sign for length, sign, _ in _matrix_walk(m))


def exterior_traces(n: int, cycle_type) -> tuple[int, ...]:
    """(trace_0, ..., trace_n) of a signed permutation of Z^n on the exterior
    powers, from the (L_c, s_c) of its cycles: the coefficients of
    det(I + tB), a cycle of length L and sign s contributing 1 - s (-t)^L."""
    poly = [1] + [0] * n
    top = 0  # the degree of the product so far
    for length, sign in cycle_type:
        top += length
        step = -sign * (-1) ** length
        for k in range(top, length - 1, -1):
            poly[k] += step * poly[k - length]
    return tuple(poly)


def trace_p(m: IntMatrix, p: int) -> int:
    """Trace of a signed permutation's action on the p-th exterior power."""
    n = len(m)
    if not 0 <= p <= n:
        raise UsageError(f"exterior power {p} out of range for dimension {n}")
    return exterior_traces(n, (c[:2] for c in _matrix_walk(m)))[p]


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of ``m``, min(rows, cols) of them,
    nonnegative, zeros last (Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4.14), with no transformation matrices.  The pivot is
    the smallest nonzero |entry| left; remainders shrink it until its row and
    column are clear, and a row it does not divide is added into its row.
    """
    a = [list(row) for row in m]
    nrows, ncols = len(a), len(a[0]) if a else 0
    k = min(nrows, ncols)
    for t in range(k):
        while True:
            block = [
                (abs(a[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]
            ]
            if not block:
                return tuple(abs(a[i][i]) for i in range(t)) + (0,) * (k - t)
            _, i0, j0 = min(block)
            a[t], a[i0] = a[i0], a[t]
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            p = a[t][t]
            for i in range(t + 1, nrows):
                if q := a[i][t] // p:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, ncols):
                if q := a[t][j] // p:
                    for row in a:
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, nrows)) or any(a[t][t + 1:]):
                continue
            bad = [i for i in range(t + 1, nrows) if any(x % p for x in a[i][t + 1:])]
            if not bad:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
    return tuple(abs(a[i][i]) for i in range(k))


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

    Row operations on (m^T | I) keep each row of the form (m v, v).  The
    Hermite rows are in echelon form, so those whose m^T part vanishes span
    exactly the kernel, and their I parts are already Hermite-reduced.
    """
    if not m:
        return ()
    nrows, ncols = len(m), len(m[0])
    rows = [col + tuple(int(i == j) for i in range(ncols)) for j, col in enumerate(zip(*m))]
    return tuple(row[nrows:] for row in hermite_row_basis(rows) if not any(row[:nrows]))


def in_image_lattice(s: IntMatrix, w: Sequence) -> bool:
    """Decide w in s * Z^n exactly: a lattice has one Hermite basis, so w lies
    in the column lattice of s iff adding it leaves that basis unchanged.

    ``w`` must have integer entries (callers check membership in Z^n first).
    """
    if any(Fraction(x).denominator != 1 for x in w):
        raise ValueError(f"in_image_lattice needs an integer vector, got {w}")
    cols = list(zip(*s))
    return hermite_row_basis(cols) == hermite_row_basis(cols + [tuple(map(int, w))])
