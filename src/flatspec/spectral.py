"""Exact Hodge-Laplacian spectra on p-forms.

For a valid group the multiplicity of the eigenvalue 4*pi^2*mu on p-forms is

    d_{p,mu} = |F|^{-1} sum_{B in F} trace_p(B) e_{mu,B},

where e_{mu,B} sums e^{2*pi*i v.b} over lattice vectors v of squared norm mu
fixed by B.  Those are v = sum_c k_c u_c over the fixed cycles c of B, of
length L_c and phase a_c = q (u_c . b) mod q, q the lcm of the denominators
of the u_c . b.  So e_{mu,B}, a tally of q-th roots of unity, is the x^mu
coefficient of the theta series (Conway & Sloane, *Sphere Packings, Lattices
and Groups*, ch. 4)

    prod_c sum_{k in Z} zeta_q^(a_c k) x^(L_c k^2),

which depends only on B's signature (q, sorted (L_c, min(a_c, q - a_c))), so one series
serves each signature; the fixed-shell walk and the oracles' slice convolution test it.
Every factor shifts and adds its q phase rows, packed ints as in Kronecker substitution
(Schoenhage, EUROCAM 1982; Harvey, J. Symb. Comput. 44, 2009), and one struct call
unpacks a row of slots up to 8 bytes.  Each group keeps one table of checked integer
rows d_p.  A cell is rational, so it is its trace to Q over phi(Q), Q the lcm of the
class moduli: one series per Galois orbit of classes, summed by Ramanujan sums, times
its trace row.  A failing check refuses the table by its first bad cell; every reader
slices the rows.  Asking past a table's length grows it in place to twice its length, or
to the cutoff if longer: only the new columns are built, checked and kept.

Table keys use mu throughout; the eigenvalue itself is 4*pi^2*mu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd, isqrt, lcm, prod
from operator import add, sub
from struct import unpack

from .crystal import (
    GroupDefinition,
    PointGroupElement,
    _element_coset,
    _torsion_walks,
    require_valid,
)
from .exact_linear import (
    IntMatrix,
    InternalError,
    LimitError,
    Record,
    UsageError,
    coset_walk,
    exterior_traces,
    fixed_cycles,
    signed_perm,
    trace_p,  # noqa: F401  (bench/test_bench.py traces spectral.trace_p)
)

SHELL_NORM_CAP = 10**4
SHELL_DIM_CAP = 12


class EnumerationGuardError(LimitError):
    """A series build or a lattice enumeration would exceed its guard."""


class NonRationalSumError(InternalError):
    """A sum that must be rational is not: its residue, series or Galois orbit is broken."""


# ---------------------------------------------------------------------------
# Exact sums of roots of unity

class RootOfUnityTally(Record):
    """Integer combination sum_k counts[k] * zeta_Q^k, held exactly."""

    __slots__ = ("modulus", "counts")

    def _check(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if len(self.counts) != self.modulus:
            raise ValueError("counts length must equal the modulus")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Coefficients of Phi_q, ascending, computed by dividing x^q - 1 by the
    cyclotomic polynomials of the proper divisors of q."""
    if q < 1:
        raise ValueError("index must be positive")
    poly = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise InternalError("expected exact polynomial division")
    return tuple(poly)


def _poly_divmod(num, den) -> tuple[list[int], list[int]]:
    # den is monic, so quotient and remainder stay integral
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for k, dcoef in enumerate(den):
            num[i - dd + k] -= c * dcoef
    return quot, num[:dd]


def _residue(counts, modulus: int) -> list[int]:
    return _poly_divmod(counts, cyclotomic_polynomial(modulus))[1]


def reduce_tally(t: RootOfUnityTally) -> Fraction:
    """Exact rational value of the tally; non-rational sums are an error.

    Reduction is modulo the cyclotomic polynomial of the modulus, whose
    residues 1, zeta, ..., zeta^(phi(Q)-1) are a basis, so the value is
    rational exactly when the residue is constant.
    """
    rem = _residue(t.counts, t.modulus)
    if any(rem[1:]):
        raise NonRationalSumError(
            f"tally reduces to non-constant residue {rem}; upstream bug"
        )
    return Fraction(rem[0])


def weighted_sum(terms) -> RootOfUnityTally:
    """sum_i w_i t_i over pairs (w_i, t_i), as one flat tally over zeta_Q, Q
    the lcm of the moduli of the t_i."""
    terms = list(terms)
    q = lcm(*(t.modulus for _, t in terms))
    counts = [0] * q
    for w, t in terms:
        step = q // t.modulus
        for k, c in enumerate(t.counts):
            counts[k * step] += w * c
    return RootOfUnityTally(q, tuple(counts))


def sums_to_zero(t: RootOfUnityTally) -> bool:
    """Whether the tally is 0 as an algebraic number, i.e. its residue modulo
    the cyclotomic polynomial vanishes (its counts need not all be 0)."""
    return not any(_residue(t.counts, t.modulus))


# ---------------------------------------------------------------------------
# Lattice shells

def require_series(mu: int, rank: int = 0) -> None:
    """Refuse a shell or series of squared norm mu on a fixed lattice of the
    given rank: mu must lie in 0..SHELL_NORM_CAP and, for mu > 0, the rank
    may not exceed SHELL_DIM_CAP."""
    if not isinstance(mu, int):
        raise UsageError(f"squared norm {mu} must be an integer")
    if mu < 0:
        raise UsageError("squared norm must be nonnegative")
    if mu > SHELL_NORM_CAP:
        raise EnumerationGuardError(f"norm {mu} exceeds guard {SHELL_NORM_CAP}")
    if mu and rank > SHELL_DIM_CAP:
        raise EnumerationGuardError(
            f"fixed sublattice rank {rank} exceeds guard {SHELL_DIM_CAP}"
        )


def _weighted_norm_solutions(weights: tuple[int, ...], target: int):
    """Integer tuples c with sum_i weights[i] * c_i^2 = target, lex order."""
    if not weights:
        return [()] if target == 0 else []
    w = weights[0]
    rest = weights[1:]
    out = []
    bound = isqrt(target // w)
    for c in range(-bound, bound + 1):
        for tail in _weighted_norm_solutions(rest, target - w * c * c):
            out.append((c,) + tail)
    return out


@lru_cache(maxsize=None)
def enumerate_fixed_shell(matrix: IntMatrix, mu: int) -> tuple[tuple[int, ...], ...]:
    """Vectors v with matrix v = v and |v|^2 = mu, without scanning the full shell.

    Works in coordinates on the fixed sublattice ker(matrix - I).  For a
    signed permutation it is spanned by the cycle vectors u_c of the cycles
    with sign +1; their supports are disjoint, so the basis is orthogonal
    with weights |u_c|^2 = L_c and the search is a weighted norm enumeration.
    """
    n = len(matrix)
    _, basis = fixed_cycles(signed_perm(matrix))
    require_series(mu, len(basis))
    if mu == 0:
        return ((0,) * n,)
    vectors = []
    for coeffs in _weighted_norm_solutions(tuple(map(len, basis)), mu):
        v = [0] * n
        for k, c in zip(coeffs, basis):
            for j, u in c:
                v[j] = k * u
        vectors.append(tuple(v))
    return tuple(sorted(vectors))


# ---------------------------------------------------------------------------
# Theta series, character sums and multiplicities

@lru_cache(maxsize=None)
def _signature(element: PointGroupElement) -> tuple[int, tuple[tuple[int, int], ...]]:
    coset, r = _element_coset(element)
    return _walk_signature(coset_walk(coset, r), r)


def _walk_signature(walk, r: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """B's signature from the (L_c, s_c, a_c) of its cycles, a_c / r = u_c . b
    mod 1: a_c and q - a_c give equal counts (send k_c to -k_c)."""
    fixed = [(length, a) for length, sign, a in walk if sign == 1]
    q = lcm(*(r // gcd(a, r) for _, a in fixed))
    reduced = ((length, a * q // r % q) for length, a in fixed)
    return q, tuple(sorted((length, min(a, q - a)) for length, a in reduced))


@lru_cache(maxsize=None)
def _theta(signature, length: int) -> tuple[tuple[int, ...], ...]:
    """Counts over zeta_q of x^0 .. x^(length - 1) in a signature's theta series: q tuples over mu,
    one per phase, each one int with x^m's count in bits B m .. B m + B - 1.  Each factor shifts
    each nonzero row j by B L k^2 into rows j + a k and j - a k (both j if a = 0), k = 1..b;
    phase-free ones go first only for speed.  B = 8 width bits, width = box.bit_length() // 8 + 1,
    raised to 1, 2, 4 or 8 if at most 8, box = prod_c (2 b_c + 1), b_c = isqrt((length - 1) //
    L_c): any partial product's x^m count, m < length, counts k with all L_c k_c^2 <= m: at most
    box < 2^B.  Counts are >= 0, so no slot below length carries, and masks drop the carries above.
    Rows decode by one little-endian struct.unpack, or one int.from_bytes a slot past 8 bytes."""
    q, factors = signature
    width = prod(2 * isqrt((length - 1) // w) + 1 for w, _ in factors).bit_length() // 8 + 1
    width = 1 << (width - 1).bit_length() if width <= 8 else width
    slot, mask, rows = 8 * width, (1 << 8 * width * length) - 1, [1] + [0] * (q - 1)
    for weight, a in sorted(factors, key=lambda factor: factor[1] != 0):
        bound = isqrt((length - 1) // weight)
        live, new = [(j, row) for j, row in enumerate(rows) if row], rows[:]
        for k in range(1, bound + 1):
            for j, row in live:
                row <<= slot * weight * k * k
                new[(j + a * k) % q] += row
                new[(j - a * k) % q] += row
        rows = [row & mask for row in new]
    data, from_bytes = [row.to_bytes(width * length, "little") for row in rows], int.from_bytes
    if width <= 8:
        return tuple(unpack(f"<{length}{'BHIQ'[width.bit_length() - 1]}", d) for d in data)
    return tuple(tuple([from_bytes(d[i:i + width], "little") for i in range(0, len(d), width)])
                 for d in data)


@lru_cache(maxsize=None)
def character_sum(element: PointGroupElement, mu: int) -> RootOfUnityTally:
    """e_{mu,B} = sum of e^(2 pi i v.b) over the fixed shell, as a tally over
    zeta_q: the x^mu coefficient of the theta series of B's signature."""
    q, factors = signature = _signature(element)
    require_series(mu, len(factors))
    return RootOfUnityTally(q, tuple(s[mu] for s in _theta(signature, 1 << mu.bit_length())))


@lru_cache(maxsize=None)
def _class_rows(defn: GroupDefinition) -> tuple:
    """The validated group's record: (|F|, one (least signature, trace row summed over its
    elements) per Galois orbit of F's signature classes), read from one walk per element: the
    torsion check's, and here the identity's.  sigma_t, t prime to q, maps the class of phases
    a_c to that of t a_c, as B -> B^t' (t' = t mod q, prime to |F|) keeps cycle type and traces:
    so every conjugate of a class must be a class with its trace row."""
    order, n = require_valid(defn).holonomy_order, defn.dim
    q, walks = _torsion_walks(defn)
    classes, orbits = {}, {}
    for walk in chain([coset_walk((range(n), (1,) * n, (0,) * n), q)], walks.values()):
        row = classes.setdefault(_walk_signature(walk, q), [0] * (n + 1))
        row[:] = map(add, row, exterior_traces(n, (c[:2] for c in walk)))
    for (m, factors), row in classes.items():
        units = (t for t in range(m) if gcd(t, m) == 1)
        orbit = {_walk_signature([(w, 1, t * a) for w, a in factors], m) for t in units}
        if any(classes.get(sig) != row for sig in orbit):
            raise NonRationalSumError(f"{defn.label or '<unnamed>'}: class {(m, factors)} lacks a "
                                      "Galois conjugate of equal traces; upstream bug")
        orbits[min(orbit)] = tuple(len(orbit) * x for x in row)
    return order, tuple(orbits.items())


@lru_cache(maxsize=None)
def _ramanujan(q: int) -> tuple[int, ...]:
    """The Ramanujan sums c_q(0 .. q-1), c_q(j) the trace of zeta_q^j to Q (Hardy & Wright,
    section 16.6), by Moebius inversion of sum_{d | q} c_d(j) = q [q | j]."""
    divisors = [d for d in range(1, q) if q % d == 0]
    return tuple((0 if j else q) - sum(_ramanujan(d)[j % d] for d in divisors) for j in range(q))


def _build_table(defn: GroupDefinition, length: int) -> list:
    """Per p, phi(Q) |F| d_{p,mu} for held length <= mu < length, Q the lcm of the class moduli:
    each orbit adds its trace row times the trace to Q of its series' new columns, (phi(Q)/phi(q))
    sum_j c_q(j) counts_j.  A series not real, counts_j != counts_(q-j), is refused."""
    start, (_, orbits) = _tables(defn)[0], _class_rows(defn)
    phi = _ramanujan(lcm(*(q for (q, _), _ in orbits)))[0]
    rows = [[0] * (length - start) for _ in range(defn.dim + 1)]
    for sig, traces in orbits:
        phases, ram, total = _theta(sig, length), _ramanujan(sig[0]), [0] * (length - start)
        if any(phases[j] != phases[-j] for j in range(1, len(phases))):
            mu = next(mu for mu, col in enumerate(zip(*phases)) if col[1:] != col[:0:-1])
            raise NonRationalSumError(f"{_cell(defn, 0, mu)}: tally reduces to a non-real sum; "
                                      "upstream bug")
        for c, counts in zip(ram, phases):
            if c:
                total[:] = map(add, total, map((c * phi // ram[0]).__mul__, counts[start:]))
        for row, w in zip(rows, traces):
            if w:
                row[:] = map(add, row, map(w.__mul__, total))
    return rows


def _check_table(defn: GroupDefinition, rows, start: int = 0) -> list:
    """The rows d_p of table columns from mu = start on, once every cell is a nonnegative
    integer and they pass the identities of flat manifolds: d_{0,0} = 1, d_{n,0} = 1 exactly
    if orientable (at start 0), then row p = row n - p, and a zero Euler sum at every mu.
    Otherwise raises, naming the first bad cell by p, then mu."""
    order, classes = _class_rows(defn)
    scale = order * _ramanujan(lcm(*(q for (q, _), _ in classes)))[0]
    for p, row in enumerate(rows):
        if min(row) < 0 or any(map(scale.__rmod__, row)):
            mu, x = next((mu, x) for mu, x in enumerate(row, start) if x < 0 or x % scale)
            raise InternalError(f"{_cell(defn, p, mu)}: multiplicity came out "
                                f"{Fraction(x, scale)}; must be a nonnegative integer")
    n, d = defn.dim, [list(map(scale.__rfloordiv__, row)) for row in rows]
    orientable, euler = sum(row[n] for _, row in classes) == order, d[0]
    for row in d[1:]:  # d_p - d_{p-1} + ... + (-1)^p d_0
        euler = list(map(sub, row, euler))
    bad = [] if start else [(0, 0)] if d[0][0] != 1 else [(n, 0)] if d[n][0] != orientable else []
    for p in range(n + 1) if orientable else ():
        if d[p] != d[n - p]:
            bad += [(p, mu) for mu, (a, b) in enumerate(zip(d[p], d[n - p]), start) if a != b]
    if any(euler):
        bad.append((f"0..{n}", next(mu for mu, e in enumerate(euler, start) if e)))
    if bad:
        raise InternalError(f"{_cell(defn, *bad[0])}: table breaks an identity of flat "
                            "manifolds; upstream bug")
    return d


def _cell(defn: GroupDefinition, p, mu) -> str:
    return f"{defn.label or '<unnamed>'} at p={p}, mu={mu}"


_tables = lru_cache(maxsize=None)(lambda defn: [0, [[]] * (defn.dim + 1)])  # [length, d] per group


def _table(defn: GroupDefinition, mu: int) -> list:
    """The group's checked rows d, if shorter grown to max(twice its length, mu + 1) columns
    within the norm guard: only new columns are built and checked, and kept once they pass.
    The identity class has rank n, so the guard refuses what any class would."""
    require_series(mu, defn.dim)
    held = _tables(defn)
    if mu >= held[0]:
        length = min(max(2 * held[0], mu + 1), SHELL_NORM_CAP + 1)
        new = _check_table(defn, _build_table(defn, length), held[0])
        held[:] = length, list(map(add, held[1], new))
    return held[1]


def read_rows(defn: GroupDefinition, degrees, mu_max: int) -> list[list[int]]:
    """d_{p,0..mu_max} for each p of ``degrees``, which the caller has checked
    with the cutoff: slices of the group's checked rows."""
    _class_rows(defn)  # an invalid group is refused first, before the rank guard
    if not degrees:
        return []
    d = _table(defn, mu_max)
    return [d[p][:mu_max + 1] for p in degrees]


@lru_cache(maxsize=None, typed=True)
def multiplicity(defn: GroupDefinition, p: int, mu: int) -> int:
    """Exact d_{p,mu}: multiplicity of eigenvalue 4 pi^2 mu on p-forms, a read
    of the group's table."""
    _class_rows(defn)
    form_degrees(defn.dim, (p,))
    return _table(defn, mu)[p][mu]


def betti(defn: GroupDefinition, p: int) -> int:
    """p-th Betti number; equals the multiplicity of eigenvalue 0 on p-forms."""
    return multiplicity(defn, p, 0)


def betti_row(defn: GroupDefinition) -> tuple[int, ...]:
    return tuple(row[0] for row in read_rows(defn, range(defn.dim + 1), 0))


class MultiplicityTable(Record):
    """Map (p, mu) -> d_{p,mu}; the eigenvalue for key mu is 4 pi^2 mu."""

    __slots__ = ("entries",)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)


def form_degrees(dim: int, p_set=None) -> list[int]:
    """The distinct degrees of ``p_set`` in order, all of 0..dim when None.
    Each is checked as it is drawn, so a huge range fails before it is stored."""
    if p_set is None:
        return list(range(dim + 1))
    seen = set()
    for p in p_set:
        if not isinstance(p, int):
            raise UsageError(f"form degree {p} must be an integer")
        if not 0 <= p <= dim:
            raise UsageError(f"form degree {p} out of range for dimension {dim}")
        seen.add(p)
    return sorted(seen)


def require_cutoff(mu_max: int) -> None:
    """Refuse a cutoff that is not a nonnegative integer, or one that the norm
    guard would stop part way."""
    if not isinstance(mu_max, int):
        raise UsageError(f"cutoff {mu_max} must be an integer")
    if mu_max < 0:
        raise UsageError(f"cutoff {mu_max} must be nonnegative")
    if mu_max > SHELL_NORM_CAP:
        raise EnumerationGuardError(f"cutoff {mu_max} exceeds guard {SHELL_NORM_CAP}")


def multiplicity_table(
    defn: GroupDefinition, p_set, mu_max: int
) -> MultiplicityTable:
    require_cutoff(mu_max)
    degrees = form_degrees(defn.dim, p_set)
    rows = read_rows(defn, degrees, mu_max)
    return MultiplicityTable(tuple(zip(product(degrees, range(mu_max + 1)), chain(*rows))))
