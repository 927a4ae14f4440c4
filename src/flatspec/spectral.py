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
(Schoenhage, EUROCAM 1982; Harvey, J. Symb. Comput. 44, 2009).  Each group keeps one
table of checked integer rows d_p.  A cell is rational, so it is its trace to Q over
phi(Q), Q the lcm of the class moduli: one series per Galois orbit of classes, summed by
Ramanujan sums, times its trace row.  The table is weighted and checked on the packed
rows, one big-int operation per term and one int per p in a slot wide enough that every
identity of flat manifolds is an equation of ints, and each row is decoded once, by one
struct call.  A failing check refuses the table by its first bad cell; every reader
slices the rows.  Asking past a table's length grows it in place to twice its length, or
to the cutoff if longer: only the new columns are built, checked and kept.  A single
tally is decided by the same Ramanujan sums, through its trace form Tr(t conj t).

Table keys use mu throughout; the eigenvalue itself is 4*pi^2*mu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd, isqrt, lcm, prod
from operator import add, mul
from struct import unpack

from .crystal import (
    GroupDefinition,
    PointGroupElement,
    _element_coset,
    _fixed_phases,
    _group,
    require_valid,
)
from .exact_linear import (
    IntMatrix,
    InternalError,
    LimitError,
    Record,
    UsageError,
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
    """A sum that must be rational is not: its tally, series or Galois orbit is broken."""


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
def _ramanujan(q: int) -> tuple[int, ...]:
    """The Ramanujan sums c_q(0 .. q-1), c_q(j) the trace of zeta_q^j to Q (Hardy & Wright,
    section 16.6), by Moebius inversion of sum_{d | q} c_d(j) = q [q | j]."""
    divisors = [d for d in range(1, q) if q % d == 0]
    return tuple((0 if j else q) - sum(_ramanujan(d)[j % d] for d in divisors) for j in range(q))


def _norm_trace(q: int, y) -> int:
    """Tr(y conj y) = sum_{k,l} y_k y_l c_q(k - l) for y = sum_k y_k zeta_q^k, over the
    nonzero y_k only, each by one dot over l: the sum of |sigma(y)|^2 over the embeddings
    sigma of Q(zeta_q), so it is 0 exactly when y is 0."""
    ram = _ramanujan(q) * 2  # ram[q - k + l] = c_q(k - l)
    return sum(a * sum(map(mul, y, ram[q - k:2 * q - k])) for k, a in enumerate(y) if a)


def reduce_tally(t: RootOfUnityTally) -> Fraction:
    """Exact rational value of the tally; non-rational sums are an error.

    A rational t is its field trace Tr(t) = sum_k counts_k c_Q(k) over
    phi(Q) = c_Q(0), so t is rational exactly when phi(Q) t - Tr(t) is 0.
    """
    ram = _ramanujan(t.modulus)
    trace = sum(map(mul, t.counts, ram))
    y = [ram[0] * t.counts[0] - trace] + [ram[0] * c for c in t.counts[1:]]
    if _norm_trace(t.modulus, y):
        raise NonRationalSumError(f"tally over zeta_{t.modulus} with counts {t.counts} "
                                  "is not rational; upstream bug")
    return Fraction(trace, ram[0])


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
    """Whether the tally is 0 as an algebraic number, i.e. Tr(t conj t) is 0
    (its counts need not all be 0)."""
    return not _norm_trace(t.modulus, t.counts)


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
    _, _, basis = fixed_cycles(signed_perm(matrix))
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
    (image, sign, t), r = _element_coset(element)
    _, _, fixed = fixed_cycles((image, sign))
    return _walk_signature(list(zip(map(len, fixed), _fixed_phases(fixed, t, r))), r)


def _walk_signature(fixed, r: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """B's signature from the (L_c, a_c) of its fixed cycles, a_c / r = u_c . b
    mod 1: a_c and q - a_c give equal counts (send k_c to -k_c)."""
    q = lcm(*(r // gcd(a, r) for _, a in fixed))
    reduced = ((length, a * q // r % q) for length, a in fixed)
    return q, tuple(sorted((length, min(a, q - a)) for length, a in reduced))


def _box(factors, length: int) -> int:
    """prod_c (2 b_c + 1), b_c = isqrt((length - 1) // L_c): the vectors sum_c k_c u_c with
    every L_c k_c^2 < length, so a bound on every count of x^m, m < length, in the series."""
    return prod(2 * isqrt((length - 1) // weight) + 1 for weight, _ in factors)


def _slot_width(bound: int) -> int:
    """Bytes of a slot that holds 0 .. bound: bound.bit_length() // 8 + 1, so always a bit to
    spare, raised to 1, 2, 4 or 8 if at most 8, so that one struct code decodes it."""
    width = bound.bit_length() // 8 + 1
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _spread(data: bytes, width: int, wider: int, count: int) -> bytearray:
    """``count`` slots of width bytes, each moved into a slot of wider bytes with zeros above
    it: one extended-slice copy per byte of a slot."""
    out = bytearray(wider * count)
    for b in range(width):
        out[b::wider] = data[b::width]
    return out


def _decode(packed: int, width: int, length: int) -> tuple[int, ...]:
    """The slots 0 .. length - 1, of width bytes each, of a packed int whose slots are all in
    0 .. 2^(8 width) - 1, by one little-endian struct.unpack: a slot of 3, 5, 6 or 7 bytes is
    first spread to 4 or 8, and one past 8 bytes to whole 8-byte words, which are then joined
    by one map per word."""
    data = packed.to_bytes(width * length, "little")
    wider = 1 << (width - 1).bit_length() if width <= 8 else -(-width // 8) * 8
    if wider != width:
        data, width = _spread(data, width, wider, length), wider
    if width <= 8:
        return unpack(f"<{length}{'BHIQ'[width.bit_length() - 1]}", data)
    words, k = unpack(f"<{length * width // 8}Q", data), width // 8
    value = words[k - 1::k]
    for i in range(k - 2, -1, -1):  # Horner in 2^64, lowest word last
        value = map(add, words[i::k], map((1 << 64).__mul__, value))
    return tuple(value)


@lru_cache(maxsize=None)
def _theta(signature, length: int, width: int) -> tuple[int, ...]:
    """Counts over zeta_q of x^0 .. x^(length - 1) in a signature's theta series: q packed ints,
    one per phase, each with x^m's count in bits B m .. B m + B - 1, B = 8 width.  Each factor
    shifts each nonzero row j by B L k^2 into rows j + a k and j - a k, k = 1..b, or by one bit
    more into row j alone if a = 0; phase-free ones go first only for speed.  Any width whose
    slot holds the box will do, box < 2^B: any partial product's x^m count, m < length, counts
    k with all L_c k_c^2 <= m, so at most the box.  Counts are >= 0, so no slot below length
    carries, and masks drop the carries above."""
    q, factors = signature
    slot, mask, rows = 8 * width, (1 << 8 * width * length) - 1, [1] + [0] * (q - 1)
    for weight, a in sorted(factors, key=lambda factor: factor[1] != 0):
        bound = isqrt((length - 1) // weight)
        live, new = [(j, row) for j, row in enumerate(rows) if row], rows[:]
        for k in range(1, bound + 1):
            for j, row in live:
                row <<= slot * weight * k * k + (a == 0)
                new[(j + a * k) % q] += row
                if a:
                    new[(j - a * k) % q] += row
        rows = [row & mask for row in new]
    return tuple(rows)


def _series(signature, length: int) -> tuple[tuple[int, ...], ...]:
    """The theta series of a signature as q tuples of counts over mu, built and decoded in
    slots of its own box's width; the packed build is cached, the decoded counts are not."""
    width = _slot_width(_box(signature[1], length))
    return tuple(_decode(row, width, length) for row in _theta(signature, length, width))


@lru_cache(maxsize=None)
def character_sum(element: PointGroupElement, mu: int) -> RootOfUnityTally:
    """e_{mu,B} = sum of e^(2 pi i v.b) over the fixed shell, as a tally over
    zeta_q: the x^mu coefficient of the theta series of B's signature."""
    q, factors = signature = _signature(element)
    require_series(mu, len(factors))
    return RootOfUnityTally(q, tuple(s[mu] for s in _series(signature, 1 << mu.bit_length())))


@lru_cache(maxsize=None)
def _trace_rows(closure) -> tuple[tuple[int, ...], ...]:
    """The exterior-trace row of each word's matrix, from the cycle type the
    matrix closure holds: one row set per set of generator matrices."""
    return tuple(exterior_traces(closure.dim, walk[1]) for walk in closure.walks)


@lru_cache(maxsize=None)
def _class_rows(defn: GroupDefinition) -> tuple:
    """The validated group's record: (|F|, one (least signature, trace row summed over its
    elements) per Galois orbit of F's signature classes), read from the matrix closure's cycle
    types and the group record's phases, so no element is walked here.  sigma_t, t prime to q,
    maps the class of phases a_c to that of t a_c, as B -> B^t' (t' = t mod q, prime to |F|)
    keeps cycle type and traces: so every conjugate of a class must be a class with its row."""
    order, n = require_valid(defn).holonomy_order, defn.dim
    group = _group(defn)
    q, closure, classes, orbits = group.q, group.closure, {}, {}
    for walk, a, traces in zip(closure.walks, group.phases, _trace_rows(closure)):
        row = classes.setdefault(_walk_signature(list(zip(map(len, walk[2]), a)), q), [0] * (n + 1))
        row[:] = map(add, row, traces)
    for (m, factors), row in classes.items():
        units = (t for t in range(m) if gcd(t, m) == 1)
        orbit = {_walk_signature([(w, t * a) for w, a in factors], m) for t in units}
        if any(classes.get(sig) != row for sig in orbit):
            _trace_rows.cache_clear()  # a refused record keeps no trace rows either
            raise NonRationalSumError(f"{defn.label or '<unnamed>'}: class {(m, factors)} lacks a "
                                      "Galois conjugate of equal traces; upstream bug")
        orbits[min(orbit)] = tuple(len(orbit) * x for x in row)
    return order, tuple(orbits.items())


def _build_table(defn: GroupDefinition, start: int, length: int) -> tuple:
    """(rows, width, bound, columns) for the columns start <= mu < length: rows holds per p
    one packed int whose slot mu - start, of B = 8 width bits, is phi(Q) |F| d_{p,mu}, Q the
    lcm of the class moduli.  Each orbit adds its trace row t times the trace to Q of its series,
    (phi(Q)/phi(q)) sum_j c_q(j) row_j, one big-int operation per term.

    A series count is at most its box, so the orbit's term has cells of magnitude at most
    cell = (phi(Q)/phi(q)) (sum_j |c_q(j)|) box, and every table cell, and every signed sum over p
    of one column, at most bound = sum over orbits and p of |t_p| cell.  The width holds
    4 bound, as ``_slot_width`` rounds it, so those all lie within 2^(B-2) of 0.  Every series is
    built in that slot, which holds its box since bound >= cell (t_0 >= 1).  Rows are >= 0, so
    dropping the slots below start by a shift is exact.  A series not real, row_j != row_(q-j), is
    refused at its first mu."""
    _, orbits = _class_rows(defn)
    phi = _ramanujan(lcm(*(q for (q, _), _ in orbits)))[0]
    bound = sum(phi // _ramanujan(q)[0] * sum(map(abs, _ramanujan(q))) * _box(factors, length)
                * sum(map(abs, traces)) for (q, factors), traces in orbits)
    width, accs = _slot_width(4 * bound), [0] * (defn.dim + 1)
    for sig, traces in orbits:
        rows, ram = _theta(sig, length, width), _ramanujan(sig[0])
        if any(rows[j] != rows[-j] for j in range(1, len(rows))):
            phases = [_decode(row, width, length) for row in rows]
            mu = next(mu for mu, col in enumerate(zip(*phases)) if col[1:] != col[:0:-1])
            raise NonRationalSumError(f"{_cell(defn, 0, mu)}: tally reduces to a non-real sum; "
                                      "upstream bug")
        total = sum([c * (row >> 8 * width * start) for c, row in zip(ram, rows) if c])
        total *= phi // ram[0]
        for p, t in enumerate(traces):
            if t:
                accs[p] += t * total
    return accs, width, bound, length - start


def _cells(packed: int, width: int, columns: int) -> list:
    """The signed slots of a packed int whose slots all lie in -2^(B-1) .. 2^(B-1) - 1,
    B = 8 width: a bias of 2^(B-1) per slot makes each one nonnegative, so none borrows."""
    half = 1 << 8 * width - 1
    bias = int.from_bytes(half.to_bytes(width, "little") * columns, "little")
    return [x - half for x in _decode(packed + bias, width, columns)]


def _check_table(defn: GroupDefinition, built, start: int = 0) -> list:
    """The rows d_p of table columns from mu = start on, from ``_build_table``'s packed rows, once
    every cell is a nonnegative integer and they pass the identities of flat manifolds:
    d_{0,0} = 1, d_{n,0} = 1 exactly if orientable (at start 0), then row p = row n - p, and a
    zero Euler sum at every mu.  Otherwise raises, naming the first bad cell by p, then mu.

    Each is decided on the n + 1 packed ints.  A sum S = sum_mu w_mu 2^(B mu) with every
    |w_mu| < 2^(B-1) is 0 only if every w_mu is: else take the least mu with w_mu != 0; then
    S / 2^(B mu) = w_mu + 2^B m for an integer m, so 2^B divides w_mu, yet 0 < |w_mu| < 2^B.
    The cells, their differences and their signed column sums all lie within 2^(B-1) of 0, so
    duality is acc_p == acc_(n-p) and the Euler sum is sum_p (-1)^p acc_p == 0.  A row's cells
    are all >= 0 exactly when acc_p >= 0 and no decoded slot exceeds the bound: below its least
    negative cell v nothing borrows, so that slot reads 2^B + v >= 2^B - bound > bound.  Only a
    row that fails this is decoded again slot by slot, with signs, to name its cell."""
    order, classes = _class_rows(defn)
    scale = order * _ramanujan(lcm(*(q for (q, _), _ in classes)))[0]
    (accs, width, bound, columns), n, d = built, defn.dim, []
    for p, acc in enumerate(accs):
        if p > n - p and acc == accs[n - p]:  # the row of n - p, already checked
            d.append(d[n - p][:])
            continue
        row = _decode(acc, width, columns) if acc >= 0 else None
        if row is None or max(row) > bound or any(map(scale.__rmod__, row)):
            row = _cells(acc, width, columns)
            for mu, x in enumerate(row, start):
                if x < 0 or x % scale:
                    raise InternalError(f"{_cell(defn, p, mu)}: multiplicity came out "
                                        f"{Fraction(x, scale)}; must be a nonnegative integer")
        d.append(list(map(scale.__rfloordiv__, row)))
    bad, orientable = None, sum(row[n] for _, row in classes) == order
    if not start and (d[0][0] != 1 or d[n][0] != orientable):
        bad = (0, 0) if d[0][0] != 1 else (n, 0)
    elif orientable and accs != accs[::-1]:
        p = next(p for p in range(n + 1) if accs[p] != accs[n - p])
        bad = p, next(mu for mu, (a, b) in enumerate(zip(d[p], d[n - p]), start) if a != b)
    elif sum(accs[::2]) != sum(accs[1::2]):  # d_0 - d_1 + ... + (-1)^n d_n
        bad = f"0..{n}", next(mu for mu, col in enumerate(zip(*d), start)
                              if sum(col[::2]) != sum(col[1::2]))
    if bad:
        raise InternalError(f"{_cell(defn, *bad)}: table breaks an identity of flat "
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
        new = _check_table(defn, _build_table(defn, held[0], length), held[0])
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
