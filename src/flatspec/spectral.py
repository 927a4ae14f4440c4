"""Exact Hodge-Laplacian spectra on p-forms.

For a valid group the multiplicity of the eigenvalue 4*pi^2*mu on p-forms is

    d_{p,mu} = |F|^{-1} sum_{B in F} trace_p(B) e_{mu,B},

where e_{mu,B} sums e^{2*pi*i v.b} over lattice vectors v of squared norm mu
fixed by B.  Each e_{mu,B} is an integer tally of q-th roots of unity, the
phase of v being v.(q b) mod q; a cell adds its weighted tallies into one flat
list over zeta_Q, Q the lcm of their q, and reduces it once modulo Phi_Q.

Table keys use mu throughout; the eigenvalue itself is 4*pi^2*mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, lcm

from .crystal import (
    GroupDefinition,
    HWMatrix,
    PointGroupElement,
    build_hw_group,
    close_point_group,
    require_valid,
)
from .exact_linear import (
    IntMatrix,
    cycles,
    signed_perm,
    trace_p,
)
from .krawtchouk import krawtchouk

SHELL_NORM_CAP = 10**4
SHELL_DIM_CAP = 12
PROJECTOR_BASIS_CAP = 20000

HALF = Fraction(1, 2)


class EnumerationGuardError(ValueError):
    """A lattice enumeration would exceed its configured guard."""


class NonRationalSumError(ArithmeticError):
    """A tally expected to be rational reduced to a non-constant residue."""


# ---------------------------------------------------------------------------
# Exact sums of roots of unity

@dataclass(frozen=True)
class RootOfUnityTally:
    """Integer combination sum_k counts[k] * zeta_Q^k, held exactly."""

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if len(self.counts) != self.modulus:
            raise ValueError("counts length must equal the modulus")


def tally_zero(modulus: int = 1) -> RootOfUnityTally:
    return RootOfUnityTally(modulus, (0,) * modulus)


def tally_rescale(t: RootOfUnityTally, modulus: int) -> RootOfUnityTally:
    """Re-express over zeta_modulus; requires t.modulus | modulus."""
    if modulus % t.modulus != 0:
        raise ValueError("new modulus must be a multiple of the old one")
    step = modulus // t.modulus
    counts = [0] * modulus
    for k, c in enumerate(t.counts):
        counts[k * step] = c
    return RootOfUnityTally(modulus, tuple(counts))


def tally_add(a: RootOfUnityTally, b: RootOfUnityTally) -> RootOfUnityTally:
    q = lcm(a.modulus, b.modulus)
    ar = tally_rescale(a, q)
    br = tally_rescale(b, q)
    return RootOfUnityTally(q, tuple(x + y for x, y in zip(ar.counts, br.counts)))


def tally_scale(t: RootOfUnityTally, weight: int) -> RootOfUnityTally:
    return RootOfUnityTally(t.modulus, tuple(weight * c for c in t.counts))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Coefficients of Phi_q, ascending, computed by dividing x^q - 1 by the
    cyclotomic polynomials of the proper divisors of q."""
    if q < 1:
        raise ValueError("index must be positive")
    poly = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            poly = _poly_exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    quot, rem = _poly_divmod(num, den)
    if any(rem):
        raise ArithmeticError("expected exact polynomial division")
    return quot


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
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
    rem = num[:dd]
    while len(rem) > 1 and rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _residue(counts, modulus: int) -> list[int]:
    poly = list(counts)
    _, rem = _poly_divmod(poly, list(cyclotomic_polynomial(modulus)))
    return rem


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
    return Fraction(rem[0] if rem else 0)


def tallies_equal(a: RootOfUnityTally, b: RootOfUnityTally) -> bool:
    """Equality as algebraic numbers (count vectors may differ)."""
    q = lcm(a.modulus, b.modulus)
    ar = tally_rescale(a, q)
    br = tally_rescale(b, q)
    diff = [x - y for x, y in zip(ar.counts, br.counts)]
    return not any(_residue(diff, q))


# ---------------------------------------------------------------------------
# Lattice shells

@dataclass(frozen=True)
class Shell:
    """All v in Z^n with squared norm mu, in lexicographic order."""

    n: int
    mu: int
    vectors: tuple[tuple[int, ...], ...]


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
def enumerate_shell(n: int, mu: int) -> Shell:
    """Full norm shell of Z^n, enumerated by exact recursive descent."""
    if mu < 0:
        raise ValueError("squared norm must be nonnegative")
    if mu > SHELL_NORM_CAP:
        raise EnumerationGuardError(f"norm {mu} exceeds guard {SHELL_NORM_CAP}")
    if n > SHELL_DIM_CAP:
        raise EnumerationGuardError(f"dimension {n} exceeds guard {SHELL_DIM_CAP}")
    return Shell(n=n, mu=mu, vectors=tuple(_weighted_norm_solutions((1,) * n, mu)))


@lru_cache(maxsize=None)
def enumerate_fixed_shell(matrix: IntMatrix, mu: int) -> tuple[tuple[int, ...], ...]:
    """Vectors v with matrix v = v and |v|^2 = mu, without scanning the full shell.

    Works in coordinates on the fixed sublattice ker(matrix - I).  For a
    signed permutation it is spanned by the cycle vectors u_c of the cycles
    with sign +1; their supports are disjoint, so the basis is orthogonal
    with weights |u_c|^2 = L_c and the search is a weighted norm enumeration.
    """
    n = len(matrix)
    if mu < 0:
        raise ValueError("squared norm must be nonnegative")
    if mu > SHELL_NORM_CAP:
        raise EnumerationGuardError(f"norm {mu} exceeds guard {SHELL_NORM_CAP}")
    if mu == 0:
        return ((0,) * n,)
    basis = [c for c in cycles(matrix) if c.sign == 1]
    if not basis:
        return ()
    if len(basis) > SHELL_DIM_CAP:
        raise EnumerationGuardError(
            f"fixed sublattice rank {len(basis)} exceeds guard {SHELL_DIM_CAP}"
        )
    weights = tuple(len(c.support) for c in basis)
    vectors = []
    for coeffs in _weighted_norm_solutions(weights, mu):
        v = [0] * n
        for k, c in zip(coeffs, basis):
            for j in c.support:
                v[j] = k * c.vector[j]
        vectors.append(tuple(v))
    return tuple(sorted(vectors))


# ---------------------------------------------------------------------------
# Character sums and multiplicities

@lru_cache(maxsize=None)
def character_sum(element: PointGroupElement, mu: int) -> RootOfUnityTally:
    """e_{mu,B} = sum of e^(2 pi i v.b) over the fixed shell, as a tally over
    zeta_q: with q the lcm of the denominators of b and t = q b, v has phase v.t."""
    q = lcm(*(x.denominator for x in element.translation))
    t = [(j, x.numerator * (q // x.denominator)) for j, x in enumerate(element.translation) if x]
    counts = [0] * q
    for v in enumerate_fixed_shell(element.matrix, mu):
        counts[sum(v[j] * tj for j, tj in t) % q] += 1
    return RootOfUnityTally(q, tuple(counts))


@lru_cache(maxsize=None)
def multiplicity(defn: GroupDefinition, p: int, mu: int) -> int:
    """Exact d_{p,mu}: multiplicity of eigenvalue 4 pi^2 mu on p-forms."""
    require_valid(defn)
    if not 0 <= p <= defn.dim:
        raise ValueError(f"form degree {p} out of range for dimension {defn.dim}")
    elements = close_point_group(defn)
    terms = [(w, character_sum(el, mu)) for el in elements if (w := trace_p(el.matrix, p))]
    q = lcm(*(t.modulus for _, t in terms))
    counts = [0] * q
    for w, t in terms:
        for k, c in enumerate(t.counts):
            counts[k * (q // t.modulus)] += w * c
    cell = f"{defn.label or '<unnamed>'} at p={p}, mu={mu}"
    try:
        value = reduce_tally(RootOfUnityTally(q, tuple(counts))) / len(elements)
    except NonRationalSumError as exc:
        raise NonRationalSumError(f"{cell}: {exc}") from exc
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(
            f"{cell}: multiplicity came out {value}; must be a nonnegative integer"
        )
    return int(value)


def multiplicity_hw(a: HWMatrix, p: int, mu: int) -> int:
    """Multiplicity for the diagonal 2-torsion family, by the combinatorial
    rewrite: every phase is +-1, indexed by odd coordinate supersets of the
    support of v."""
    defn = build_hw_group(a)
    require_valid(defn)
    n = a.n
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} out of range for dimension {n}")
    elements = close_point_group(defn)
    translation_by_fixed = {}
    for el in elements:
        fixed = frozenset(i for i in range(n) if el.matrix[i][i] == 1)
        translation_by_fixed[fixed] = el.translation

    total = 0
    for v in enumerate_shell(n, mu).vectors:
        support = [j for j in range(n) if v[j] != 0]
        odd_support = [j for j in range(n) if v[j] % 2]
        rest = [j for j in range(n) if v[j] == 0]
        for size in range(len(rest) + 1):
            if (len(support) + size) % 2 == 0:
                continue
            for extra in combinations(rest, size):
                fixed = frozenset(support) | frozenset(extra)
                b = translation_by_fixed[fixed]
                flips = sum(1 for j in odd_support if b[j] == HALF)
                term = krawtchouk(p, len(fixed), n)
                total += -term if flips % 2 else term
    value = Fraction((-1) ** p * total, len(elements))
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(
            f"multiplicity came out {value}; must be a nonnegative integer"
        )
    return int(value)


def betti(defn: GroupDefinition, p: int) -> int:
    """p-th Betti number; equals the multiplicity of eigenvalue 0 on p-forms."""
    return multiplicity(defn, p, 0)


def betti_row(defn: GroupDefinition) -> tuple[int, ...]:
    return tuple(betti(defn, p) for p in range(defn.dim + 1))


@dataclass(frozen=True)
class MultiplicityTable:
    """Map (p, mu) -> d_{p,mu}; the eigenvalue for key mu is 4 pi^2 mu."""

    entries: tuple[tuple[tuple[int, int], int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)


def multiplicity_table(
    defn: GroupDefinition, p_set, mu_max: int
) -> MultiplicityTable:
    entries = []
    for p in sorted(p_set):
        for mu in range(mu_max + 1):
            entries.append(((p, mu), multiplicity(defn, p, mu)))
    return MultiplicityTable(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Independent projector oracle

def projector_oracle(defn: GroupDefinition, p: int, mu: int) -> int:
    """Trace of the group-averaging projector on the (f_v dx_J) eigenbasis.

    Builds sum_gamma gamma^* as an explicit monomial matrix over root-of-unity
    tallies, verifies idempotency of the average exactly, and returns its
    trace.  Independent of the character-sum route.
    """
    require_valid(defn)
    n = defn.dim
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} out of range for dimension {n}")
    elements = close_point_group(defn)
    shell = enumerate_shell(n, mu).vectors
    j_list = list(combinations(range(n), p))
    size = len(shell) * len(j_list)
    if size > PROJECTOR_BASIS_CAP:
        raise EnumerationGuardError(
            f"projector basis size {size} exceeds guard {PROJECTOR_BASIS_CAP}"
        )
    width = len(j_list)
    j_index = {jj: t for t, jj in enumerate(j_list)}
    shell_index = {v: i for i, v in enumerate(shell)}

    q = lcm(*(x.denominator for el in elements for x in el.translation))

    # basis index (v_i, J_t) -> v_i * width + t;
    # columns[c] maps row -> {exponent: signed count}
    columns: list[dict[int, dict[int, int]]] = [dict() for _ in range(size)]
    for el in elements:
        image, sign = signed_perm(el.matrix)
        # gamma^* dx_i = sign[j] dx_j for the j with image[j] = i
        target = [0] * n
        for j, i in enumerate(image):
            target[i] = j
        j_images = []
        for jj in j_list:
            raw = tuple(target[t] for t in jj)
            eps = _sort_parity(raw)
            for j in raw:
                eps *= sign[j]
            j_images.append((j_index[tuple(sorted(raw))], eps))
        scaled = [int(x * q) for x in el.translation]  # q * b, integral
        for vi, v in enumerate(shell):
            v2 = tuple(s * v[i] for s, i in zip(sign, image))  # B^{-1} v
            base_row = shell_index[v2] * width
            phase = sum(a * b for a, b in zip(v2, scaled)) % q
            base_col = vi * width
            for t, (j2i, eps) in enumerate(j_images):
                cell = columns[base_col + t].setdefault(base_row + j2i, {})
                cell[phase] = cell.get(phase, 0) + eps

    card = len(elements)
    # idempotency of the average: T^2 must equal |F| T as algebraic numbers
    for col in range(size):
        acc: dict[int, dict[int, int]] = {}
        for mid, t1 in columns[col].items():
            for row, t2 in columns[mid].items():
                bucket = acc.setdefault(row, {})
                for e1, c1 in t1.items():
                    for e2, c2 in t2.items():
                        k = (e1 + e2) % q
                        bucket[k] = bucket.get(k, 0) + c1 * c2
        for row in acc.keys() | columns[col].keys():
            left = {e: c for e, c in acc.get(row, {}).items() if c}
            right = {
                e: card * c for e, c in columns[col].get(row, {}).items() if c
            }
            if left == right:
                continue
            # bucket vectors differ; compare as algebraic numbers
            diff = [0] * q
            for e, c in left.items():
                diff[e] += c
            for e, c in right.items():
                diff[e] -= c
            if any(_residue(diff, q)):
                raise ArithmeticError("projector is not idempotent; internal error")

    trace = [0] * q
    for col in range(size):
        for e, c in columns[col].get(col, {}).items():
            trace[e] += c
    value = reduce_tally(RootOfUnityTally(q, tuple(trace))) / card
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"projector trace came out {value}; internal error")
    return int(value)


def _sort_parity(seq: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1
