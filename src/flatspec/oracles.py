"""Independent cross-checks of the spectral engine, used only to test it: the
projector oracle, the diagonal 2-torsion (HW) rewrite, full norm shells, the
reference cycle walk, theta series by slice convolution, sums of roots of unity
reduced modulo the cyclotomic polynomial, whole tables by signature classes,
binary Krawtchouk values, lattice membership by Hermite bases and Kunneth Betti
numbers of a product with a torus.  The engine modules never import this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import comb, gcd, isqrt, lcm
from operator import add, eq, mul
from typing import Sequence

from .crystal import (
    GroupDefinition,
    HWMatrix,
    build_hw_group,
    close_point_group,
    extend_with_characters,
    require_valid,
)
from .exact_linear import (
    Coset,
    IntMatrix,
    InternalError,
    UsageError,
    hermite_row_basis,
    signed_perm,
)
from .spectral import (
    SHELL_DIM_CAP,
    EnumerationGuardError,
    RootOfUnityTally,
    _weighted_norm_solutions,
    betti_row,
    form_degrees,
    multiplicity,
    require_series,
)

PROJECTOR_BASIS_CAP = 20000
SUBSET_ORACLE_CAP = 22

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Lattice shells

@lru_cache(maxsize=None)
def enumerate_shell(n: int, mu: int) -> tuple[tuple[int, ...], ...]:
    """All v in Z^n with squared norm mu, in lexicographic order, by exact
    recursive descent."""
    require_series(mu)
    if n > SHELL_DIM_CAP:
        raise EnumerationGuardError(f"dimension {n} exceeds guard {SHELL_DIM_CAP}")
    return tuple(_weighted_norm_solutions((1,) * n, mu))


# ---------------------------------------------------------------------------
# Signed permutations

def coset_walk(coset: Coset, q: int) -> tuple[tuple[int, int, int], ...]:
    """(L_c, s_c, u_c . t mod q) for each cycle c of B, by one walk over (image,
    sign): c visits its L_c coordinates from the least, u_c is the +-1 vector
    met along it, and s_c the product of its signs, so B u_c = u_c iff s_c = 1.
    The reference for the engine's ``fixed_cycles`` and ``crystal._fixed_phases``."""
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


# ---------------------------------------------------------------------------
# Theta series

def theta_by_slices(signature, length: int) -> tuple[tuple[int, ...], ...]:
    """Counts over zeta_q of x^0 .. x^(length - 1) in the theta series of a
    signature, as q tuples over mu, one per phase; each factor adds in one
    shifted slice per nonzero term k.  A list convolution, independent of the
    engine's packed-integer build.
    """
    q, factors = signature
    series = [[1] + [0] * (length - 1)] + [[0] * length for _ in range(q - 1)]
    top = 1  # every coefficient from x^top on is 0
    for weight, a in factors:
        rows = [(j, row[:top]) for j, row in enumerate(series) if any(row)]
        series = [[0] * length for _ in range(q)]
        bound = isqrt((length - 1) // weight)
        for k in range(-bound, bound + 1):
            shift = weight * k * k
            end = min(length, shift + top)
            for j, row in rows:
                dest = series[(j + a * k) % q]
                dest[shift:end] = map(add, dest[shift:end], row)
        top = min(length, top + weight * bound * bound)
    return tuple(map(tuple, series))


# ---------------------------------------------------------------------------
# Cyclotomic reduction

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


def cyclotomic_residue(t: RootOfUnityTally) -> tuple[int, ...]:
    """The counts of t modulo Phi_Q, Q its modulus: its coordinates on the basis
    1, zeta_Q, ..., zeta_Q^(phi(Q)-1), so constant exactly when t is rational
    and 0 exactly when t is 0.  Independent of the engine's Ramanujan sums."""
    return tuple(_residue(t.counts, t.modulus))


# ---------------------------------------------------------------------------
# Tables by signature classes

def _newton_traces(n: int, walk) -> list[int]:
    """trace_p(B), p = 0..n, from the cycles (L_c, s_c, ...) of B: the elementary
    symmetric functions e_p of its eigenvalues, by Newton's identities
    p e_p = sum_{i=1}^p (-1)^(i-1) e_(p-i) tr(B^i), where tr(B^i) sums
    L_c s_c^(i / L_c) over the cycles with L_c | i."""
    power = [sum(c[0] * c[1] ** (i // c[0]) for c in walk if i % c[0] == 0) for i in range(n + 1)]
    e = [1]
    for p in range(1, n + 1):
        total = sum((-1) ** (i - 1) * e[p - i] * power[i] for i in range(1, p + 1))
        if total % p:
            raise InternalError(f"Newton's identity gave {total} / {p}")
        e.append(total // p)
    return e


def table_by_classes(defn: GroupDefinition, length: int) -> list[list[int]]:
    """d_{p,mu} for every p and mu < length, from one ``theta_by_slices`` series per
    signature class of elements (not per Galois orbit).  Each element is walked by
    ``coset_walk``, its class keyed by its fixed cycles' lengths and phases a over their
    own modulus q, a taken as min(a, q - a), phase-free cycles first (only for the
    speed of the slices), and its traces taken by Newton's identities.  Each class's tally,
    lifted to zeta_Q and weighted by the class's summed trace_p, is reduced modulo
    Phi_Q by ``cyclotomic_residue``, which is linear, so it is taken once per monomial
    zeta_Q^k and each series is combined through those residues.  Every cell must
    reduce to a constant that is a nonnegative multiple of |F|.  Shares no step with
    the engine's Galois orbits, Ramanujan sums or packed series."""
    require_valid(defn)
    n, elements = defn.dim, close_point_group(defn)
    classes = {}
    for el in elements:
        r = lcm(*(x.denominator for x in el.translation))
        walk = coset_walk(signed_perm(el.matrix) + (tuple(int(x * r) for x in el.translation),), r)
        fixed = [(size, a) for size, sign, a in walk if sign == 1]
        q = lcm(*(r // gcd(a, r) for _, a in fixed))
        phases = ((size, a * q // r) for size, a in fixed)  # a and q - a: k -> -k
        key = (q, tuple(sorted((a != 0, size, min(a, q - a)) for size, a in phases)))
        row = classes.setdefault(key, [0] * (n + 1))
        row[:] = map(add, row, _newton_traces(n, walk))
    big_q = lcm(*(q for q, _ in classes))
    units = [tuple(int(i == k) for i in range(big_q)) for k in range(big_q)]
    monomials = [cyclotomic_residue(RootOfUnityTally(big_q, unit)) for unit in units]
    sums = [[[0] * length for _ in monomials[0]] for _ in range(n + 1)]
    for (q, factors), row in classes.items():
        reduced = [[0] * length for _ in monomials[0]]
        series = theta_by_slices((q, tuple((size, a) for _, size, a in factors)), length)
        for j, counts in enumerate(series):
            for i, coefficient in enumerate(monomials[j * (big_q // q)]):
                if coefficient:
                    reduced[i][:] = map(add, reduced[i], map(coefficient.__mul__, counts))
        for p, w in enumerate(row):
            for total, part in zip(sums[p], reduced) if w else ():
                total[:] = map(add, total, map(w.__mul__, part))
    order, table = len(elements), []
    for p, (constant, *rest) in enumerate(sums):
        for mu, x in enumerate(constant):
            if x < 0 or x % order or any(part[mu] for part in rest):
                raise ArithmeticError(f"class table at p={p}, mu={mu} came out {x} / {order} "
                                      f"plus {[part[mu] for part in rest]}; internal error")
        table.append([x // order for x in constant])
    return table


# ---------------------------------------------------------------------------
# Projector oracle

def projector_oracle(defn: GroupDefinition, p: int, mu: int) -> int:
    """Trace of the group-averaging projector on the (f_v dx_J) eigenbasis.

    Each gamma^* is monomial on that basis: column c goes to one row with
    coefficient zeta_{2q}^e (a sign is zeta_{2q}^q), so it is held as two flat
    lists, rows and exponents.  The oracle verifies that gamma -> gamma^* is a
    representation (the identity acts trivially and M_{gamma gamma_i} =
    M_gamma M_{gamma_i} for every element and generator), which implies that
    the average (1/|F|) sum_gamma gamma^* is a projector, and returns its
    trace.  Independent of the character-sum route.
    """
    require_valid(defn)
    n = defn.dim
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} out of range for dimension {n}")
    elements = close_point_group(defn)
    shell = enumerate_shell(n, mu)
    j_list = list(combinations(range(n), p))
    width = len(j_list)
    size = len(shell) * width
    if size > PROJECTOR_BASIS_CAP:
        raise EnumerationGuardError(
            f"projector basis size {size} exceeds guard {PROJECTOR_BASIS_CAP}"
        )
    j_index = {jj: t for t, jj in enumerate(j_list)}
    shell_index = {v: i for i, v in enumerate(shell)}

    q = lcm(*(x.denominator for el in elements for x in el.translation))
    m = 2 * q

    # basis index (v_i, J_t) -> v_i * width + t
    matrices = []
    for el in elements:
        image, sign = signed_perm(el.matrix)
        # gamma^* dx_i = sign[j] dx_j for the j with image[j] = i
        target = [0] * n
        for j, i in enumerate(image):
            target[i] = j
        j_rows, j_negative = [], []
        for jj in j_list:
            raw = tuple(target[t] for t in jj)
            eps = _sort_parity(raw)
            for j in raw:
                eps *= sign[j]
            j_rows.append(j_index[tuple(sorted(raw))])
            j_negative.append(eps == -1)
        scaled = [int(x * q) for x in el.translation]  # q * b, integral
        rows, exps = [], []
        for v in shell:
            v2 = tuple(map(mul, sign, map(v.__getitem__, image)))  # B^{-1} v
            rows.extend(map((shell_index[v2] * width).__add__, j_rows))
            phase = 2 * sum(map(mul, v2, scaled)) % m  # zeta_q^(v2 . q b)
            exps.extend(map((phase, (phase + q) % m).__getitem__, j_negative))
        matrices.append((rows, exps))

    rows, exps = matrices[0]
    if rows != list(range(size)) or any(exps):
        raise ArithmeticError("identity does not act trivially; internal error")
    orders = [g.order for g in defn.generators]
    by_word = {el.word: k for k, el in enumerate(elements)}

    def times_generator(word, i):
        # gamma^word gamma_i has the word word + e_i, taken mod the orders
        return matrices[by_word[tuple((l + (k == i)) % orders[k] for k, l in enumerate(word))]]

    for el, (rows, exps) in zip(elements, matrices):
        for i in range(len(orders)):
            gen_rows, gen_exps = times_generator(elements[0].word, i)
            if times_generator(el.word, i) != (
                list(map(rows.__getitem__, gen_rows)),
                [(exps[r] + e) % m for r, e in zip(gen_rows, gen_exps)],
            ):
                raise ArithmeticError(
                    f"gamma -> gamma^* fails on element {el.word} times generator {i}; "
                    "internal error"
                )

    trace = [0] * m
    for rows, exps in matrices:
        for c in compress(range(size), map(eq, rows, range(size))):
            trace[exps[c]] += 1
    residue = cyclotomic_residue(RootOfUnityTally(m, tuple(trace)))
    value = Fraction(residue[0], len(elements))
    if any(residue[1:]) or value.denominator != 1 or value < 0:
        raise ArithmeticError(f"projector trace came out {residue} / {len(elements)}; "
                              "internal error")
    return int(value)


def _sort_parity(seq: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# Diagonal 2-torsion rewrite

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
    for v in enumerate_shell(n, mu):
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


# ---------------------------------------------------------------------------
# Binary Krawtchouk values

def _check_range(l: int, j: int, h: int) -> None:
    if not (0 <= l <= h and 0 <= j <= h):
        raise ValueError(f"need 0 <= l and j <= h, got l={l}, j={j}, h={h}")


@lru_cache(maxsize=None)
def krawtchouk(l: int, j: int, h: int) -> int:
    """K_l^h(j) by the closed form sum_t (-1)^t C(j, t) C(h - j, l - t).

    It equals the signed subset count sum over |L| = l of (-1)^{|L & I_o|} for
    any h-set I and j-subset I_o.
    """
    _check_range(l, j, h)
    return sum(
        (-1) ** t * comb(j, t) * comb(h - j, l - t) for t in range(min(j, l) + 1)
    )


def krawtchouk_subset_oracle(l: int, j: int, h: int) -> int:
    """Literal signed subset count; independent of the closed form.

    Enumerates every size-l subset of an h-set, so it is capped at h <= 22.
    """
    _check_range(l, j, h)
    if h > SUBSET_ORACLE_CAP:
        raise ValueError(f"subset oracle capped at h <= {SUBSET_ORACLE_CAP}")
    total = 0
    for subset in combinations(range(h), l):
        inter = sum(1 for x in subset if x < j)
        total += -1 if inter % 2 else 1
    return total


def diagonal_trace(p: int, n: int, n_fixed: int) -> int:
    """Exterior-power trace of the diagonal +-1 matrix fixing n_fixed coordinates.

    For diagonal B with n_B = n_fixed coordinates fixed, trace_p(B) equals
    K_p^n(n - n_B).
    """
    if not 0 <= n_fixed <= n:
        raise ValueError(f"fixed-coordinate count {n_fixed} out of range for n={n}")
    return krawtchouk(p, n - n_fixed, n)


# ---------------------------------------------------------------------------
# Lattice membership

def in_image_lattice(s: IntMatrix, w: Sequence) -> bool:
    """Decide w in s * Z^n exactly: a lattice has one Hermite basis, so w lies
    in the column lattice of s iff adding it leaves that basis unchanged.

    ``w`` must have integer entries (callers check membership in Z^n first).
    """
    if any(Fraction(x).denominator != 1 for x in w):
        raise ValueError(f"in_image_lattice needs an integer vector, got {w}")
    cols = list(zip(*s))
    return hermite_row_basis(cols) == hermite_row_basis(cols + [tuple(map(int, w))])


# ---------------------------------------------------------------------------
# Betti numbers of a product with a torus

def kunneth_betti(defn: GroupDefinition, k: int, h: int) -> int:
    """Betti number of the product with a k-torus.

    Computed as sum_i beta_i(M) C(k, h-i) and cross-checked against the
    Betti number of the group extended by k torus coordinates.
    """
    require_valid(defn)
    if k < 0:
        raise UsageError("torus factor count must be nonnegative")
    form_degrees(defn.dim + k, (h,))
    row = betti_row(defn)
    value = sum(
        row[i] * comb(k, h - i) for i in range(len(row)) if 0 <= h - i <= k
    )
    extended = extend_with_characters(defn, [], trivial_count=k)
    direct = multiplicity(extended, h, 0)
    if direct != value:
        raise InternalError(
            f"Kunneth value {value} disagrees with direct Betti {direct}"
        )
    return value
