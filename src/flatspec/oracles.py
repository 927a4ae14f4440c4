"""Independent cross-checks of the spectral engine, used only to test it: the
projector oracle, the diagonal 2-torsion (HW) rewrite, full norm shells and
binary Krawtchouk values.  The engine modules never import this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import comb, lcm
from operator import eq, mul

from .crystal import (
    GroupDefinition,
    HWMatrix,
    build_hw_group,
    close_point_group,
    require_valid,
)
from .exact_linear import signed_perm
from .spectral import (
    SHELL_DIM_CAP,
    EnumerationGuardError,
    RootOfUnityTally,
    _weighted_norm_solutions,
    reduce_tally,
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
    value = reduce_tally(RootOfUnityTally(m, tuple(trace))) / len(elements)
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
