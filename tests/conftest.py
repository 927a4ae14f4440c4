"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import pytest
from hypothesis import strategies as st

from flatspec import HWMatrix, build_hw_group, crystal, example, exact_linear, oracles, spectral
from flatspec.crystal import (
    COSET_CAP,
    AbelianGroupType,
    AffineGenerator,
    CosetCapError,
    GroupDefinition,
    GroupStructureError,
    ValidationReport,
    close_point_group,
    require_valid,
)
from flatspec.exact_linear import (
    fixed_cycles,
    signed_perm,
    smith_normal_form,
    trace_p,
)
from flatspec.oracles import cyclotomic_residue, enumerate_shell, in_image_lattice
from flatspec.spectral import (
    RootOfUnityTally,
    character_sum,
    enumerate_fixed_shell,
    weighted_sum,
)

HALF = Fraction(1, 2)


# Generic matrix arithmetic for the references below; the library itself works
# on signed permutations as (image, sign) and never multiplies matrices.

def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("incompatible shapes for matrix product")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_vec(m, v) -> tuple:
    """Apply ``m`` to a vector of ints or Fractions."""
    if m and len(m[0]) != len(v):
        raise ValueError("incompatible shapes for matrix-vector product")
    return tuple(sum(x * y for x, y in zip(row, v) if x) for row in m)


def det_oracle(matrix) -> int:
    """Determinant by minor expansion with column-mask memoization.

    Independent of the cycle-type route used by the package.
    """
    n = len(matrix)

    @lru_cache(maxsize=None)
    def expand(row: int, colmask: int) -> int:
        if row == n:
            return 1
        total = 0
        sign = 1
        for j in range(n):
            if colmask & (1 << j):
                if matrix[row][j]:
                    total += sign * matrix[row][j] * expand(row + 1, colmask & ~(1 << j))
                sign = -sign
        return total

    return expand(0, (1 << n) - 1)


def signed_permutations(n):
    """Hypothesis strategy: n x n signed permutation matrices."""
    return st.tuples(st.permutations(range(n)), st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)).map(
        lambda pair: tuple(
            tuple(pair[1][i] if j == pair[0][i] else 0 for j in range(n))
            for i in range(n)
        )
    )


def char_poly(m) -> list[int]:
    """Coefficients of det(xI - m), degree-descending, leading coefficient 1.

    Uses the Faddeev-LeVerrier recurrence; every division is exact and
    asserted, so the result is correct over Z for any integer matrix.  A
    reference for the package's cycle-type exterior traces.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [1]
    acc = m
    for k in range(1, n + 1):
        t = sum(acc[i][i] for i in range(n))
        if t % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier divisibility broken")
        c = -(t // k)
        coeffs.append(c)
        if k < n:
            shifted = tuple(
                tuple(acc[i][j] + (c if i == j else 0) for j in range(n))
                for i in range(n)
            )
            acc = mat_mul(m, shifted)
    return coeffs


def diagonal_fixed_count(matrix) -> int:
    """n_B: coordinates fixed by a diagonal +-1 matrix (asserted diagonal)."""
    n = len(matrix)
    assert all(matrix[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    return sum(1 for i in range(n) if matrix[i][i] == 1)


def _mod1(f: Fraction) -> Fraction:
    return Fraction(f.numerator % f.denominator, f.denominator)


def _coset_mul(am, at, bm, bt):
    # (A L_a)(B L_b) = AB L_{B^{-1} a + b}; B^{-1} = B^T for signed permutations
    shifted = mat_vec(transpose(bm), at)
    return mat_mul(am, bm), tuple(_mod1(x + y) for x, y in zip(shifted, bt))


def _all_words(orders):
    if not orders:
        return [()]
    rest = _all_words(orders[1:])
    return [(l,) + w for l in range(orders[0]) for w in rest]


@lru_cache(maxsize=None)
def close_point_group_reference(definition):
    """(matrix, translation, word) per coset by Fraction matrix products.

    A reference for ``close_point_group``: each word is multiplied out from
    tables of generator powers, and the checks raise the same exceptions with
    the same messages in the same order.
    """
    gens = definition.generators
    orders = [g.order for g in gens]
    total = 1
    for m in orders:
        total *= m
    if total > COSET_CAP:
        raise CosetCapError(f"point group order {total} exceeds cap {COSET_CAP}")

    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i].matrix, gens[j].matrix
            if mat_mul(a, b) != mat_mul(b, a):
                raise GroupStructureError(
                    f"generator matrices {i} and {j} do not commute"
                )

    ident = (identity_matrix(definition.dim), (Fraction(0),) * definition.dim)
    powers = []
    for g in gens:
        table = [ident]
        for _ in range(1, g.order):
            pm, pt = table[-1]
            table.append(_coset_mul(pm, pt, g.matrix, g.translation))
        powers.append(table)

    words = sorted(_all_words(orders), key=lambda w: (sum(w), w))
    elements = []
    for word in words:
        mat, tr = ident
        for i, l in enumerate(word):
            if l:
                pm, pt = powers[i][l]
                mat, tr = _coset_mul(mat, tr, pm, pt)
        elements.append((mat, tr, word))

    if len({mat for mat, _, _ in elements}) != total:
        raise GroupStructureError(
            "matrix group is not the direct product of the declared cyclic factors"
        )
    cosets = {(mat, tr) for mat, tr, _ in elements}
    if len(cosets) != total:
        raise GroupStructureError(
            "distinct words give the same coset; translation lattice exceeds Z^n"
        )
    closed = all(
        _coset_mul(mat, tr, g.matrix, g.translation) in cosets
        for mat, tr, _ in elements
        for g in gens
    )
    # the diagnosis: the first generator power that is not the identity coset,
    # else the first pair of generators that do not commute as cosets
    failed = None
    for k, g in enumerate(gens):
        pm, pt = powers[k][-1]
        if _coset_mul(pm, pt, g.matrix, g.translation) != ident:
            failed = failed or f"gamma_{k}^{g.order} is not a lattice translation"
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i], gens[j]
            if (_coset_mul(a.matrix, a.translation, b.matrix, b.translation)
                    != _coset_mul(b.matrix, b.translation, a.matrix, a.translation)):
                failed = failed or f"gamma_{i} and gamma_{j} do not commute"
    # closure holds exactly when every power and every pair passes
    assert closed == (failed is None), (closed, failed)
    if failed:
        raise GroupStructureError("word cosets are not closed under multiplication; " + failed)
    return elements


def power_sum_oracle(matrix):
    """S = sum_{j=0}^{m-1} B^{-j}, summing powers of B^{-1} up to the identity."""
    ident = identity_matrix(len(matrix))
    binv = transpose(matrix)
    total, acc = ident, mat_mul(ident, binv)
    while acc != ident:
        total = tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(total, acc)
        )
        acc = mat_mul(acc, binv)
    return total


def torsion_oracle(matrix, b) -> bool:
    """S b in Z^n but outside S Z^n, decided by the Smith form of S."""
    s = power_sum_oracle(matrix)
    w = mat_vec(s, b)
    if any(x.denominator != 1 for x in w):
        return False
    return not in_image_lattice(s, w)


def pairwise_condition_reference(definition):
    """Pairs (i, j) violating (B_i^{-1} - I) b_j - (B_j^{-1} - I) b_i in Z^n."""
    failures = []
    gens = definition.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            bi, bj = gens[i], gens[j]
            left = [
                x - y for x, y in zip(mat_vec(transpose(bi.matrix), bj.translation), bj.translation)
            ]
            right = [
                x - y for x, y in zip(mat_vec(transpose(bj.matrix), bi.translation), bi.translation)
            ]
            if any((x - y).denominator != 1 for x, y in zip(left, right)):
                failures.append((i, j))
    return failures


def first_homology_reference(definition):
    """H_1 from the abelianized presentation, relations built by matrix products."""
    require_valid(definition)
    gens = definition.generators
    r = len(gens)
    n = definition.dim
    rows = []

    for i, g in enumerate(gens):
        bmi = mat_sub(g.matrix, identity_matrix(n))
        for j in range(n):
            col = [bmi[k][j] for k in range(n)]
            if any(col):
                rows.append([0] * r + col)
        w = mat_vec(power_sum_oracle(g.matrix), g.translation)
        row = [0] * r
        row[i] = g.order
        rows.append(row + [-int(x) for x in w])

    for i in range(r):
        for j in range(i + 1, r):
            gi, gj = gens[i], gens[j]
            term = [
                (xj - bj) - (xi - bi)
                for xj, bj, xi, bi in zip(
                    mat_vec(transpose(gj.matrix), gi.translation),
                    gi.translation,
                    mat_vec(transpose(gi.matrix), gj.translation),
                    gj.translation,
                )
            ]
            mu = mat_vec(mat_mul(gi.matrix, gj.matrix), term)
            if any(mu):
                rows.append([0] * r + [int(x) for x in mu])

    if not rows:
        return AbelianGroupType(free_rank=r + n, torsion=())
    diag = smith_normal_form(rows)
    rank = sum(1 for d in diag if d != 0)
    return AbelianGroupType(
        free_rank=(r + n) - rank, torsion=tuple(d for d in diag if d > 1)
    )


def validate_bieberbach_reference(definition):
    """The ValidationReport assembled from the matrix references above.

    Raises CosetCapError, as ``validate_bieberbach`` does, when the closure
    reference does.
    """
    gens = definition.generators
    pair_failures = pairwise_condition_reference(definition)
    failures = [((i, j), "pairwise") for i, j in pair_failures]
    lattice_ok = not pair_failures
    for i, g in enumerate(gens):
        if any(x.denominator != 1 for x in mat_vec(power_sum_oracle(g.matrix), g.translation)):
            failures.append((tuple(int(k == i) for k in range(len(gens))), "generator-lattice"))
            lattice_ok = False
    try:
        elements = close_point_group_reference(definition)
    except GroupStructureError as exc:
        elements = []
        failures.append(((), f"closure: {exc}"))
    torsion_free = bool(elements) and not pair_failures
    for matrix, translation, word in elements[1:]:
        if not torsion_oracle(matrix, translation):
            failures.append((word, "torsion"))
            torsion_free = False
    return ValidationReport(
        is_group_closed=bool(elements),
        has_translation_lattice_Zn=lattice_ok,
        is_torsion_free=torsion_free,
        holonomy_order=len(elements),
        holonomy_structure=tuple(g.order for g in gens if g.order > 1),
        failures=tuple(failures),
    )


CANDIDATE_DENOMINATORS = (1, 2, 3, 4, 6, 8)


def random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(
        tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n))
        for i in range(n)
    )


def random_candidate(rng, max_dim=8) -> GroupDefinition:
    """A candidate group with n <= max_dim and up to three generators.

    Coordinates are cut into blocks, each with a base signed permutation P;
    a generator acts on each block as +-P^k, so the generators commute,
    except that with probability 1/4 every generator is an arbitrary signed
    permutation.  Translations lie in (1/d)Z^n.
    """
    n = rng.randint(1, max_dim)
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    bases = [random_signed_permutation(rng, size) for size in sizes]
    free = rng.random() < 0.25
    d = rng.choice(CANDIDATE_DENOMINATORS)
    gens = []
    for _ in range(rng.randint(0, 3)):
        if free:
            matrix = random_signed_permutation(rng, n)
        else:
            matrix = [[0] * n for _ in range(n)]
            offset = 0
            for base in bases:
                block = identity_matrix(len(base))
                for _ in range(rng.randint(0, 3)):
                    block = mat_mul(block, base)
                s = rng.choice((1, -1))
                for i, row in enumerate(block):
                    for j, x in enumerate(row):
                        matrix[offset + i][offset + j] = s * x
                offset += len(base)
        translation = tuple(Fraction(rng.randrange(d), d) for _ in range(n))
        gens.append(AffineGenerator(matrix, translation))
    return GroupDefinition(dim=n, generators=tuple(gens))


def count_walks(monkeypatch) -> list:
    """The signed permutations, each as (image, sign), that ``fixed_cycles``
    (the engine's walker) or the reference ``oracles.coset_walk`` walks from
    now on, in every module that calls either."""
    walks = []
    walk_fixed, walk_coset = exact_linear.fixed_cycles, oracles.coset_walk

    def counting_fixed(perm):
        walks.append(tuple(map(tuple, perm)))
        return walk_fixed(perm)

    def counting_coset(coset, q):
        walks.append(tuple(map(tuple, coset[:2])))
        return walk_coset(coset, q)

    for module in (exact_linear, crystal, spectral, oracles):
        for name, counting in (("fixed_cycles", counting_fixed), ("coset_walk", counting_coset)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return walks


def pack(rows, width: int) -> tuple:
    """Each tuple of counts as one int with count m in slot m of width bytes,
    the lowest first: a series as ``spectral._theta`` returns it, for tests
    that inject one.  A negative count borrows from the slots above it."""
    return tuple(sum(c << 8 * width * m for m, c in enumerate(row)) for row in rows)


def bump(built, p: int, column: int, delta: int) -> None:
    """Add delta to the cell of row p at ``column`` (counted from the build's
    first column, negative from its end) of a ``spectral._build_table`` result."""
    rows, width, _, columns = built
    rows[p] += delta << 8 * width * (column % columns)


def unpacked(built) -> list:
    """The signed cells of each row of a ``spectral._build_table`` result."""
    rows, width, _, columns = built
    return [spectral._cells(row, width, columns) for row in rows]


def clear_crystal_caches():
    """Empty every cache of ``flatspec.crystal``, for counts of cold work."""
    for value in vars(crystal).values():
        if hasattr(value, "cache_clear") and value.__module__ == crystal.__name__:
            value.cache_clear()


def clear_spectral_caches():
    """Empty every cache of ``flatspec.spectral``, the group tables among them."""
    for value in vars(spectral).values():
        if hasattr(value, "cache_clear") and value.__module__ == spectral.__name__:
            value.cache_clear()


def random_hw_candidate(rng, n) -> GroupDefinition:
    """A Hantzsche-Wendt candidate built as the benchmark's ``hw`` kind is: the
    n - 1 diagonal generators with translations drawn from {0, 1/2}^n; its
    point group has order 2^(n-1)."""
    rows = tuple(tuple(Fraction(rng.randrange(2), 2) for _ in range(n)) for _ in range(n - 1))
    return build_hw_group(HWMatrix(n=n, rows=rows))


def random_diagonal_candidate(rng, max_generators=6) -> GroupDefinition:
    """A candidate Z_2^k, k <= max_generators: diagonal +-1 generators with
    translations in (1/2)Z^n or, one time in three, (1/4)Z^n."""
    n = rng.randint(2, 8)
    d = rng.choice((2, 2, 4))
    gens = []
    for _ in range(rng.randint(1, max_generators)):
        signs = [rng.choice((1, -1)) for _ in range(n)]
        matrix = tuple(tuple(signs[i] if i == j else 0 for j in range(n)) for i in range(n))
        gens.append(AffineGenerator(matrix, tuple(Fraction(rng.randrange(d), d) for _ in range(n))))
    return GroupDefinition(dim=n, generators=tuple(gens))


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


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


@lru_cache(maxsize=None)
def _ramanujan_sums(q: int) -> tuple[int, ...]:
    """c_q(a) = sum_{d | gcd(a, q)} mu(q / d) d, the field trace of zeta_q^a."""
    return tuple(
        sum(_mobius(q // d) * d for d in range(1, q + 1) if gcd(a, q) % d == 0)
        for a in range(q)
    )


def tallies_equal(a: RootOfUnityTally, b: RootOfUnityTally) -> bool:
    """Equality as algebraic numbers: a - b reduces to 0 modulo the cyclotomic
    polynomial, independent of the engine's Ramanujan-sum test."""
    return not any(cyclotomic_residue(tally_add(a, tally_scale(b, -1))))


def residue_value(t: RootOfUnityTally) -> Fraction:
    """The rational value of t by its residue modulo the cyclotomic polynomial,
    which must be constant; independent of the engine's ``reduce_tally``."""
    residue = cyclotomic_residue(t)
    assert not any(residue[1:]), (t, residue)
    return Fraction(residue[0])


@lru_cache(maxsize=None)
def character_sum_reference(element, mu):
    """e_{mu,B} as a tally, by a Fraction dot over the full norm shell.

    The fixed vectors are found by testing B v = v on every shell vector, so
    this is independent of the fixed-lattice enumeration and of the integer
    phases that ``character_sum`` uses.
    """
    b = element.translation
    q = lcm(*(x.denominator for x in b))
    counts = [0] * q
    for v in enumerate_shell(len(b), mu):
        if mat_vec(element.matrix, v) == v:
            x = sum(vj * bj for vj, bj in zip(v, b)) * q
            counts[int(x) % q] += 1
    return RootOfUnityTally(q, tuple(counts))


def character_sum_shell(element, mu):
    """e_{mu,B} counted over the fixed shell ``enumerate_fixed_shell``, over the
    modulus q that ``character_sum`` uses: the shell oracle of the theta series.

    A fixed v = sum_c k_c u_c has k_c = v[j_c], j_c the first coordinate of
    the cycle c, where u_c is 1, and phase sum_c k_c q (u_c . b) mod q.
    """
    b = element.translation
    r = lcm(*(x.denominator for x in b))
    _, _, fixed = fixed_cycles(signed_perm(element.matrix))
    phases = [(c[0][0], sum(u * int(b[j] * r) for j, u in c)) for c in fixed]
    q = lcm(*(r // gcd(a, r) for _, a in phases))
    counts = [0] * q
    for v in enumerate_fixed_shell(element.matrix, mu):
        counts[sum(v[j] * a * q // r for j, a in phases) % q] += 1
    return RootOfUnityTally(q, tuple(counts))


def multiplicity_reference(definition, p, mu) -> int:
    """d_{p,mu} by adding weighted reference tallies one at a time.

    Each ``tally_add`` rescales both sides to the lcm of their moduli, so
    this is independent of the single flat tally that ``multiplicity`` uses.
    """
    elements = close_point_group(definition)
    total = tally_zero()
    for el in elements:
        w = trace_p(el.matrix, p)
        if w:
            total = tally_add(total, tally_scale(character_sum_reference(el, mu), w))
    value = residue_value(total) / len(elements)
    assert value.denominator == 1 and value >= 0, value
    return int(value)


def multiplicity_cell_reference(definition, p, mu) -> int:
    """d_{p,mu} computed for one cell alone, as the engine did before its
    table: elements are grouped by the signature of their own cycle walk, and
    one ``weighted_sum`` of trace-weighted class character sums is reduced.
    """
    elements = close_point_group(definition)
    classes = {}
    for el in elements:
        classes.setdefault(spectral._signature(el), []).append(el)
    total = weighted_sum(
        (sum(trace_p(el.matrix, p) for el in members), character_sum(members[0], mu))
        for members in classes.values()
    )
    value = residue_value(total) / len(elements)
    assert value.denominator == 1 and value >= 0, value
    return int(value)


@lru_cache(maxsize=None)
def shell_count(n: int, mu: int) -> int:
    """r_n(mu): the vectors v in Z^n with |v|^2 = mu, counted one coordinate
    at a time."""
    if n == 0:
        return int(mu == 0)
    bound = isqrt(mu)
    return sum(shell_count(n - 1, mu - x * x) for x in range(-bound, bound + 1))


def signed_shell_count(k: int, mu: int) -> int:
    """s_k(mu) = sum (-1)^(v_1) over the v in Z^k with |v|^2 = mu, counted one
    coordinate at a time."""
    bound = isqrt(mu)
    return sum((-1) ** x * shell_count(k - 1, mu - x * x) for x in range(-bound, bound + 1))


def pairing_criterion_reference(first, second, pairing, p, mu_max) -> bool:
    """``check_pairing_criterion`` by scaling each side's tally by its trace and
    comparing the two across moduli, one pair at a time."""
    assert len(pairing.pairs) == len(close_point_group(first))
    for a, b in pairing.pairs:
        wa, wb = trace_p(a.matrix, p), trace_p(b.matrix, p)
        for mu in range(mu_max + 1):
            ta = tally_scale(character_sum(a, mu), wa)
            tb = tally_scale(character_sum(b, mu), wb)
            if not tallies_equal(ta, tb):
                return False
    return True


def classical_hw_matrix() -> HWMatrix:
    return HWMatrix(n=3, rows=((HALF, HALF, 0), (0, HALF, HALF)))


def corpus_defs():
    """Labelled group definitions covering every catalog entry."""
    pairs = ["4.3", "4.5", "5.1", "5.5", "5.6", "5.7", "5.8"]
    out = []
    for key in pairs:
        first, second = example(key)
        out.append((first.label, first))
        out.append((second.label, second))
    for key in ["4.1(n=4,k=1)", "4.1(n=4,k=3)", "4.1(n=6,k=3)",
                "4.2(n=6,k=3,j=2)", "4.2h(n=4,h=2)", "4.2h(n=6,h=3)"]:
        defn = example(key)
        out.append((defn.label, defn))
    first, second = example("5.9(k=1)")
    out.append((first.label, first))
    out.append((second.label, second))
    hw = build_hw_group(classical_hw_matrix())
    out.append((hw.label, hw))
    return out


@pytest.fixture(scope="session")
def all_corpus_defs():
    return corpus_defs()
