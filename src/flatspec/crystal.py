"""Bieberbach groups over the canonical lattice Z^n.

A group is specified by affine generators gamma_i = B_i L_{b_i} where B_i is
a signed permutation (the symmetries of Z^n) and b_i is a rational
translation, together with all lattice translations.  This module closes the
point group, decides torsion-freeness with translation lattice Z^n, computes
first homology, and provides the constructors used by the built-in corpus.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import lcm, prod
from operator import mul
from typing import Sequence

from .exact_linear import (
    Coset,
    IntVector,
    LimitError,
    RatVector,
    Record,
    UsageError,
    as_int_matrix,
    fixed_cycles,
    signed_perm,
    signed_perm_matrix,
    smith_normal_form,
)

COSET_CAP = 1024
DIM_CAP = 64


class GroupStructureError(UsageError):
    """The generators do not satisfy the direct-product point-group hypothesis."""


class CosetCapError(LimitError):
    """The point group would exceed the coset cap."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floating point translations are not accepted; use Fraction")
    return Fraction(x)


class AffineGenerator(Record):
    """One generator B L_b: signed-permutation matrix plus translation mod Z^n."""

    __slots__ = ("matrix", "translation", "order")
    _defaults = {"order": 0}  # 0 means "compute"; declared values are verified

    def _check(self):
        matrix = as_int_matrix(self.matrix)
        try:
            perm = signed_perm(matrix)
        except ValueError:
            raise GroupStructureError(
                "generator matrix must be a signed permutation; other orthogonal "
                "matrices do not preserve the canonical lattice Z^n"
            ) from None
        translation = tuple(_as_fraction(x) % 1 for x in self.translation)
        if len(translation) != len(matrix):
            raise UsageError("translation length does not match matrix size")
        true_order = fixed_cycles(perm)[0]
        if self.order and self.order != true_order:
            raise UsageError(
                f"declared order {self.order} wrong: matrix has order {true_order}"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "order", true_order)

    @property
    def dim(self) -> int:
        return len(self.matrix)


class GroupDefinition(Record):
    """Generators of Gamma = <gamma_1, ..., gamma_r, L_{Z^n}>; empty = torus."""

    # label is a name for output only: equality, hashing and so every cache key ignore it
    __slots__ = ("dim", "generators", "label")
    _defaults = {"label": ""}

    def _check(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.dim < 1:
            raise UsageError("dimension must be positive")
        if self.dim > DIM_CAP:
            raise LimitError(f"dimension {self.dim} exceeds cap {DIM_CAP}")
        if len(self.generators) > DIM_CAP:
            raise LimitError(f"generator count {len(self.generators)} exceeds cap {DIM_CAP}")
        for g in self.generators:
            if g.dim != self.dim:
                raise UsageError("generator size does not match group dimension")


class PointGroupElement(Record):
    """Coset representative B L_b of Lambda\\Gamma, translation reduced to [0,1)^n.

    ``word`` is the multi-exponent (l_1, ..., l_r) of gamma_1^{l_1} ... gamma_r^{l_r}.
    """

    __slots__ = ("matrix", "translation", "word")

    @property
    def is_identity(self) -> bool:
        return all(l == 0 for l in self.word)


class ValidationReport(Record):
    __slots__ = ("is_group_closed", "has_translation_lattice_Zn", "is_torsion_free",
                 "holonomy_order", "holonomy_structure", "failures")


class AbelianGroupType(Record):
    """Finitely generated abelian group: free rank plus invariant factors > 1."""

    __slots__ = ("free_rank", "torsion")

    def _check(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, run in groupby(self.torsion):
            count = len(list(run))
            parts.append(f"Z{d}" if count == 1 else f"Z{d}^{count}")
        return " + ".join(parts) if parts else "0"


class HWMatrix(Record):
    """Translation parameters of a diagonal 2-torsion family in odd dimension.

    Row i holds the translation of the generator fixing coordinate i and
    negating all others; entries are 0 or 1/2.
    """

    __slots__ = ("n", "rows")

    def _check(self):
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError("dimension must be odd and at least 3")
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in self.rows)
        if len(rows) != self.n - 1 or any(len(r) != self.n for r in rows):
            raise ValueError(f"need {self.n - 1} rows of length {self.n}")
        for row in rows:
            for x in row:
                if x not in (0, Fraction(1, 2)):
                    raise ValueError("entries must be 0 or 1/2")
        object.__setattr__(self, "rows", rows)


def _scaled(b: RatVector, q: int) -> IntVector:
    """q b, for q a multiple of every denominator of b."""
    return tuple(x.numerator * (q // x.denominator) for x in b)


def _perm_product(x: tuple[IntVector, IntVector], y: tuple[IntVector, IntVector]):
    """AB for A, B given as (image, sign): column j of AB is sign_B[j] A e_{image_B[j]}."""
    (ai, asg), (bi, bsg) = x, y
    return tuple([ai[k] for k in bi]), tuple([s * asg[k] for s, k in zip(bsg, bi)])


def _translate(t: IntVector, move, q: int) -> IntVector:
    """Q times the translation of gamma^w gamma_k from t, Q times gamma^w's:
    (A L_a)(B L_b) = AB L_{B^{-1} a + b} and (B^{-1} a)_j = sign[j] a[image[j]],
    with ``move`` the (sign[j], image[j], Q b[j]) of gamma_k = B L_b."""
    return tuple([(s * t[i] + b) % q for s, i, b in move])


def _commutator_term(x: Coset, y: Coset) -> list[int]:
    """Q ((B_y^{-1} - I) b_x - (B_x^{-1} - I) b_y) for generators x, y.

    The pair satisfies the pairwise condition exactly when every entry is
    divisible by Q.
    """
    (xi, xs, xt), (yi, ys, yt) = x, y
    return [
        ys[k] * xt[yi[k]] - xt[k] - xs[k] * yt[xi[k]] + yt[k] for k in range(len(xt))
    ]


class MatrixClosure:
    """What the closure of one tuple of generator matrices decides and
    builds: matrix-only data, shared by every group with those matrices.

    ``generators`` holds each generator's ``fixed_cycles``.  ``error`` is
    (exception type, message) when the matrices close into no group of the
    declared shape, and the word fields are then empty.  Otherwise they run
    over the words w of prod_k Z_{m_k} by length, then word, identity first:
    ``perms`` the (image, sign) of B^w, ``walks`` its ``fixed_cycles``, and
    ``steps`` the (position of w - e_k, k) of each word but the identity, k
    its last nonzero exponent, so B^w = B^(w - e_k) B_k.
    """

    __slots__ = ("dim", "generators", "error", "words", "steps", "perms", "_walks")

    def __init__(self, dim, generators, error=None, words=(), steps=(), perms=()):
        self.dim, self.generators, self.error = dim, generators, error
        self.words, self.steps, self.perms, self._walks = words, steps, perms, None

    @property
    def walks(self):
        """Each word's matrix walked once, on first use, a generator's own walk
        serving its word e_k: a group that fails its generator conditions
        needs no walk past its generators'."""
        if self._walks is None:
            self._walks = (fixed_cycles(self.perms[0]),) + tuple([
                self.generators[k] if prev == 0 else fixed_cycles(perm)
                for (prev, k), perm in zip(self.steps, self.perms[1:])])
        return self._walks


@lru_cache(maxsize=None)
def _close_matrices(n: int, perms: tuple[tuple[IntVector, IntVector], ...]) -> MatrixClosure:
    """The closure of the signed permutations ``perms`` of Z^n, each as (image, sign).

    Each check runs once the one before has passed, and the first failure is
    kept as ``error``: the cap on prod_k m_k, read from the generators'
    walks; that the matrices commute, by r(r - 1) products; that the matrix
    group is the direct product of the cyclic <B_k>, i.e. that the |F|
    words, each one product from its predecessor, have |F| distinct
    matrices.
    """
    gens = tuple(map(fixed_cycles, perms))
    orders = [walk[0] for walk in gens]
    total = prod(orders)
    if total > COSET_CAP:
        return MatrixClosure(n, gens, (CosetCapError,
                                       f"point group order {total} exceeds cap {COSET_CAP}"))
    r = len(perms)
    for i in range(r):
        for j in range(i + 1, r):
            if _perm_product(perms[i], perms[j]) != _perm_product(perms[j], perms[i]):
                return MatrixClosure(n, gens, (GroupStructureError,
                                               f"generator matrices {i} and {j} do not commute"))

    # product() lists the words by their index sum_k w_k strides[k], and a
    # stable sort by length keeps that order within each length
    strides = [prod(orders[k + 1:]) for k in range(r)]
    words = sorted(product(*map(range, orders)), key=sum)
    position, steps = [0] * total, []
    identity = (tuple(range(n)), (1,) * n)
    built = [identity]
    for word in words[1:]:
        k = r - 1
        while not word[k]:
            k -= 1
        index = sum(map(mul, word, strides))
        position[index] = len(built)
        prev = position[index - strides[k]]
        steps.append((prev, k))
        built.append(_perm_product(built[prev], perms[k]))
    if len(set(built)) != total:
        return MatrixClosure(n, gens, (GroupStructureError, "matrix group is not the direct "
                                       "product of the declared cyclic factors"))
    return MatrixClosure(n, gens, None, tuple(words), tuple(steps), tuple(built))


class GroupRecord:
    """One definition's closure: ``q``, Q, and ``gens``, each generator as a Coset; the
    ``closure`` of their matrices, shared with every definition that has them; the failing
    generator ``pairs`` and ``powers``, decided for every definition; the first closure
    ``error`` as (exception type, message), or None; and for a closed group only, each word's
    Q t and fixed-cycle phases, in the closure's word order."""

    __slots__ = ("q", "gens", "closure", "pairs", "powers", "error", "translations", "phases")

    def __init__(self, q, gens, closure, pairs, powers, error, translations=(), phases=()):
        self.q, self.gens, self.closure, self.pairs, self.powers = q, gens, closure, pairs, powers
        self.error, self.translations, self.phases = error, translations, phases

    def closed(self) -> GroupRecord:
        """The record of a closed group; raises the first closure error otherwise."""
        if self.error:
            raise self.error[0](self.error[1])
        return self


@lru_cache(maxsize=None)
def _group(definition: GroupDefinition) -> GroupRecord:
    """The definition's record.  Signed permutations only permute and negate coordinates, so
    Q, the lcm of the generator denominators, serves every product of generators.  A pair
    i < j fails when its ``_commutator_term`` lies outside Q Z^n, a power k when
    gamma_k^{m_k} is no lattice translation (q S_k b_k nonzero mod Q).

    The error is the matrix closure's (the cap, then commuting matrices, then the direct
    product of the cyclic <B_k>), else, naming the first failing power, else pair, that the
    word cosets are not closed: given the direct product, they are exactly when none fails.
    If none fails, w -> gamma^w is a homomorphism from prod_k Z_{m_k} onto the word cosets,
    which are then a group.  If they are a group, taking the matrix maps it one to one onto
    the matrix group, so gamma_k^{m_k} and the identity, both over I, are equal, as are
    gamma_i gamma_j and gamma_j gamma_i, both over B_i B_j.  Each translation is one
    ``_translate`` step along the closure's steps, and each word's phases are read through
    its walk: only the first closed group over a matrix closure walks its words.
    """
    gens = definition.generators
    q = lcm(*(x.denominator for g in gens for x in g.translation))
    cosets = tuple(signed_perm(g.matrix) + (_scaled(g.translation, q),) for g in gens)
    closure = _close_matrices(definition.dim, tuple([c[:2] for c in cosets]))
    pairs = tuple((i, j) for i in range(len(cosets)) for j in range(i + 1, len(cosets))
                  if any(x % q for x in _commutator_term(cosets[i], cosets[j])))
    powers = tuple(k for k, (c, walk) in enumerate(zip(cosets, closure.generators))
                   if any(x % q for x in _coset_power_sum(c, walk)))
    record = GroupRecord(q, cosets, closure, pairs, powers, closure.error)
    if not record.error and (powers or pairs):
        first = (f"gamma_{powers[0]}^{gens[powers[0]].order} is not a lattice translation"
                 if powers else "gamma_{} and gamma_{} do not commute".format(*pairs[0]))
        record.error = (GroupStructureError,
                        f"word cosets are not closed under multiplication; {first}")
    if not record.error:
        moves = [tuple(zip(sign, image, t)) for image, sign, t in cosets]
        ts = [(0,) * definition.dim]
        for prev, k in closure.steps:
            ts.append(_translate(ts[prev], moves[k], q))
        record.translations = tuple(ts)
        record.phases = tuple([_fixed_phases(walk[2], t, q) for walk, t in zip(closure.walks, ts)])
    return record


@lru_cache(maxsize=None)
def close_point_group(definition: GroupDefinition) -> tuple[PointGroupElement, ...]:
    """One representative per coset of Lambda\\Gamma, ordered and checked as
    ``_group`` orders and checks them."""
    group = _group(definition).closed()
    q, closure = group.q, group.closure
    return tuple(
        PointGroupElement(signed_perm_matrix(*perm), tuple(Fraction(x, q) for x in t), word)
        for word, perm, t in zip(closure.words, closure.perms, group.translations)
    )


def _fixed_phases(fixed, t: IntVector, q: int) -> tuple[int, ...]:
    """The phase u_c . t mod q of each fixed cycle c, given by its entries (j, u_c[j])."""
    return tuple([sum([u * t[j] for j, u in c]) % q for c in fixed])


def _torsion_test(m: int, fixed, phases, q: int) -> bool:
    """Whether S b lies in Z^n but outside S Z^n, for S = sum_{j=0}^{m-1} B^{-j},
    B of order m with the fixed cycles ``fixed``, of phases q (u_c . b) mod q:
    S is (m / L_c) u_c u_c^T on a fixed cycle c and 0 on the others, and
    S Z^n = sum_c (m / L_c) Z u_c, the supports being disjoint."""
    return any(phases) and not any(m // len(c) * a % q for c, a in zip(fixed, phases))


def _coset_power_sum(coset: Coset, walk) -> IntVector:
    """q S b for the Coset of B L_b, S as in ``_torsion_test``, from the order
    and the fixed cycles in ``walk``, B's ``fixed_cycles``."""
    t = coset[2]
    m, _, fixed = walk
    w, phases = [0] * len(t), [sum(v * t[j] for j, v in c) for c in fixed]
    for c, ut in zip(fixed, phases):
        for j, v in c:
            w[j] = m // len(c) * ut * v
    return tuple(w)


def _element_coset(element: PointGroupElement) -> tuple[Coset, int]:
    """The Coset of an element and its q, the lcm of its translation's denominators."""
    q = lcm(*(x.denominator for x in element.translation))
    return signed_perm(element.matrix) + (_scaled(element.translation, q),), q


def check_torsion_condition(element: PointGroupElement) -> bool:
    """True iff S b(I) lies in Z^n but outside S Z^n, for S = sum_j B_I^{-j}:
    then the powers of the element reach a nonzero lattice translation."""
    (image, sign, t), q = _element_coset(element)
    m, _, fixed = fixed_cycles((image, sign))
    return _torsion_test(m, fixed, _fixed_phases(fixed, t, q), q)


@lru_cache(maxsize=None)
def validate_bieberbach(definition: GroupDefinition) -> ValidationReport:
    """Decide whether the definition gives a torsion-free group with lattice Z^n.

    The torsion condition is enforced over every nontrivial coset of the
    closed point group; every coset arises from a generator word, and the
    condition only depends on the coset, so this is equivalent to checking
    all index words with repetitions.  The lattice flag and the pairwise and
    generator-lattice failures read the failing pairs and powers of the
    group's record (pairwise condition; S_i b_i in Z^n, that is,
    gamma_i^{m_i} a lattice translation), so a closed group passes both.
    """
    gens, group = definition.generators, _group(definition)
    pairs, powers = group.pairs, group.powers
    failures: list[tuple[tuple, str]] = [((i, j), "pairwise") for i, j in pairs]
    failures += [(tuple(int(k == i) for k in range(len(gens))), "generator-lattice")
                 for i in powers]
    order, torsion = 0, []
    try:
        closure = group.closed().closure
    except GroupStructureError as exc:
        failures.append(((), f"closure: {exc}"))
    else:
        order = len(group.phases)
        # the identity, first, has no torsion condition
        torsion = [(word, "torsion") for word, (m, _, fixed), a
                   in zip(closure.words[1:], closure.walks[1:], group.phases[1:])
                   if not _torsion_test(m, fixed, a, group.q)]

    return ValidationReport(
        is_group_closed=order > 0,
        has_translation_lattice_Zn=not pairs and not powers,
        is_torsion_free=order > 0 and not torsion,
        holonomy_order=order,
        holonomy_structure=tuple(g.order for g in gens if g.order > 1),
        failures=tuple(failures + torsion),
    )


def require_valid(definition: GroupDefinition) -> ValidationReport:
    report = validate_bieberbach(definition)
    if not report.is_torsion_free:
        raise UsageError(
            f"group definition {definition.label or '<unnamed>'} fails validation: "
            + "; ".join(f"{cond} at {word}" for word, cond in report.failures)
        )
    return report


def first_homology(definition: GroupDefinition) -> AbelianGroupType:
    """H_1 = Gamma/[Gamma, Gamma] from the abelianized presentation.

    Generators are gamma_1..gamma_r and the coordinate translations t_1..t_n;
    relations are the lattice conjugations (B_i - I)e_j, the power relations
    m_i gamma_i = S_i b_i, and the commutators [gamma_i, gamma_j] = L_mu.
    The (redundant) relation set is absorbed by the Smith normal form.
    """
    require_valid(definition)
    group = _group(definition)
    q, gens, walks = group.q, group.gens, group.closure.generators
    orders = [g.order for g in definition.generators]
    r = len(gens)
    n = definition.dim
    rows: list[list[int]] = []

    for i, m in enumerate(orders):
        image, sign, _ = gens[i]
        for j in range(n):
            # column j of B - I is sign[j] e_{image[j]} - e_j
            if (image[j], sign[j]) != (j, 1):
                col = [0] * n
                col[image[j]] += sign[j]
                col[j] -= 1
                rows.append([0] * r + col)
        w = _coset_power_sum(gens[i], walks[i])
        # require_valid passed the coset of gamma_i, so q divides q S_i b_i
        rows.append([m * (k == i) for k in range(r)] + [-(x // q) for x in w])

    for i in range(r):
        for j in range(i + 1, r):
            # require_valid passed the pairwise condition, so the term is integral
            term = [x // q for x in _commutator_term(gens[i], gens[j])]
            image, sign = _perm_product(gens[i][:2], gens[j][:2])  # B_i B_j
            mu = [0] * n
            for k in range(n):
                mu[image[k]] = sign[k] * term[k]
            if any(mu):
                rows.append([0] * r + mu)

    if not rows:
        return AbelianGroupType(free_rank=r + n, torsion=())
    diag = smith_normal_form(rows)
    rank = sum(1 for d in diag if d != 0)
    return AbelianGroupType(free_rank=(r + n) - rank, torsion=tuple(d for d in diag if d > 1))


def build_hw_group(a: HWMatrix) -> GroupDefinition:
    """Group with the n-1 diagonal generators B_i fixing only coordinate i.

    B_i e_i = e_i, B_i e_j = -e_j otherwise; translations come from the rows
    of ``a``.  The result need not be torsion-free; callers validate.
    """
    n = a.n
    gens = []
    for i in range(n - 1):
        matrix = signed_perm_matrix(range(n), [1 if k == i else -1 for k in range(n)])
        gens.append(AffineGenerator(matrix=matrix, translation=a.rows[i]))
    return GroupDefinition(dim=n, generators=tuple(gens), label=f"hw-{n}d")


def extend_with_characters(
    definition: GroupDefinition,
    chars: Sequence[Sequence[int]],
    trivial_count: int = 0,
) -> GroupDefinition:
    """Append one coordinate per character row plus ``trivial_count`` torus factors.

    Character row h assigns generator i the diagonal action chars[h][i] on the
    new coordinate; translations on new coordinates are zero, so a valid input
    stays torsion-free.
    """
    r = len(definition.generators)
    char_rows = [tuple(row) for row in chars]
    for row in char_rows:
        if len(row) != r:
            raise ValueError(f"character row needs one entry per generator ({r})")
        if any(x not in (1, -1) for x in row):
            raise ValueError("character values must be +-1")
    extra = len(char_rows) + trivial_count
    n = definition.dim
    new_gens = []
    for i, g in enumerate(definition.generators):
        image, sign = signed_perm(g.matrix)
        matrix = signed_perm_matrix(
            image + tuple(range(n, n + extra)),
            sign + tuple(row[i] for row in char_rows) + (1,) * trivial_count,
        )
        translation = g.translation + (Fraction(0),) * extra
        new_gens.append(AffineGenerator(matrix=matrix, translation=translation))
    label = definition.label
    if extra:
        label = f"{label}x[{len(char_rows)}ch,{trivial_count}t]" if label else ""
    return GroupDefinition(dim=n + extra, generators=tuple(new_gens), label=label)


# ---------------------------------------------------------------------------
# JSON group-definition exchange format

def group_to_json(definition: GroupDefinition) -> dict:
    return {
        "dim": definition.dim,
        "label": definition.label,
        "generators": [
            {
                "matrix": [list(row) for row in g.matrix],
                "translation": [
                    f"{x.numerator}/{x.denominator}" for x in g.translation
                ],
                "order": g.order,
            }
            for g in definition.generators
        ],
    }


def group_from_json(data: dict) -> GroupDefinition:
    if not isinstance(data, dict):
        raise UsageError("group definition must be a JSON object")
    for key in ("dim", "generators"):
        if key not in data:
            raise UsageError(f"group definition missing field {key!r}")
    dim = _json_int(data["dim"], "'dim'")
    label = data.get("label", "")
    raw_gens = data["generators"]
    if not isinstance(label, str):
        raise UsageError(f"field 'label' must be a string, got {label!r}")
    if not isinstance(raw_gens, list):
        raise UsageError("field 'generators' must be a list")
    gens = []
    for i, raw in enumerate(raw_gens):
        if not isinstance(raw, dict):
            raise UsageError(f"generators[{i}] must be an object")
        for key in ("matrix", "translation"):
            if not isinstance(raw.get(key), list):
                raise UsageError(f"generators[{i}] needs a list field {key!r}")
        matrix = as_int_matrix(raw["matrix"], f"generators[{i}].matrix")
        translation = tuple(_parse_fraction(s) for s in raw["translation"])
        order = _json_int(raw.get("order", 0), f"generators[{i}].order")
        gens.append(AffineGenerator(matrix=matrix, translation=translation, order=order))
    return GroupDefinition(dim=dim, generators=tuple(gens), label=label)


def _json_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"field {name} must be an integer, got {value!r}")
    return value


_FRACTION_RE = re.compile(r"^-?\d+(/\d*[1-9]\d*)?$")


def _parse_fraction(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _FRACTION_RE.match(s.strip()):
        raise UsageError(f"not a p/q rational: {s!r}")
    try:
        return Fraction(s)
    except ValueError as exc:  # more digits than int() converts
        raise UsageError(f"not a p/q rational: {exc}") from exc
