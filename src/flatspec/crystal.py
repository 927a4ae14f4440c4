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
from typing import Sequence

from .exact_linear import (
    Coset,
    IntVector,
    LimitError,
    RatVector,
    Record,
    UsageError,
    as_int_matrix,
    coset_walk,
    fixed_cycles,
    signed_perm,
    signed_perm_matrix,
    smith_normal_form,
    walk_order,
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
        true_order = walk_order(coset_walk(perm + ((0,) * len(matrix),), 1))
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


@lru_cache(maxsize=None)
def _integer_generators(definition: GroupDefinition) -> tuple[int, tuple[Coset, ...]]:
    """Q and each generator as a Coset.

    Signed permutations only permute and negate coordinates, so Q, the lcm of
    the generator denominators, serves every product of generators.
    """
    gens = definition.generators
    q = lcm(*(x.denominator for g in gens for x in g.translation))
    return q, tuple(signed_perm(g.matrix) + (_scaled(g.translation, q),) for g in gens)


def _scaled(b: RatVector, q: int) -> IntVector:
    """q b, for q a multiple of every denominator of b."""
    return tuple(x.numerator * (q // x.denominator) for x in b)


def _coset_product(x: Coset, y: Coset, q: int) -> Coset:
    # (A L_a)(B L_b) = AB L_{B^{-1} a + b}, and (B^{-1} a)_j = sign_B[j] a[image_B[j]]
    (ai, asg, at), (bi, bsg, bt) = x, y
    return (
        tuple(ai[k] for k in bi),
        tuple(s * asg[k] for s, k in zip(bsg, bi)),
        tuple((s * at[k] + b) % q for s, k, b in zip(bsg, bi, bt)),
    )


def _commutator_term(x: Coset, y: Coset) -> list[int]:
    """Q ((B_y^{-1} - I) b_x - (B_x^{-1} - I) b_y) for generators x, y.

    The pair satisfies the pairwise condition exactly when every entry is
    divisible by Q.
    """
    (xi, xs, xt), (yi, ys, yt) = x, y
    return [
        ys[k] * xt[yi[k]] - xt[k] - xs[k] * yt[xi[k]] + yt[k] for k in range(len(xt))
    ]


@lru_cache(maxsize=None)
def _cosets(definition: GroupDefinition) -> tuple[int, dict[tuple[int, ...], Coset]]:
    """Q and the Coset of each word, identity first, by word length then word.

    Raises GroupStructureError unless the generator matrices commute, the
    matrix group is the direct product of the cyclic <B_k>, and the word
    cosets are closed: given the direct product, exactly when each
    gamma_k^{m_k} is the identity coset and each pair gamma_i, gamma_j
    commutes.  If so, w -> gamma^w is a homomorphism from prod_k Z_{m_k} onto
    the word cosets, which are then a group.  If they are a group, taking the
    matrix maps it one to one onto the matrix group, so gamma_k^{m_k} and the
    identity, both over I, are equal, as are gamma_i gamma_j and gamma_j
    gamma_i, both over B_i B_j.
    """
    orders = [g.order for g in definition.generators]
    total = prod(orders)
    if total > COSET_CAP:
        raise CosetCapError(f"point group order {total} exceeds cap {COSET_CAP}")

    q, gens = _integer_generators(definition)
    unequal = []  # the pairs that commute as matrices but not as cosets
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            ab = _coset_product(gens[i], gens[j], q)
            ba = _coset_product(gens[j], gens[i], q)
            if ab[:2] != ba[:2]:
                raise GroupStructureError(
                    f"generator matrices {i} and {j} do not commute"
                )
            if ab != ba:
                unequal.append(f"gamma_{i} and gamma_{j} do not commute")

    n = definition.dim
    words = sorted(product(*map(range, orders)), key=lambda w: (sum(w), w))
    # gamma^w = gamma^(w - e_k) gamma_k for the last nonzero exponent k; the
    # shorter word is built already
    built = {words[0]: (tuple(range(n)), (1,) * n, (0,) * n)}
    for word in words[1:]:
        k = max(i for i, l in enumerate(word) if l)
        prev = word[:k] + (word[k] - 1,) + word[k + 1:]
        built[word] = _coset_product(built[prev], gens[k], q)

    if len({c[:2] for c in built.values()}) != total:
        raise GroupStructureError(
            "matrix group is not the direct product of the declared cyclic factors"
        )
    powers = []
    for k, m in enumerate(orders):
        last = tuple(m - 1 if i == k else 0 for i in range(len(orders)))
        if any(_coset_product(built[last], gens[k], q)[2]):
            powers.append(f"gamma_{k}^{m} is not a lattice translation")
    if failed := powers + unequal:
        raise GroupStructureError(f"word cosets are not closed under multiplication; {failed[0]}")
    return q, built


@lru_cache(maxsize=None)
def close_point_group(definition: GroupDefinition) -> tuple[PointGroupElement, ...]:
    """One representative per coset of Lambda\\Gamma, ordered and checked as
    ``_cosets`` orders and checks them."""
    q, cosets = _cosets(definition)
    return tuple(
        PointGroupElement(signed_perm_matrix(image, sign), tuple(Fraction(x, q) for x in t), word)
        for word, (image, sign, t) in cosets.items()
    )


def check_pairwise_condition(definition: GroupDefinition) -> list[tuple[int, int]]:
    """Pairs (i, j) violating (B_i^{-1} - I) b_j - (B_j^{-1} - I) b_i in Z^n."""
    q, gens = _integer_generators(definition)
    return [
        (i, j)
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
        if any(x % q for x in _commutator_term(gens[i], gens[j]))
    ]


def _torsion_test(walk, q: int) -> bool:
    """Whether S b lies in Z^n but outside S Z^n, for S = sum_{j=0}^{m-1} B^{-j}:
    S is (m / L_c) u_c u_c^T on a fixed cycle c and 0 on the others, and
    S Z^n = sum_c (m / L_c) Z u_c, the supports being disjoint."""
    m = walk_order(walk)
    fixed = [(length, a) for length, sign, a in walk if sign == 1]
    return any(a for _, a in fixed) and not any(m // length * a % q for length, a in fixed)


def _coset_power_sum(coset: Coset, q: int) -> tuple[IntVector, bool]:
    """(q S b, off) for the Coset of B L_b, S as in ``_torsion_test`` and ``off``
    whether S b lies outside S Z^n, from the entries of B's fixed cycles."""
    t = coset[2]
    m, fixed = fixed_cycles(coset[:2])
    w, phases = [0] * len(t), [sum(v * t[j] for j, v in c) for c in fixed]
    for c, ut in zip(fixed, phases):
        for j, v in c:
            w[j] = m // len(c) * ut * v
    return tuple(w), any(ut % q for ut in phases)


def _element_coset(element: PointGroupElement) -> tuple[Coset, int]:
    """The Coset of an element and its q, the lcm of its translation's denominators."""
    q = lcm(*(x.denominator for x in element.translation))
    return signed_perm(element.matrix) + (_scaled(element.translation, q),), q


def check_torsion_condition(element: PointGroupElement) -> bool:
    """True iff S b(I) lies in Z^n but outside S Z^n, for S = sum_j B_I^{-j}:
    then the powers of the element reach a nonzero lattice translation."""
    coset, q = _element_coset(element)
    return _torsion_test(coset_walk(coset, q), q)


@lru_cache(maxsize=None)
def _torsion_walks(definition: GroupDefinition) -> tuple[int, dict[tuple[int, ...], tuple]]:
    """Q and the walk of each coset but the identity, which has no torsion
    condition; raises as ``_cosets`` does."""
    q, cosets = _cosets(definition)
    return q, {word: coset_walk(c, q) for word, c in cosets.items() if any(word)}


@lru_cache(maxsize=None)
def validate_bieberbach(definition: GroupDefinition) -> ValidationReport:
    """Decide whether the definition gives a torsion-free group with lattice Z^n.

    The torsion condition is enforced over every nontrivial coset of the
    closed point group; every coset arises from a generator word, and the
    condition only depends on the coset, so this is equivalent to checking
    all index words with repetitions.  The lattice flag follows the separate
    split: pairwise condition plus S_i b_i in Z^n per generator, that is,
    gamma_i^{m_i} a lattice translation, which closure already implies.
    """
    gens = definition.generators
    pair_failures = check_pairwise_condition(definition)
    failures: list[tuple[tuple, str]] = [((i, j), "pairwise") for i, j in pair_failures]
    try:
        q, walks = _torsion_walks(definition)
        order = len(walks) + 1
    except GroupStructureError as exc:
        order, walks = 0, {}
        q, cosets = _integer_generators(definition)
        for i, coset in enumerate(cosets):
            if any(x % q for x in _coset_power_sum(coset, q)[0]):
                failures.append((tuple(int(k == i) for k in range(len(gens))), "generator-lattice"))
        failures.append(((), f"closure: {exc}"))
    lattice_ok = not any(cond in ("pairwise", "generator-lattice") for _, cond in failures)
    torsion = [(word, "torsion") for word, walk in walks.items() if not _torsion_test(walk, q)]

    return ValidationReport(
        is_group_closed=order > 0,
        has_translation_lattice_Zn=lattice_ok,
        is_torsion_free=order > 0 and not pair_failures and not torsion,
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
    q, gens = _integer_generators(definition)
    r = len(gens)
    n = definition.dim
    rows: list[list[int]] = []

    for i, g in enumerate(definition.generators):
        image, sign, _ = gens[i]
        for j in range(n):
            # column j of B - I is sign[j] e_{image[j]} - e_j
            if (image[j], sign[j]) != (j, 1):
                col = [0] * n
                col[image[j]] += sign[j]
                col[j] -= 1
                rows.append([0] * r + col)
        w, _ = _coset_power_sum(gens[i], q)
        # require_valid passed the coset of gamma_i, so q divides q S_i b_i
        rows.append([g.order * (k == i) for k in range(r)] + [-(x // q) for x in w])

    for i in range(r):
        for j in range(i + 1, r):
            # require_valid passed the pairwise condition, so the term is integral
            term = [x // q for x in _commutator_term(gens[i], gens[j])]
            image, sign, _ = _coset_product(gens[i], gens[j], q)
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
