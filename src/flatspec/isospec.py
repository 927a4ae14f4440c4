"""Spectral comparison of two groups up to a finite eigenvalue cutoff, with
orientability, holonomy pairings and the Poincare duality check.

Verdicts are finite certificates: "equal up to cutoff" never claims full
isospectrality.  The pairing criterion checks the termwise identity
trace_p(B) e_{mu,B} = trace_p(B') e_{mu,B'} under a holonomy bijection, which
when it holds for every mu proves p-isospectrality outright; here it is
verified for mu up to the cutoff.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .crystal import GroupDefinition, close_point_group, require_valid
from .exact_linear import Record, UsageError, trace_p
from .spectral import (
    _class_rows,
    betti_row,
    character_sum,
    form_degrees,
    read_rows,
    require_cutoff,
    sums_to_zero,
    weighted_sum,
)

DEFAULT_MU_MAX = 10


class PVerdict(Record):
    __slots__ = ("equal_up_to_cutoff", "witness")  # witness: (p, mu, d, d') or None


class ComparisonReport(Record):
    __slots__ = ("dim", "mu_max", "p_verdicts", "betti_first", "betti_second",
                 "orientable_first", "orientable_second")

    def verdicts(self) -> dict[int, PVerdict]:
        return dict(self.p_verdicts)

    def equal_p_set(self) -> tuple[int, ...]:
        return tuple(p for p, v in self.p_verdicts if v.equal_up_to_cutoff)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "mu_max": self.mu_max,
            "note": "verdicts are equality up to cutoff, not full isospectrality",
            "verdicts": {
                str(p): {
                    "equal_up_to_cutoff": v.equal_up_to_cutoff,
                    "witness": (
                        None
                        if v.witness is None
                        else {
                            "p": v.witness[0],
                            "mu": v.witness[1],
                            "d_first": v.witness[2],
                            "d_second": v.witness[3],
                        }
                    ),
                }
                for p, v in self.p_verdicts
            },
            "betti": {
                "first": list(self.betti_first),
                "second": list(self.betti_second),
            },
            "orientable": {
                "first": self.orientable_first,
                "second": self.orientable_second,
            },
        }


def is_orientable(defn: GroupDefinition) -> bool:
    """Whether every B in F has det(B) = trace_n(B) = 1, i.e. the summed top traces
    of the validated group's classes reach |F|; an invalid group raises."""
    order, classes = _class_rows(defn)
    return sum(row[defn.dim] for _, row in classes) == order


def compare_spectra(
    first: GroupDefinition,
    second: GroupDefinition,
    p_set: Optional[Iterable[int]] = None,
    mu_max: int = DEFAULT_MU_MAX,
) -> ComparisonReport:
    """Per-p verdicts of spectral equality for mu <= mu_max.

    The witness for an unequal p is the smallest mu where the multiplicities
    differ, so witnesses are deterministic.
    """
    require_cutoff(mu_max)
    require_valid(first)
    require_valid(second)
    if first.dim != second.dim:
        raise UsageError("cannot compare groups of different dimensions")
    verdicts, degrees = [], form_degrees(first.dim, p_set)
    rows = zip(read_rows(first, degrees, mu_max), read_rows(second, degrees, mu_max))
    for p, (row1, row2) in zip(degrees, rows):
        witness = next(((p, mu, d1, d2) for mu, (d1, d2) in enumerate(zip(row1, row2))
                        if d1 != d2), None)
        verdicts.append((p, PVerdict(witness is None, witness)))
    return ComparisonReport(
        dim=first.dim,
        mu_max=mu_max,
        p_verdicts=tuple(verdicts),
        betti_first=betti_row(first),
        betti_second=betti_row(second),
        orientable_first=is_orientable(first),
        orientable_second=is_orientable(second),
    )


class HolonomyPairing(Record):
    """A bijection between two point groups, identity matched to identity."""

    __slots__ = ("pairs",)

    def _check(self):
        firsts = [a for a, _ in self.pairs]
        seconds = [b for _, b in self.pairs]
        if len(set(firsts)) != len(firsts) or len(set(seconds)) != len(seconds):
            raise UsageError("pairing is not a bijection")
        for a, b in self.pairs:
            if a.is_identity != b.is_identity:
                raise UsageError("pairing must match identity with identity")


def pairing_from_words(
    first: GroupDefinition,
    second: GroupDefinition,
    word_map: dict[tuple[int, ...], tuple[int, ...]],
) -> HolonomyPairing:
    """Build a pairing from a map of generator words; unlisted words map to
    themselves.  A word that names no element of its group is refused."""
    by_word_1 = {el.word: el for el in close_point_group(first)}
    by_word_2 = {el.word: el for el in close_point_group(second)}
    for word in word_map:
        if word not in by_word_1:
            raise UsageError(f"{first.label or '<unnamed>'} has no element of word {word}")
    pairs = []
    for word, el in by_word_1.items():
        target = word_map.get(word, word)
        if target not in by_word_2:
            raise UsageError(f"{second.label or '<unnamed>'} has no element of word {target}")
        pairs.append((el, by_word_2[target]))
    return HolonomyPairing(pairs=tuple(pairs))


def identity_pairing(first: GroupDefinition, second: GroupDefinition) -> HolonomyPairing:
    """Match elements with equal matrix parts; the point groups must coincide."""
    by_matrix = {el.matrix: el for el in close_point_group(second)}
    pairs = []
    for el in close_point_group(first):
        if el.matrix not in by_matrix:
            raise UsageError("point groups differ; no identity pairing exists")
        pairs.append((el, by_matrix[el.matrix]))
    return HolonomyPairing(pairs=tuple(pairs))


def check_pairing_criterion(
    first: GroupDefinition,
    second: GroupDefinition,
    pairing: HolonomyPairing,
    p: int,
    mu_max: int = DEFAULT_MU_MAX,
) -> bool:
    """Termwise trace_p(B) e_{mu,B} = trace_p(B') e_{mu,B'} for all mu <= mu_max.

    True implies the compare_spectra verdict for this p at the same cutoff.  The
    pairing must pair the elements of first with those of second.
    """
    require_cutoff(mu_max)
    form_degrees(first.dim, (p,))
    require_valid(first)
    require_valid(second)
    if ({a for a, _ in pairing.pairs} != set(close_point_group(first))
            or {b for _, b in pairing.pairs} != set(close_point_group(second))):
        raise UsageError("pairing does not pair the elements of these two point groups")
    for a, b in pairing.pairs:
        wa = trace_p(a.matrix, p)
        wb = trace_p(b.matrix, p)
        for mu in range(mu_max + 1):
            if not sums_to_zero(
                weighted_sum([(wa, character_sum(a, mu)), (-wb, character_sum(b, mu))])
            ):
                return False
    return True


class DualityReport(Record):
    __slots__ = ("orientable", "holds", "counterexample")  # (p, mu, d_p, d_{n-p}) or None


def duality_check(defn: GroupDefinition, mu_max: int = DEFAULT_MU_MAX) -> DualityReport:
    """Check d_{p,mu} = d_{n-p,mu} for mu <= mu_max.

    Holds for orientable groups (trace_p = det * trace_{n-p}); for
    non-orientable groups the first violating (p, mu) is reported.
    """
    require_cutoff(mu_max)
    require_valid(defn)
    n = defn.dim
    orientable = is_orientable(defn)
    rows = read_rows(defn, range(n + 1), mu_max)
    for p in range(n // 2 + 1):
        for mu, (d1, d2) in enumerate(zip(rows[p], rows[n - p])):
            if d1 != d2:
                return DualityReport(orientable, False, (p, mu, d1, d2))
    return DualityReport(orientable, True, None)
