"""Built-in catalog of worked example groups.

Catalog ids are short numeric keys ("4.1", "5.6", ...).  Parametrized entries
take key=value suffixes, e.g. ``4.1(n=4,k=1)``.  Pair entries return two
group definitions, and ``<id>a`` and ``<id>b`` address the members.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import Callable, Union

from .crystal import DIM_CAP, AffineGenerator, GroupDefinition, extend_with_characters
from .exact_linear import LimitError, UsageError, signed_perm, signed_perm_matrix

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

J_BLOCK = ((0, 1), (-1, 0))  # rotation by a quarter turn, order 4

CorpusEntry = Union[GroupDefinition, tuple[GroupDefinition, GroupDefinition]]


def _diag(*entries: int) -> tuple[tuple[int, ...], ...]:
    return signed_perm_matrix(range(len(entries)), entries)


def _block_diag(*blocks) -> tuple[tuple[int, ...], ...]:
    image, sign = (), ()
    for b in blocks:
        b_image, b_sign = signed_perm(b)
        image += tuple(i + len(image) for i in b_image)
        sign += b_sign
    return signed_perm_matrix(image, sign)


def _unit_translation(n: int, components: dict[int, Fraction]) -> tuple[Fraction, ...]:
    # components keyed by 1-based coordinate
    return tuple(components.get(i + 1, Fraction(0)) for i in range(n))


def _family_reflections(n: int, k: int) -> GroupDefinition:
    if n < 4 or n % 2:
        raise ValueError("dimension must be even and at least 4")
    if not (1 <= k <= n - 1) or k % 2 == 0:
        raise ValueError("k must be odd with 1 <= k <= n-1")
    c_k = _diag(*([1] * k + [-1] * (n - k)))
    gen = AffineGenerator(matrix=c_k, translation=_unit_translation(n, {1: HALF}))
    return GroupDefinition(dim=n, generators=(gen,), label=f"4.1(n={n},k={k})")


def _family_reflections_shifted(n: int, k: int, j: int) -> GroupDefinition:
    if n < 4 or n % 2:
        raise ValueError("dimension must be even and at least 4")
    if k % 2 == 0 or not (1 <= j <= k <= n - 1):
        raise ValueError("need k odd and 1 <= j <= k <= n-1")
    c_k = _diag(*([1] * k + [-1] * (n - k)))
    tr = _unit_translation(n, {i: HALF for i in range(1, j + 1)})
    gen = AffineGenerator(matrix=c_k, translation=tr)
    return GroupDefinition(dim=n, generators=(gen,), label=f"4.2(n={n},k={k},j={j})")


def _family_half_reflections(n: int, h: int) -> GroupDefinition:
    if n < 2 or n % 2:
        raise ValueError("dimension must be even")
    if not 1 <= h <= n // 2:
        raise ValueError("need 1 <= h <= n/2")
    c = _diag(*([1] * (n // 2) + [-1] * (n // 2)))
    tr = _unit_translation(n, {i: HALF for i in range(1, h + 1)})
    gen = AffineGenerator(matrix=c, translation=tr)
    return GroupDefinition(dim=n, generators=(gen,), label=f"4.2h(n={n},h={h})")


def _pair_9d() -> tuple[GroupDefinition, GroupDefinition]:
    b = _diag(1, 1, 1, -1, -1, -1, -1, -1, -1)
    b_prime = _diag(1, 1, 1, 1, 1, 1, -1, -1, -1)
    tr = _unit_translation(9, {1: HALF})
    return (
        GroupDefinition(9, (AffineGenerator(b, tr),), label="4.3a"),
        GroupDefinition(9, (AffineGenerator(b_prime, tr),), label="4.3b"),
    )


def _pair_4d_z22() -> tuple[GroupDefinition, GroupDefinition]:
    b1 = _diag(1, 1, -1, -1)
    b2 = _diag(1, -1, 1, -1)
    first = GroupDefinition(
        4,
        (
            AffineGenerator(b1, _unit_translation(4, {2: HALF, 4: HALF})),
            AffineGenerator(b2, _unit_translation(4, {3: HALF})),
        ),
        label="4.5a",
    )
    second = GroupDefinition(
        4,
        (
            AffineGenerator(b1, _unit_translation(4, {2: HALF})),
            AffineGenerator(b2, _unit_translation(4, {1: HALF})),
        ),
        label="4.5b",
    )
    return first, second


def _pair_6d_z4z2() -> tuple[GroupDefinition, GroupDefinition]:
    i2 = ((1, 0), (0, 1))
    neg_i2 = ((-1, 0), (0, -1))
    b1 = _block_diag(J_BLOCK, J_BLOCK, i2)
    b2 = _block_diag(neg_i2, i2, i2)
    b1p = _block_diag(J_BLOCK, _diag(1, -1, -1, 1))
    b2p = _block_diag(neg_i2, _diag(-1, 1, -1, 1))
    first = GroupDefinition(
        6,
        (
            AffineGenerator(b1, _unit_translation(6, {5: QUARTER})),
            AffineGenerator(b2, _unit_translation(6, {6: HALF})),
        ),
        label="5.1a",
    )
    second = GroupDefinition(
        6,
        (
            AffineGenerator(b1p, _unit_translation(6, {6: QUARTER})),
            AffineGenerator(b2p, _unit_translation(6, {4: HALF, 5: HALF})),
        ),
        label="5.1b",
    )
    return first, second


# character rows are indexed by generator: the 6d pair has generators
# (order 4, order 2); the sign character acts by -1 on the first
SIGN_CHAR = (-1, 1)
TRIVIAL_CHAR = (1, 1)


def _extended_6d(name: str, chars_a, chars_b, trivial_count: int = 0
                 ) -> tuple[GroupDefinition, GroupDefinition]:
    """The 5.1 pair with one coordinate per character row and ``trivial_count``
    torus factors appended, as ``{name}a`` and ``{name}b``."""
    return tuple(
        replace(extend_with_characters(g, chars, trivial_count), label=name + member)
        for g, chars, member in zip(_pair_6d_z4z2(), (chars_a, chars_b), "ab")
    )


def _pair_4d_holonomies() -> tuple[GroupDefinition, GroupDefinition]:
    b1 = _diag(1, 1, -1, -1)
    b2 = _diag(1, -1, -1, 1)
    first = GroupDefinition(
        4,
        (
            AffineGenerator(b1, _unit_translation(4, {1: HALF})),
            AffineGenerator(b2, _unit_translation(4, {4: HALF})),
        ),
        label="5.8a",
    )
    b_prime = _block_diag(J_BLOCK, _diag(-1, 1))
    second = GroupDefinition(
        4,
        (AffineGenerator(b_prime, _unit_translation(4, {4: QUARTER})),),
        label="5.8b",
    )
    return first, second


def _pair_torus_products(k: int) -> tuple[GroupDefinition, GroupDefinition]:
    if k < 0:
        raise ValueError("torus factor count must be nonnegative")
    return _extended_6d(f"5.9(k={k})", [], [], trivial_count=k)


_REGISTRY: dict[str, tuple[Callable, tuple[str, ...], bool, str]] = {
    # id: (builder, parameter names, is_pair, description)
    "4.1": (_family_reflections, ("n", "k"), False,
            "reflection family C_k with half shift; holonomy Z2"),
    "4.2": (_family_reflections_shifted, ("n", "k", "j"), False,
            "C_k with shift (e_1+...+e_j)/2; holonomy Z2"),
    "4.2h": (_family_half_reflections, ("n", "h"), False,
             "half-space reflection with shift (e_1+...+e_h)/2; holonomy Z2"),
    "4.3": (_pair_9d, (), True,
            "9d pair, isospectral exactly on 2- and 7-forms"),
    "4.5": (_pair_4d_z22, (), True,
            "4d pair with holonomy Z2^2, isospectral on all p-forms"),
    "5.1": (_pair_6d_z4z2, (), True,
            "6d pair with holonomy Z4xZ2, isospectral only on 0- and 6-forms"),
    "5.5": (partial(_extended_6d, "5.5", [SIGN_CHAR], [SIGN_CHAR]), (), True,
            "7d non-orientable pair from 5.1 plus one sign character"),
    "5.6": (partial(_extended_6d, "5.6", [SIGN_CHAR, SIGN_CHAR], [SIGN_CHAR, TRIVIAL_CHAR]),
            (), True, "8d pair isospectral exactly for p odd"),
    "5.7": (partial(_extended_6d, "5.7", [SIGN_CHAR, SIGN_CHAR], [TRIVIAL_CHAR, TRIVIAL_CHAR]),
            (), True, "8d pair isospectral exactly on 2- and 6-forms"),
    "5.8": (_pair_4d_holonomies, (), True,
            "4d pair with holonomies Z2^2 and Z4, isospectral for p odd"),
    "5.9": (_pair_torus_products, ("k",), True,
            "5.1 pair times a k-torus; Betti numbers strictly ordered"),
}

_ID_RE = re.compile(r"^([0-9.]+h?)(?:\(([^()]*)\))?([ab]?)$")


def corpus_ids() -> list[tuple[str, tuple[str, ...], bool, str]]:
    """(id, parameter names, is_pair, description) for every catalog entry."""
    return [
        (key, params, pair, desc)
        for key, (_builder, params, pair, desc) in _REGISTRY.items()
    ]


def example(catalog_id: str) -> CorpusEntry:
    """Resolve a catalog id, e.g. ``"4.5"``, ``"5.1a"`` or ``"4.1(n=4,k=1)"``.

    Returns a single GroupDefinition, or the (GroupDefinition,
    GroupDefinition) of a pair entry; a pair id with the suffix ``a`` or
    ``b`` returns that member alone.  Raises UsageError for an id or
    parameters the catalog does not accept.
    """
    match = _ID_RE.match(catalog_id.strip())
    if not match:
        raise UsageError(f"malformed catalog id: {catalog_id!r}")
    base, raw_params, member = match.groups()
    if base not in _REGISTRY:
        raise UsageError(f"unknown catalog id: {base!r}")
    builder, param_names, is_pair, _desc = _REGISTRY[base]
    if member and not is_pair:
        raise UsageError(f"{catalog_id!r} is a single group; drop {member!r}")
    params: dict[str, int] = {}
    if raw_params:
        for chunk in raw_params.split(","):
            if "=" not in chunk:
                raise UsageError(f"malformed parameter {chunk!r} in {catalog_id!r}")
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key not in param_names:
                raise UsageError(f"unknown parameter {key!r} for catalog id {base!r}")
            if key in params:
                raise UsageError(f"repeated parameter {key!r} in {catalog_id!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise UsageError(f"non-integer parameter value in {catalog_id!r}")
    # no family parameter exceeds the dimension it builds: refuse before building
    for key, value in params.items():
        if value > DIM_CAP:
            raise LimitError(f"parameter {key}={value} exceeds the dimension cap {DIM_CAP}")
    missing = [p for p in param_names if p not in params]
    if missing:
        raise UsageError(f"catalog id {base!r} needs parameters {missing}")
    try:
        entry = builder(**params)
    except LimitError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad parameters in {catalog_id!r}: {exc}") from exc
    return entry["ab".index(member)] if member else entry
