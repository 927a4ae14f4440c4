"""The engine's arithmetic on sums of roots of unity against the cyclotomic
residue oracle, on seeded tallies over zeta_Q with Q up to 120.

Needs only the standard library, so it also runs as a plain script:

    PYTHONPATH=src python tests/test_tallies.py
"""

import random
import sys
from math import gcd

from flatspec.oracles import cyclotomic_residue
from flatspec.spectral import NonRationalSumError, RootOfUnityTally, reduce_tally, sums_to_zero

SEED = 2003
PER_FAMILY = 2000
MAX_MODULUS = 120


def full_root_sets(rng, q):
    """Counts of a sum of rotated full sets of d-th roots of unity, d > 1
    dividing q, with small weights: the sum is 0."""
    counts = [0] * q
    divisors = [d for d in range(2, q + 1) if q % d == 0]
    for _ in range(rng.randint(1, 3) if divisors else 0):
        d, w, shift = rng.choice(divisors), rng.randint(-3, 3), rng.randrange(q)
        for j in range(d):
            counts[(shift + j * q // d) % q] += w
    return counts


def galois_invariant(rng, q):
    """Counts constant on each class gcd(k, q) = g, so fixed by every sigma_t
    and rational, plus full root sets so that the counts are not themselves
    invariant."""
    weight = {g: rng.randint(-4, 4) for g in range(1, q + 1) if q % g == 0}
    counts = [weight[gcd(k, q)] for k in range(q)]
    return [a + b for a, b in zip(counts, full_root_sets(rng, q))]


def sparse_random(rng, q):
    """A few random counts, mostly not rational."""
    counts = [0] * q
    for _ in range(rng.randint(1, 4)):
        counts[rng.randrange(q)] += rng.randint(-3, 3)
    return counts


FAMILIES = (galois_invariant, full_root_sets, sparse_random)


def differential(seed=SEED, per_family=PER_FAMILY):
    """Checks reduce_tally and sums_to_zero against the residue modulo Phi_Q on
    per_family seeded tallies of each family, and returns per family how many
    there were, how many were rational and how many were 0."""
    rng, stats = random.Random(seed), {}
    for family in FAMILIES:
        seen = stats[family.__name__] = [0, 0, 0]
        for _ in range(per_family):
            q = rng.randint(1, MAX_MODULUS)
            t = RootOfUnityTally(q, tuple(family(rng, q)))
            residue = cyclotomic_residue(t)
            rational, zero = not any(residue[1:]), not any(residue)
            assert sums_to_zero(t) is zero, t
            if rational:
                assert reduce_tally(t) == residue[0], t
            else:
                try:
                    reduce_tally(t)
                except NonRationalSumError:
                    pass
                else:
                    raise AssertionError(f"{t} reduced, but its residue is {residue}")
            seen[0] += 1
            seen[1] += rational
            seen[2] += zero
    return stats


def test_the_ramanujan_route_matches_the_residue():
    stats = differential()
    assert sum(seen[0] for seen in stats.values()) >= 5000
    assert stats["galois_invariant"][1] == PER_FAMILY
    assert stats["full_root_sets"][2] == PER_FAMILY
    # the sparse family reaches both verdicts, so neither is vacuous
    assert 0 < stats["sparse_random"][1] < PER_FAMILY


if __name__ == "__main__":
    print(sys.version.split()[0], differential())
