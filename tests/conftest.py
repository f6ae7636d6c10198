"""Shared helpers: independent subset-enumeration oracles and random inputs.

The oracles here deliberately share no code with the package's incremental
folds: finite sums and products are rebuilt from itertools.combinations, and
minimal ideals from the whole subset lattice, so the two routes can disagree
if either is wrong.
"""

from itertools import combinations

from ipkit.setspec import Complement, Congruence, Intersection, Interval, Union


def fs_oracle(ys):
    out = set()
    for r in range(1, len(ys) + 1):
        for combo in combinations(ys, r):
            out.add(sum(combo))
    return frozenset(out)


def fp_oracle(ys):
    out = set()
    for r in range(1, len(ys) + 1):
        for combo in combinations(ys, r):
            prod = 1
            for v in combo:
                prod *= v
            out.add(prod)
    return frozenset(out)


def _ideal_masks(n, absorb):
    """Bitmasks of all non-empty I with absorb[a] a subset of I for each a in I."""
    ideals = []
    for mask in range(1, 1 << n):
        m = mask
        while m:
            low = m & -m
            if absorb[low.bit_length() - 1] & ~mask:
                break
            m ^= low
        else:
            ideals.append(mask)
    return ideals


def _minimal_sets(n, masks):
    minimal = [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]
    return tuple(sorted((frozenset(a for a in range(n) if m >> a & 1) for m in minimal), key=sorted))


def ideals_oracle(sg):
    """(minimal left, minimal right, kernel) by enumerating all 2^n subsets.

    I is a left ideal when s*a lies in I for every s and every a in I; the
    minimal ones have no other ideal strictly inside.  The package finds the
    same sets as minimal principal ideals instead.
    """
    n = sg.order
    left_absorb = [sum(1 << v for v in {sg.mul(s, a) for s in range(n)}) for a in range(n)]
    right_absorb = [sum(1 << v for v in {sg.mul(a, s) for s in range(n)}) for a in range(n)]
    left = _minimal_sets(n, _ideal_masks(n, left_absorb))
    right = _minimal_sets(n, _ideal_masks(n, right_absorb))
    return left, right, frozenset().union(*left)


def random_spec(rng, depth=2):
    """A random congruence/interval tree under not/and/or.

    No bitmaps: random trees must be total so oracle sweeps never trip a
    domain bound.
    """
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            m = rng.randint(1, 9)
            return Congruence(m, rng.randrange(m))
        lo = rng.randint(1, 30)
        return Interval(lo, rng.randint(lo, 60) if rng.random() < 0.7 else None)
    kind = rng.random()
    if kind < 0.34:
        return Complement(random_spec(rng, depth - 1))
    cls = Union if kind < 0.67 else Intersection
    return cls(tuple(random_spec(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def same_members(a, b, values):
    """Extensional agreement of two specs over a sample of values."""
    return all(a.contains(v) == b.contains(v) for v in values)
