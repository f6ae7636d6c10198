"""FS witnesses, IP* refutation, witness scaling, finite Hindman colorings."""

import random
from itertools import combinations, product

import pytest

from conftest import fs_oracle, random_spec
from ipkit.errors import DomainBoundError, InputError
from ipkit.partition import (
    Coloring,
    FsWitness,
    find_fs_witness,
    hindman_finite,
    ip_star_refute,
    parse_coloring,
    scale_witness,
)
from ipkit.setspec import (
    Bitmap,
    Complement,
    Congruence,
    Empty,
    Intersection,
    Interval,
    dilation_preimage,
    parse_spec,
)

ODDS = Congruence(2, 1)


def _first_tuple(bound, depth, ok):
    """The oracle: the lexicographically first increasing depth-tuple from
    [1..bound] whose subset sums (by combinations) all satisfy ``ok``."""
    for terms in combinations(range(1, bound + 1), depth):
        if all(ok(v) for v in fs_oracle(terms)):
            return terms
    return None


def test_witness_validation():
    w = FsWitness((1, 2, 7))
    assert w.depth == 3
    assert w.fs == frozenset({1, 2, 3, 7, 8, 9, 10})
    with pytest.raises(InputError, match="strictly increasing"):
        FsWitness((2, 2))
    with pytest.raises(InputError, match="strictly increasing"):
        FsWitness((5, 3))
    with pytest.raises(InputError):
        FsWitness(())
    with pytest.raises(InputError):
        FsWitness((0, 1))


def test_find_fs_witness_examples():
    w = find_fs_witness(Congruence(2, 0), 2, 10)
    assert w.terms == (2, 4)
    assert w.fs == frozenset({2, 4, 6})
    assert find_fs_witness(Bitmap(frozenset({5}), 100), 1, 10).terms == (5,)
    assert find_fs_witness(ODDS, 2, 100) is None


def test_find_fs_witness_sums_may_exceed_bound():
    # terms live in [1..N]; sums are checked against the target, wherever they land
    w = find_fs_witness(Congruence(2, 0), 2, 4)
    assert w.terms == (2, 4)
    assert max(w.fs) == 6  # beyond N = 4, still admissible


def test_find_fs_witness_validation():
    with pytest.raises(InputError):
        find_fs_witness(ODDS, 0, 10)
    with pytest.raises(InputError, match="too small"):
        find_fs_witness(ODDS, 5, 4)


def test_ip_star_refute_examples():
    assert ip_star_refute(ODDS, 2, 10).terms == (2, 4)
    assert ip_star_refute(Congruence(6, 0), 3, 10).terms == (1, 2, 7)
    assert ip_star_refute(Congruence(6, 0), 6, 60) is None


def test_refutation_duality():
    rng = random.Random(31)
    for _ in range(30):
        spec = random_spec(rng)
        direct = find_fs_witness(Complement(spec), 2, 25)
        refute = ip_star_refute(spec, 2, 25)
        assert direct == refute


def test_witness_is_lexicographically_first():
    """find_fs_witness and ip_star_refute agree with a plain enumeration of
    all increasing tuples."""
    rng = random.Random(88)
    for _ in range(40):
        spec = random_spec(rng)
        k, bound = rng.randint(1, 4), 12
        for search, target in ((find_fs_witness, spec), (ip_star_refute, Complement(spec))):
            got = search(spec, k, bound)
            wanted = _first_tuple(bound, k, target.predicate())
            assert (got.terms if got else None) == wanted, (search.__name__, spec, k, bound)


def test_witness_search_holds_each_sum_once():
    """A counted target that admits everything: depth 20 takes 1,350 queries,
    one per term and per distinct sum it adds to; carrying every subset sum
    would take 2^20 - 1."""
    queries = [0]

    class CountedNone(Empty):
        def predicate(self):
            def test(v):
                queries[0] += 1
                return False

            return test

    assert ip_star_refute(CountedNone(), 20, 20).terms == tuple(range(1, 21))
    assert queries[0] <= 2000


def test_depth_40_witnesses_of_everything():
    assert ip_star_refute(parse_spec("none"), 40, 40).terms == tuple(range(1, 41))
    color, w = hindman_finite(Coloring((0,) * 1000), 40)
    assert color == 0 and w.terms == tuple(range(1, 41))


def test_first_domain_bound_error_follows_first_occurrence_order():
    # testing the sums sorted, or each at its last occurrence, raises on
    # 12, 13 or 16 instead
    with pytest.raises(DomainBoundError, match=r"^membership query 14 exceeds bitmap domain bound 11$"):
        ip_star_refute(parse_spec("bits(3 8 11; 11)"), 4, 11)


def test_witness_depth_monotonicity():
    rng = random.Random(54)
    for _ in range(25):
        spec = random_spec(rng)
        w = find_fs_witness(spec, 3, 30)
        if w is not None:
            shorter = find_fs_witness(spec, 2, 30)
            assert shorter is not None
            # the prefix is itself a valid witness
            assert all(spec.contains(v) for v in fs_oracle(w.terms[:2]))


def test_scale_witness_examples():
    w = FsWitness((1, 7))
    assert all(not Congruence(3, 0).contains(v) for v in w.fs)
    scaled = scale_witness(w, 2)
    assert scaled.terms == (2, 14)
    assert scaled.fs == frozenset({2, 14, 16})
    assert all(not Congruence(6, 0).contains(v) for v in scaled.fs)
    assert scale_witness(w, 1) == w
    assert scale_witness(FsWitness((2, 4)), 3).fs == frozenset({6, 12, 18})
    with pytest.raises(InputError):
        scale_witness(w, 0)


def test_scaling_correspondence_seeded():
    """Refuting the dilation preimage scales to refuting the set itself."""
    rng = random.Random(9)
    checked = 0
    for _ in range(30):
        m = rng.randint(1, 12)
        n = rng.randint(1, 10)
        k = rng.randint(1, 4)
        a = Congruence(m, 0)
        w = ip_star_refute(dilation_preimage(a, n), k, 200)
        if w is None:
            continue
        scaled = scale_witness(w, n)
        assert all(not a.contains(v) for v in scaled.fs)
        checked += 1
    assert checked > 0


def test_coloring_basics():
    c = Coloring((0, 1, 0, 1))
    assert c.bound == 4
    assert c.palette == 2
    assert c.color_of(1) == 0 and c.color_of(2) == 1
    with pytest.raises(InputError):
        c.color_of(5)
    with pytest.raises(InputError):
        c.color_of(0)
    with pytest.raises(InputError):
        Coloring(())
    with pytest.raises(InputError):
        Coloring((0, -1))


def test_parse_coloring():
    c = parse_coloring("1 0\n2 1\n3 0\n")
    assert c.colors == (0, 1, 0)
    # comments, blank lines, arbitrary order
    c2 = parse_coloring("# header\n\n3 1\n1 1\n2 0\n")
    assert c2.colors == (1, 0, 1)
    with pytest.raises(InputError, match="missing"):
        parse_coloring("1 0\n3 0\n")
    # the first five gaps, across several gaps
    with pytest.raises(InputError, match=r"on \[1\.\.9\]: missing \[1, 3, 4, 6, 7\]$"):
        parse_coloring("2 0\n5 1\n9 0\n")
    # values below 1 are refused, not skipped
    with pytest.raises(InputError, match=r"^coloring line 2: value 0 is below 1$"):
        parse_coloring("2 0\n0 1\n5 1\n9 0\n-4 0\n")
    with pytest.raises(InputError, match=r"missing \[2, 3, 4, 5, 6\]$"):
        parse_coloring("1 0\n1000000 0\n")
    with pytest.raises(InputError, match="twice"):
        parse_coloring("1 0\n1 1\n")
    with pytest.raises(InputError, match="expected 'value color'"):
        parse_coloring("1 0 9\n")
    with pytest.raises(InputError, match="non-integer"):
        parse_coloring("1 red\n")
    with pytest.raises(InputError):
        parse_coloring("")


def test_hindman_finite_examples():
    parity4 = Coloring(tuple(v % 2 for v in range(1, 5)))
    assert hindman_finite(parity4, 2) is None
    res = hindman_finite(Coloring((0,) * 5), 2)
    assert res is not None
    color, w = res
    assert color == 0 and w.terms == (1, 2)
    assert w.fs == frozenset({1, 2, 3})


def test_hindman_sums_must_stay_inside_window():
    # constant coloring of [1..2]: the only pair (1,2) sums to 3, outside
    assert hindman_finite(Coloring((0, 0)), 2) is None
    # widen to [1..3] and the same pair qualifies
    assert hindman_finite(Coloring((0, 0, 0)), 2)[1].terms == (1, 2)


def test_hindman_depth_validation():
    with pytest.raises(InputError):
        hindman_finite(Coloring((0, 0)), 0)


def test_hindman_monochromatic_and_canonical():
    rng = random.Random(77)
    for _ in range(40):
        bound = rng.randint(2, 9)
        colors = tuple(rng.randrange(2) for _ in range(bound))
        res = hindman_finite(Coloring(colors), 2)
        if res is None:
            continue
        color, w = res
        assert all(v <= bound and colors[v - 1] == color for v in w.fs)


def _hindman_oracle(colors, depth):
    """The first increasing tuple whose sums stay in [1..N] inside one color class."""
    bound = len(colors)
    for terms in combinations(range(1, bound + 1), depth):
        sums = fs_oracle(terms)
        if max(sums) <= bound and len({colors[v - 1] for v in sums}) == 1:
            return colors[terms[0] - 1], terms
    return None


def test_hindman_agrees_with_all_colorings_oracle_small():
    for bound in range(2, 9):
        for colors in product((0, 1), repeat=bound):
            got = hindman_finite(Coloring(colors), 2)
            assert (got and (got[0], got[1].terms)) == _hindman_oracle(colors, 2)


def test_hindman_matches_oracle_seeded():
    rng = random.Random(4242)
    for _ in range(60):
        bound = rng.randint(2, 30)
        colors = tuple(rng.randrange(rng.randint(1, 3)) for _ in range(bound))
        depth = rng.randint(1, 4)
        got = hindman_finite(Coloring(colors), depth)
        assert (got and (got[0], got[1].terms)) == _hindman_oracle(colors, depth), (colors, depth)


def test_hindman_is_first_fs_witness_over_color_classes():
    """The lexicographic minimum over colors of a witness in and(range(1,N), bits(class; N))."""
    rng = random.Random(2026)
    for _ in range(60):
        bound = rng.randint(3, 40)
        colors = tuple(rng.randrange(rng.randint(1, 3)) for _ in range(bound))
        depth = rng.randint(1, 3)
        candidates = []
        for color in sorted(set(colors)):
            members = frozenset(v for v in range(1, bound + 1) if colors[v - 1] == color)
            target = Intersection((Interval(1, bound), Bitmap(members, bound)))
            w = find_fs_witness(target, depth, bound)
            if w is not None:
                candidates.append((w.terms, color, w))
        expected = min(candidates)[1:] if candidates else None
        assert hindman_finite(Coloring(colors), depth) == expected, (colors, depth)
