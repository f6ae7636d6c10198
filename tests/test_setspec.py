"""Set expressions: membership, algebra, preimage rewrites, text round trips."""

import collections
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spec, same_members
from ipkit.errors import DomainBoundError, InputError, SpecSyntaxError
from ipkit.setspec import (
    EMPTY,
    FULL,
    MAX_SPEC_DEPTH,
    Bitmap,
    Complement,
    Congruence,
    DilationPreimage,
    Intersection,
    Interval,
    ShiftPreimage,
    Union,
    dilation_preimage,
    eventual_period,
    intersect_all,
    parse_spec,
    render_spec,
    shift_preimage,
)


def test_congruence_membership():
    six = Congruence(6, 0)
    assert six.contains(6) and six.contains(600) and not six.contains(7)
    assert Congruence(1, 0).contains(12345)


def test_interval_membership():
    assert Interval(5, 9).contains(5) and Interval(5, 9).contains(9)
    assert not Interval(5, 9).contains(4) and not Interval(5, 9).contains(10)
    assert Interval(5).contains(10**30)
    assert not Interval(5).contains(4)


def test_bitmap_membership_and_domain_bound():
    b = Bitmap(frozenset({6, 12, 36}), 100)
    assert b.contains(12) and not b.contains(13)
    with pytest.raises(DomainBoundError, match="exceeds bitmap domain bound 100"):
        b.contains(101)
    # the compiled form keeps the same failure mode
    pred = b.predicate()
    assert pred(36)
    with pytest.raises(DomainBoundError):
        pred(101)


def test_membership_query_validation():
    spec = Congruence(2, 0)
    for bad in (0, -5, 2.5, True, "6"):
        with pytest.raises(InputError):
            spec.contains(bad)


def test_constructor_validation():
    with pytest.raises(InputError):
        Congruence(0, 0)
    with pytest.raises(InputError):
        Congruence(6, 6)
    with pytest.raises(InputError):
        Interval(0)
    with pytest.raises(InputError):
        Interval(5, 4)
    with pytest.raises(InputError):
        Bitmap(frozenset({5}), 4)
    with pytest.raises(InputError):
        Bitmap(frozenset({5}), 0)
    with pytest.raises(InputError):
        Union((Congruence(2, 0),))
    with pytest.raises(InputError):
        Intersection((Congruence(2, 0),))
    with pytest.raises(InputError):
        DilationPreimage(0, FULL)
    with pytest.raises(InputError):
        ShiftPreimage(0, FULL)


def test_boolean_algebra():
    evens = Congruence(2, 0)
    odds = Complement(evens)
    assert odds.contains(3) and not odds.contains(4)
    both = Intersection((evens, Congruence(3, 0)))
    assert both.contains(6) and not both.contains(4)
    either = Union((Congruence(5, 0), Congruence(7, 0)))
    assert either.contains(10) and either.contains(14) and not either.contains(11)
    assert EMPTY is not None and not EMPTY.contains(1)
    assert FULL.contains(1)


def test_intersection_short_circuit_shields_bitmap():
    """Left-to-right evaluation must stop before an out-of-domain bitmap query."""
    guarded = Intersection((Congruence(6, 0), Complement(Bitmap(frozenset({6}), 10))))
    # 1000 is not divisible by 6, so the bitmap (bound 10) is never consulted
    assert not guarded.contains(1000)
    assert not guarded.predicate()(1000)
    # but a value that passes the congruence does reach the bitmap
    with pytest.raises(DomainBoundError):
        guarded.contains(600)


def test_union_short_circuit():
    u = Union((Congruence(2, 0), Bitmap(frozenset({3}), 5)))
    assert u.contains(1000)  # even: bitmap never reached
    with pytest.raises(DomainBoundError):
        u.contains(7)


def test_intersect_all_union_all_edge_counts():
    spec = Congruence(3, 1)
    assert intersect_all(()) is FULL
    assert intersect_all((spec,)) is spec
    assert isinstance(intersect_all((spec, spec)), Intersection)


def test_parse_refuses_deep_nesting():
    deepest = "not(" * (MAX_SPEC_DEPTH - 1) + "mod(6,0)" + ")" * (MAX_SPEC_DEPTH - 1)
    assert render_spec(parse_spec(deepest)) == deepest
    for text in (
        "not(" + deepest + ")",
        "and(all," * 1000 + "all" + ")" * 1000,
        "dil(2," * 5000 + "mod(6,0)" + ")" * 5000,
    ):
        with pytest.raises(SpecSyntaxError, match=f"deeper than {MAX_SPEC_DEPTH} levels"):
            parse_spec(text)


def test_dilation_preimage_congruence_closed_form():
    assert dilation_preimage(Congruence(6, 0), 2) == Congruence(3, 0)
    assert dilation_preimage(Congruence(6, 3), 2) == EMPTY  # 2v is never odd
    assert dilation_preimage(Congruence(6, 0), 6) == Congruence(1, 0)
    assert dilation_preimage(Congruence(9, 6), 3) == Congruence(3, 2)
    # invertible factor: unique shifted residue
    assert dilation_preimage(Congruence(5, 2), 3) == Congruence(5, 4)  # 3*4=12=2 mod 5


def test_dilation_preimage_interval_closed_form():
    assert dilation_preimage(Interval(5, 7), 3) == Interval(2, 2)
    assert dilation_preimage(Interval(7, 8), 3) == EMPTY
    assert dilation_preimage(Interval(10), 3) == Interval(4)
    assert dilation_preimage(Interval(1, 100), 10) == Interval(1, 10)


def test_preimage_identity_and_trivial_cases():
    spec = Congruence(6, 0)
    assert dilation_preimage(spec, 1) is spec
    assert dilation_preimage(EMPTY, 5) is EMPTY
    assert dilation_preimage(FULL, 5) is FULL
    assert shift_preimage(EMPTY, 5) is EMPTY
    assert shift_preimage(FULL, 5) is FULL
    with pytest.raises(InputError):
        dilation_preimage(spec, 0)
    with pytest.raises(InputError):
        shift_preimage(spec, 0)


def test_shift_preimage_closed_form():
    assert shift_preimage(Congruence(6, 0), 4) == Congruence(6, 2)
    assert shift_preimage(Congruence(6, 2), 4) == Congruence(6, 4)
    assert shift_preimage(Interval(10, 20), 4) == Interval(6, 16)
    assert shift_preimage(Interval(3, 8), 10) == EMPTY
    assert shift_preimage(Interval(3), 10) == Interval(1)


def test_preimage_falls_back_to_wrapper_nodes():
    spec = Union((Congruence(2, 0), Congruence(3, 0)))
    dil = dilation_preimage(spec, 4)
    assert isinstance(dil, DilationPreimage)
    assert dil.contains(3)  # 12 is in the union
    sh = shift_preimage(spec, 7)
    assert isinstance(sh, ShiftPreimage)
    assert sh.contains(2)  # 9 is in the union


def test_preimage_soundness_sampled():
    """dil/shift rewrites agree with the defining membership on 10^4 samples."""
    rng = random.Random(1136)
    checks = 0
    while checks < 10_000:
        spec = random_spec(rng, depth=rng.randint(0, 3))
        n = rng.randint(1, 12)
        t = rng.randint(1, 12)
        dil = dilation_preimage(spec, n)
        sh = shift_preimage(spec, t)
        for _ in range(20):
            v = rng.randint(1, 1000)
            assert dil.contains(v) == spec.contains(n * v)
            assert sh.contains(v) == spec.contains(t + v)
            checks += 2


def test_compiled_predicate_matches_contains():
    rng = random.Random(7)
    for _ in range(200):
        spec = random_spec(rng, depth=rng.randint(0, 3))
        pred = spec.predicate()
        for _ in range(25):
            v = rng.randint(1, 500)
            assert pred(v) == spec.contains(v)
    # two- and three-child and/or trees, a bitmap in any slot: the compiled
    # test answers as contains does, and raises on the same query
    children = collections.Counter()
    for _ in range(300):
        width = rng.choice((2, 3))
        parts = [random_spec(rng, depth=rng.randint(0, 2)) for _ in range(width)]
        if rng.random() < 0.5:
            bound = rng.randint(1, 400)
            parts[rng.randrange(width)] = Bitmap(frozenset(rng.sample(range(1, bound + 1), bound // 2)), bound)
        spec = rng.choice((Union, Intersection))(tuple(parts))
        children[width] += 1
        pred = spec.predicate()
        for v in rng.sample(range(1, 500), 25):
            try:
                expected = spec.contains(v)
            except DomainBoundError as exc:
                with pytest.raises(DomainBoundError, match=f"^{exc}$"):
                    pred(v)
            else:
                assert pred(v) is expected, (render_spec(spec), v)
    assert min(children.values()) > 100, children
    # a node far wider than the recursion limit still compiles and answers,
    # and so does one nested to the parser's depth with wide nodes at every
    # level: frames per child, or per halving of the children, would overflow
    for node in (Union, Intersection):
        spec = node(tuple(Congruence(m, 0) for m in range(2, 10_002)))
        pred = spec.predicate()
        for v in (1, 2, 10_001, 10_007, 2 * 3 * 5 * 7 * 11):
            assert pred(v) is spec.contains(v), (node, v)
    spec = Congruence(3, 0)
    for _ in range(MAX_SPEC_DEPTH - 1):
        spec = Union((Congruence(2, 0),) * 2047 + (spec,))
    assert (spec.predicate()(7), spec.predicate()(9)) == (False, True)
    # shifts, dilations, all and none, nested under every other node
    for _ in range(200):
        spec = random_spec(rng, depth=rng.randint(0, 3))
        for _ in range(rng.randint(1, 3)):
            wrap = rng.randrange(4)
            if wrap == 0:
                spec = ShiftPreimage(rng.randint(1, 9), spec)
            elif wrap == 1:
                spec = DilationPreimage(rng.randint(1, 9), spec)
            else:
                other = rng.choice((EMPTY, FULL, random_spec(rng, depth=1)))
                spec = (Union if wrap == 2 else Intersection)((other, spec))
        spec = rng.choice((spec, Complement(spec)))
        pred = spec.predicate()
        for v in rng.sample(range(1, 500), 25):
            assert pred(v) is spec.contains(v), (render_spec(spec), v)
    # a bits-free spec answers in one frame, however wide or deep
    for text in ("and(mod(6,0),geq(3))", "not(or(mod(2,0),and(range(3,9),shift(2,or(mod(3,1),dil(2,geq(5)))))))"):
        assert _calls_per_query(parse_spec(text).predicate(), range(1, 50)) == 1, text
    # 97 levels under a 500-child or, every node evaluated for every query
    spec = Congruence(1, 0)
    for _ in range(24):
        spec = Intersection((Interval(1), ShiftPreimage(1, Complement(Complement(spec)))))
    spec = Union(tuple(Congruence(m, 0) for m in range(100, 600)) + (spec,))
    pred = spec.predicate()
    assert all(pred(v) is spec.contains(v) is True for v in range(1, 50))
    assert _calls_per_query(pred, range(1, 50)) == 1
    # constants past the int->str digit limit stay exact, and the limit holds after
    limit = sys.get_int_max_str_digits()
    big = 7 ** 5916  # 5,000 digits
    huge = 10 ** 5000
    for spec in (
        Congruence(big, 5),
        Union((Congruence(2, 0), Congruence(big, big - 1))),
        DilationPreimage(huge, Interval(huge + 1)),
        DilationPreimage(huge, Interval(2 * huge, 3 * huge)),
        ShiftPreimage(huge, Congruence(big, 5)),
    ):
        pred = spec.predicate()
        for v in (1, 2, 3, 5, big - 1, big + 5, huge // 7):
            assert pred(v) is spec.contains(v), (type(spec).__name__, v)
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        str(huge)
    # shift and dilation chains bind their argument once: code grows linearly
    # with the depth, where pasting (v + t) into every leaf would not
    for node in (ShiftPreimage, DilationPreimage):
        sizes = {}
        for levels in (25, 50, 99):
            spec = Interval(1)
            for _ in range(levels):
                spec = Intersection((Interval(1), node(1, spec)))
            sizes[levels] = sum(len(code.co_code) for code in _code_objects(spec.predicate()))
            assert spec.predicate()(5) is True
        assert sizes[50] <= 2.2 * sizes[25] and sizes[99] <= 4.4 * sizes[25], (node, sizes)


def _calls_per_query(pred, values) -> float:
    """Python-level calls made per query of ``pred``, counted by a profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(hook)
    try:
        for v in values:
            pred(v)
    finally:
        sys.setprofile(None)
    return calls / len(values)


def _code_objects(pred) -> list:
    """The code objects of a compiled predicate and of every part it calls."""
    codes, todo = [], [pred]
    while todo:
        f = todo.pop()
        codes.append(f.__code__)
        todo.extend(
            g for g in f.__globals__.values()
            if getattr(g, "__code__", None) and g.__code__.co_filename == "<setspec>"
        )
    return codes


def test_de_morgan_and_double_complement_extensional():
    rng = random.Random(11)
    values = range(1, 400)
    for _ in range(50):
        a = random_spec(rng)
        b = random_spec(rng)
        assert same_members(
            Complement(Union((a, b))),
            Intersection((Complement(a), Complement(b))),
            values,
        )
        assert same_members(
            Complement(Intersection((a, b))),
            Union((Complement(a), Complement(b))),
            values,
        )
        assert same_members(Complement(Complement(a)), a, values)


def test_parse_examples():
    assert parse_spec("mod(6,0)") == Congruence(6, 0)
    assert parse_spec(" mod( 6 , 0 ) ") == Congruence(6, 0)
    assert parse_spec("geq(5)") == Interval(5, None)
    assert parse_spec("range(2,9)") == Interval(2, 9)
    assert parse_spec("bits(6 12 36; 1000000)") == Bitmap(frozenset({6, 12, 36}), 10**6)
    assert parse_spec("bits(; 10)") == Bitmap(frozenset(), 10)
    assert parse_spec("not(mod(2,0))") == Complement(Congruence(2, 0))
    assert parse_spec("and(mod(2,0),mod(3,0))") == Intersection(
        (Congruence(2, 0), Congruence(3, 0))
    )
    assert parse_spec("or(mod(2,1),geq(10))") == Union((Congruence(2, 1), Interval(10)))
    assert parse_spec("dil(2,mod(6,0))") == DilationPreimage(2, Congruence(6, 0))
    assert parse_spec("shift(4,mod(6,0))") == ShiftPreimage(4, Congruence(6, 0))
    assert parse_spec("all") is FULL
    assert parse_spec("none") is EMPTY


def test_parse_errors_carry_position():
    for text in ("mod(6,", "mod(6 0)", "frob(3)", "mod(6,0) junk", "", "and(mod(2,0))", "bits(5)"):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec(text)
        assert err.value.position >= 0
        assert "position" in str(err.value)


def test_parse_rejects_semantic_violations():
    # syntax fine, constructor invariants violated
    with pytest.raises(InputError):
        parse_spec("mod(0,0)")
    with pytest.raises(InputError):
        parse_spec("mod(6,7)")
    with pytest.raises(InputError):
        parse_spec("range(9,2)")
    with pytest.raises(InputError):
        parse_spec("bits(11; 10)")
    with pytest.raises(InputError):
        parse_spec("dil(0,all)")


def test_render_parse_round_trip():
    rng = random.Random(23)
    cases = [
        Congruence(6, 0),
        Interval(5),
        Interval(2, 9),
        Bitmap(frozenset({6, 12, 36}), 10**6),
        Complement(Congruence(2, 0)),
        DilationPreimage(3, Interval(1, 50)),
        ShiftPreimage(2, Congruence(4, 1)),
        EMPTY,
        FULL,
    ] + [random_spec(rng, depth=3) for _ in range(100)]
    for spec in cases:
        text = render_spec(spec)
        assert parse_spec(text) == spec
        # canonical text is a fixed point
        assert render_spec(parse_spec(text)) == text


def test_eventual_period_examples():
    assert eventual_period(parse_spec("mod(6,4)")) == (0, 6)
    assert eventual_period(parse_spec("geq(5)")) == (5, 1)
    assert eventual_period(parse_spec("range(3,9)")) == (9, 1)
    assert eventual_period(FULL) == eventual_period(EMPTY) == (0, 1)
    assert eventual_period(parse_spec("and(not(mod(2,0)),geq(5))")) == (5, 2)
    assert eventual_period(parse_spec("or(dil(3,mod(4,1)),shift(2,range(1,7)),mod(6,0))")) == (7, 12)
    assert eventual_period(parse_spec("and(mod(6,0),not(bits(3; 9)))")) is None
    assert eventual_period(parse_spec("shift(1,or(geq(2),dil(2,bits(; 4))))")) is None


bits_free_leaves = st.one_of(
    st.builds(lambda m, r: Congruence(m, r % m), st.integers(1, 12), st.integers(0, 11)),
    st.builds(lambda lo: Interval(lo), st.integers(1, 40)),
    st.builds(lambda lo, n: Interval(lo, lo + n), st.integers(1, 40), st.integers(0, 30)),
    st.sampled_from([EMPTY, FULL]),
)
bits_free_specs = st.recursive(
    bits_free_leaves,
    lambda inner: st.one_of(
        st.builds(Complement, inner),
        st.builds(Intersection, st.lists(inner, min_size=2, max_size=3)),
        st.builds(Union, st.lists(inner, min_size=2, max_size=3)),
        st.builds(DilationPreimage, st.integers(1, 6), inner),
        st.builds(ShiftPreimage, st.integers(1, 20), inner),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(spec=bits_free_specs, t=st.integers(1, 50), n=st.integers(1, 8), far=st.integers(0, 10**12))
def test_eventual_period_holds_for_spec_and_its_preimages(spec, t, n, far):
    """Past T, membership repeats with period L, on the spec and on every preimage of it."""
    T, L = eventual_period(spec)
    for s in (spec, shift_preimage(spec, t), dilation_preimage(spec, n)):
        for v in [*range(T + 1, T + 2 * L + 40), T + 1 + far]:
            assert s.contains(v) == s.contains(v + L), (render_spec(s), v)
