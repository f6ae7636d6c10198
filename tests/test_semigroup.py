"""Cayley tables: validation, idempotents, ideals, kernel, order, product formula."""

import hashlib
import random
from itertools import combinations, product

import pytest

from conftest import ideals_oracle
from ipkit import semigroup
from ipkit.errors import AssociativityError, InputError, RefusalError, StructuralError
from ipkit.semigroup import (
    FiniteSemigroup,
    _compose_closure,
    all_semigroups,
    cyclic_group,
    group_check,
    ideal_structure,
    idempotent_order,
    idempotents,
    left_zero,
    multiplication_mod,
    null_semigroup,
    parse_table,
    product_formula_check,
    render_table,
    right_zero,
    sampled_transformation_semigroups,
    transformation_semigroup,
    validate_table,
)


def named_corpus():
    out = []
    for n in range(1, 7):
        out.append(cyclic_group(n))
        out.append(multiplication_mod(n))
        out.append(left_zero(n))
        out.append(right_zero(n))
        out.append(null_semigroup(n))
    return out


def relabel(sg, rng):
    """The same semigroup with its elements renamed by a random permutation."""
    n = sg.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[sg.mul(a, b)]
    return validate_table(table)


def group_times_rectangular_band(g, rows, cols):
    """Z_g x (rows x cols rectangular band): (x, i, j)(y, k, l) = (x + y, i, l)."""
    elems = list(product(range(g), range(rows), range(cols)))
    index = {e: i for i, e in enumerate(elems)}
    return validate_table(
        [[index[((x[0] + y[0]) % g, x[1], y[2])] for y in elems] for x in elems]
    )


def large_corpus():
    """Relabelled order-13..17 tables from three families."""
    rng = random.Random(1)
    tables = [
        multiplication_mod(13),
        multiplication_mod(16),
        group_times_rectangular_band(2, 2, 4),
        group_times_rectangular_band(3, 1, 5),
        group_times_rectangular_band(1, 4, 4),
        transformation_semigroup([(3, 1, 0, 0), (0, 2, 0, 3)]),
        transformation_semigroup([(3, 1, 3, 1), (0, 3, 3, 2)]),
        transformation_semigroup([(2, 3, 3, 3), (1, 2, 2, 0)]),
    ]
    assert sorted(sg.order for sg in tables) == [13, 13, 15, 16, 16, 16, 17, 17]
    return [relabel(sg, rng) for sg in tables]


def test_validate_table_examples():
    assert validate_table([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]).order == 4
    assert validate_table([[0, 0], [1, 1]]).order == 2  # left zero
    with pytest.raises(AssociativityError) as err:
        validate_table([[1, 0], [0, 0]])
    assert err.value.triple == (0, 0, 1)
    assert "(0*0)*1 != 0*(0*1)" in str(err.value)


def test_validate_table_shape_errors():
    with pytest.raises(InputError, match="not square"):
        validate_table([[0, 1], [0]])
    with pytest.raises(InputError, match="outside"):
        validate_table([[0, 2], [1, 0]])
    with pytest.raises(InputError):
        validate_table([])


def test_first_violation_is_row_major():
    # x*y = x XOR y on {0,1,2}: 1^2 = 3 out of range, so craft a mod-based one:
    # f(a,b) = |a-b| is not associative; first violating triple in row-major order
    n = 3
    table = [[abs(a - b) for b in range(n)] for a in range(n)]
    with pytest.raises(AssociativityError) as err:
        validate_table(table)
    a, b, c = err.value.triple
    # recheck minimality by scanning in the same order
    def mul(x, y):
        return abs(x - y)
    for aa in range(n):
        broke = False
        for bb in range(n):
            for cc in range(n):
                if mul(mul(aa, bb), cc) != mul(aa, mul(bb, cc)):
                    assert (aa, bb, cc) == (a, b, c)
                    broke = True
                    break
            if broke:
                break
        if broke:
            break


def test_parse_render_round_trip():
    text = "3\n0 1 2\n1 2 0\n2 0 1\n"
    sg = parse_table(text)
    assert sg.table == cyclic_group(3).table
    assert render_table(sg) == text
    assert parse_table(render_table(sg)) == sg


def test_parse_table_errors():
    with pytest.raises(InputError, match="order"):
        parse_table("x\n0\n")
    with pytest.raises(InputError, match="expected 2 table rows"):
        parse_table("2\n0 1\n")
    with pytest.raises(InputError, match="entries"):
        parse_table("2\n0 1\n1\n")
    with pytest.raises(InputError, match="non-integer"):
        parse_table("1\nzero\n")
    with pytest.raises(InputError):
        parse_table("")
    with pytest.raises(InputError):
        parse_table("0\n")


def test_idempotents_examples():
    assert idempotents(cyclic_group(4)) == frozenset({0})
    assert idempotents(multiplication_mod(6)) == frozenset({0, 1, 3, 4})
    assert idempotents(left_zero(2)) == frozenset({0, 1})


def test_idempotents_nonempty_across_corpus():
    for sg in named_corpus() + all_semigroups(2) + all_semigroups(3):
        assert idempotents(sg)


def test_ideal_structure_group_case():
    st = ideal_structure(cyclic_group(5))
    assert st.minimal_left == (frozenset(range(5)),)
    assert st.minimal_right == (frozenset(range(5)),)
    assert st.kernel == frozenset(range(5))


def test_ideal_structure_multiplication_mod6():
    st = ideal_structure(multiplication_mod(6))
    assert st.kernel == frozenset({0})
    assert frozenset({0}) in st.minimal_left
    assert frozenset({0}) in st.minimal_right


def test_ideal_structure_left_zero():
    st = ideal_structure(left_zero(2))
    assert st.minimal_left == (frozenset({0, 1}),)
    assert set(st.minimal_right) == {frozenset({0}), frozenset({1})}
    assert st.kernel == frozenset({0, 1})


def test_ideal_structure_refusal_and_override():
    big = cyclic_group(13)
    with pytest.raises(RefusalError, match="order 13"):
        ideal_structure(big)
    st = ideal_structure(big, order_cap=13)
    assert st.kernel == frozenset(range(13))
    with pytest.raises(InputError):
        ideal_structure(big, order_cap=0)


def test_kernel_union_coincidence_across_corpus():
    for sg in named_corpus() + all_semigroups(3):
        st = ideal_structure(sg)  # internal assertion would raise on mismatch
        left_union = frozenset().union(*st.minimal_left)
        right_union = frozenset().union(*st.minimal_right)
        assert left_union == right_union == st.kernel


def test_ideal_structure_matches_lattice_oracle():
    corpus = (
        named_corpus()
        + all_semigroups(3)
        + sampled_transformation_semigroups(seed=2026)
        + large_corpus()
    )
    for sg in corpus:
        st = ideal_structure(sg, order_cap=17)
        assert (st.minimal_left, st.minimal_right, st.kernel) == ideals_oracle(sg), sg.table


def test_ideal_structure_order_48():
    # the subset lattice would hold 2^48 candidates here
    st = ideal_structure(multiplication_mod(48), order_cap=48)
    assert st.kernel == frozenset({0})
    assert st.minimal_left == st.minimal_right == (frozenset({0}),)


def test_idempotent_order_multiplication_mod6():
    order = idempotent_order(multiplication_mod(6))
    assert (3, 1) in order.leq and (1, 3) not in order.leq
    assert order.minimal == frozenset({0})


def test_idempotent_order_left_zero():
    order = idempotent_order(left_zero(2))
    assert order.leq == frozenset({(0, 0), (1, 1)})
    assert order.minimal == frozenset({0, 1})


def test_idempotent_order_group():
    order = idempotent_order(cyclic_group(6))
    assert order.idempotents == frozenset({0})
    assert order.minimal == frozenset({0})


def test_idempotent_order_reflexive_transitive():
    for sg in named_corpus():
        order = idempotent_order(sg)
        for e in order.idempotents:
            assert (e, e) in order.leq
        for p, q in order.leq:
            for q2, r in order.leq:
                if q2 == q:
                    assert (p, r) in order.leq


def test_minimality_link_across_corpus():
    for sg in named_corpus() + all_semigroups(3):
        order = idempotent_order(sg)  # raises internally if the link fails
        kernel = ideal_structure(sg).kernel
        assert order.minimal == order.idempotents & kernel
        # a caller's kernel stands in for the computed one and is checked alike
        assert idempotent_order(sg, kernel=kernel) == order
        if order.minimal != order.idempotents:
            with pytest.raises(StructuralError, match="kernel idempotents"):
                idempotent_order(sg, kernel=frozenset(range(sg.order)))


def test_group_check_examples():
    lz = left_zero(2)
    assert group_check(lz, {0, 1}, {0}) is True
    z4 = cyclic_group(4)
    assert group_check(z4, range(4), range(4)) is True


def test_group_check_rejects_non_minimal_inputs():
    z6 = multiplication_mod(6)
    with pytest.raises(InputError, match="not a minimal left ideal"):
        group_check(z6, {0, 1}, {0})
    with pytest.raises(InputError, match="not a minimal right ideal"):
        group_check(z6, {0}, {0, 2})
    with pytest.raises(InputError, match="outside"):
        group_check(z6, {9}, {0})


def test_group_check_sweep():
    for sg in named_corpus() + all_semigroups(3):
        st = ideal_structure(sg)
        for left in st.minimal_left:
            for right in st.minimal_right:
                assert group_check(sg, left, right), (sg.table, left, right)


def test_product_formula_examples():
    z4 = cyclic_group(4)
    assert product_formula_check(z4, 1, 2, {3})
    assert product_formula_check(z4, 1, 2, {0})
    with pytest.raises(InputError):
        product_formula_check(z4, 4, 0, {0})
    with pytest.raises(InputError):
        product_formula_check(z4, 0, 0, {7})


def test_product_formula_exhaustive_small_orders():
    for sg in all_semigroups(1) + all_semigroups(2):
        n = sg.order
        for p in range(n):
            for q in range(n):
                for r in range(n + 1):
                    for subset in combinations(range(n), r):
                        assert product_formula_check(sg, p, q, subset)


def test_all_semigroups_counts():
    assert len(all_semigroups(1)) == 1
    assert len(all_semigroups(2)) == 8
    assert len(all_semigroups(3)) == 113
    with pytest.raises(RefusalError):
        all_semigroups(4)
    with pytest.raises(InputError):
        all_semigroups(0)


def test_named_families_shapes():
    assert cyclic_group(1).order == 1
    assert multiplication_mod(5).mul(2, 3) == 1
    assert left_zero(3).mul(1, 2) == 1
    assert right_zero(3).mul(1, 2) == 2
    assert null_semigroup(3).mul(2, 2) == 0
    for factory in (cyclic_group, multiplication_mod, left_zero, right_zero, null_semigroup):
        with pytest.raises(InputError):
            factory(0)


def test_transformation_semigroup():
    # constant maps absorb on the left under composition: f(g(x)) is constant f
    sg = transformation_semigroup([(0, 0), (1, 1)])
    assert sg.order == 2
    assert sg.table == left_zero(2).table
    with pytest.raises(InputError):
        transformation_semigroup([])
    with pytest.raises(InputError):
        transformation_semigroup([(0, 3)])


def test_compose_closure_full_t5():
    # a 5-cycle, a transposition and a rank-4 map generate all 5^5 self-maps
    maps = _compose_closure([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4)])
    assert len(maps) == 3125
    assert maps == sorted(product(range(5), repeat=5))


def test_compose_closure_matches_all_pairs_fixpoint():
    def all_pairs(maps):
        seen = set(maps)
        while True:
            grown = seen | {tuple(f[x] for x in g) for f in seen for g in seen}
            if grown == seen:
                return sorted(seen)
            seen = grown

    rng = random.Random(400)
    for _ in range(60):
        degree = rng.randint(2, 4)
        gens = [
            tuple(rng.randrange(degree) for _ in range(degree))
            for _ in range(rng.randint(1, 3))
        ]
        assert _compose_closure(gens) == all_pairs(gens), gens


def test_sampled_transformation_semigroups_deterministic():
    a = sampled_transformation_semigroups(seed=2026)
    b = sampled_transformation_semigroups(seed=2026)
    assert [sg.table for sg in a] == [sg.table for sg in b]
    orders = sorted(sg.order for sg in a)
    assert set(orders) <= {4, 5, 6}
    assert len(a) == 9  # three per order with this seed


def test_sampled_transformation_semigroups_close_each_generator_set_once(monkeypatch):
    closed = []

    def recording(maps, _real=_compose_closure):
        closed.append(maps)
        return _real(maps)

    monkeypatch.setattr(semigroup, "_compose_closure", recording)
    sampled = sampled_transformation_semigroups(seed=2026)
    # closing a kept generator set a second time would record it twice in a row
    assert all(a != b for a, b in zip(closed, closed[1:]))
    # the tables, in order, that closing each kept generator set twice produced
    digest = hashlib.sha256(repr([sg.table for sg in sampled]).encode()).hexdigest()
    assert digest == "fb9a2deabf9bf07766f86cccefd0143b4f354c6668d95cf7790aa9542aecfb86"


def test_frozen_semigroup_is_hashable():
    sg = cyclic_group(3)
    assert isinstance(hash(sg), int)
    assert sg == FiniteSemigroup(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
