"""Subsystem search: canonical order, oracle equivalence, verification."""

import random
from dataclasses import replace

import pytest

from conftest import fp_oracle, fs_oracle, random_spec
from ipkit.errors import DomainBoundError, InputError, RefusalError, StructuralError
from ipkit.fsfp import EMPTY_STATE, finite_products, finite_sums, state_of
from ipkit.search import (
    Certificate,
    OutcomeKind,
    SearchBudget,
    _accept,
    brute_force_subsystem,
    budget_failure,
    count_block_systems,
    iter_block_systems,
    iter_blocks,
    search_subsystem,
    stage_constraint,
    verification_failure,
    verify_certificate,
)
from ipkit.setspec import (
    Bitmap,
    Congruence,
    DilationPreimage,
    ShiftPreimage,
    parse_spec,
)

NAT32 = tuple(range(1, 33))
MOD6 = Congruence(6, 0)


def test_budget_validation():
    with pytest.raises(InputError):
        SearchBudget(depth=0, window=8)
    with pytest.raises(InputError):
        SearchBudget(depth=1, window=8, max_block=0)
    with pytest.raises(InputError):
        SearchBudget(depth=1, window=8, node_limit=0)
    with pytest.raises(InputError):
        search_subsystem(NAT32, MOD6, SearchBudget(depth=1, window=33))


def test_iter_blocks_canonical_order():
    assert list(iter_blocks(1, 4, 2)) == [
        (1,),
        (2,),
        (1, 2),
        (3,),
        (1, 3),
        (2, 3),
        (4,),
        (1, 4),
        (2, 4),
        (3, 4),
    ]
    # among equal max index: singleton, then pairs, then triples
    sized = [b for b in iter_blocks(1, 5, 3) if b[-1] == 4]
    assert sized == [(4,), (1, 4), (2, 4), (3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_iter_block_systems_matches_count():
    for window, max_block, depth in [(6, 2, 2), (8, 3, 2), (5, 4, 1), (7, 2, 3)]:
        systems = list(iter_block_systems(window, max_block, depth))
        assert len(systems) == count_block_systems(window, max_block, depth)
        assert len(set(systems)) == len(systems)
        for system in systems:
            for a, b in zip(system, system[1:]):
                assert a[-1] < b[0]


def test_search_worked_example():
    out = search_subsystem(NAT32, MOD6, SearchBudget(depth=2, window=32))
    assert out.kind is OutcomeKind.FOUND
    cert = out.certificate
    assert cert.blocks == ((1, 2, 3), (6,))
    assert cert.ys == (6, 6)
    assert cert.fs | cert.fp == frozenset({6, 12, 36})
    assert cert.verified
    assert verify_certificate(cert)


def test_search_empty_target_exhausts():
    out = search_subsystem(NAT32, parse_spec("none"), SearchBudget(depth=1, window=8))
    assert out.kind is OutcomeKind.EXHAUSTED
    assert out.certificate is None


def test_search_full_target_takes_first_block():
    out = search_subsystem(NAT32, parse_spec("all"), SearchBudget(depth=1, window=32))
    assert out.kind is OutcomeKind.FOUND
    assert out.certificate.blocks == ((1,),)
    assert out.certificate.ys == (1,)
    assert out.nodes == 1


def test_search_trims_x_to_referenced_window():
    out = search_subsystem(NAT32, MOD6, SearchBudget(depth=2, window=32))
    assert out.certificate.x == tuple(range(1, 7))


def test_search_rejects_bad_sequence():
    with pytest.raises(InputError):
        search_subsystem((1, 0, 3), MOD6, SearchBudget(depth=1, window=3))
    with pytest.raises(InputError):
        search_subsystem((), MOD6, SearchBudget(depth=1, window=1))


def test_node_limit_outcome():
    budget = SearchBudget(depth=3, window=20, node_limit=5)
    out = search_subsystem(NAT32[:20], Congruence(1000, 999), budget)
    assert out.kind is OutcomeKind.NODE_LIMIT
    assert out.nodes == 5
    assert out.certificate is None


def test_bitmap_domain_error_names_query():
    # window sums can exceed the bitmap bound, and that surfaces, not silently false
    target = Bitmap(frozenset(), 10)
    with pytest.raises(DomainBoundError, match="11"):
        search_subsystem(NAT32, target, SearchBudget(depth=1, window=11, max_block=1))


def test_stage_constraint_examples():
    assert stage_constraint(EMPTY_STATE, MOD6) is MOD6
    st = state_of((6,))
    spec = stage_constraint(st, MOD6)
    for v in range(1, 1001):
        assert spec.contains(v) == MOD6.contains(v)
    dead = stage_constraint(state_of((1,)), Congruence(2, 0))
    assert not any(dead.contains(v) for v in range(1, 1001))


def test_stage_constraint_is_exact():
    """For a state already inside the target, y is admissible iff every sum
    and product of the extension lands in the target."""
    rng = random.Random(3)
    for _ in range(40):
        target = random_spec(rng)
        # grow a state that satisfies FS u FP inside the target, the
        # situation stage_constraint is specified for
        ys = ()
        for _ in range(rng.randint(0, 3)):
            candidates = [
                y
                for y in range(1, 40)
                if all(
                    target.contains(v)
                    for v in fs_oracle(ys + (y,)) | fp_oracle(ys + (y,))
                )
            ]
            if not candidates:
                break
            ys = ys + (rng.choice(candidates),)
        st = state_of(ys) if ys else EMPTY_STATE
        spec = stage_constraint(st, target)
        for y in range(1, 60):
            extended = ys + (y,)
            want = all(
                target.contains(v) for v in fs_oracle(extended) | fp_oracle(extended)
            )
            assert spec.contains(y) == want, (ys, y)


def test_incremental_constraint_matches_from_scratch():
    """The tests the search accumulates stage by stage agree with stage_constraint."""
    rng = random.Random(17)
    for _ in range(30):
        target = random_spec(rng)
        fs, fp, tests = frozenset(), frozenset(), (target.predicate(),)
        ys = ()
        for _ in range(3):
            y = rng.randint(1, 15)
            fs, fp, added = _accept(target, fs, fp, y)
            tests += added
            ys += (y,)
            assert (fs, fp) == (finite_sums(ys), finite_products(ys))
            rebuilt = stage_constraint(state_of(ys), target)
            for v in range(1, 300):
                assert all(test(v) for test in tests) == rebuilt.contains(v), (ys, v)


def test_search_compiles_each_preimage_once(monkeypatch):
    counts = {"built": 0, "compiled": 0}

    def counted(cls):
        post_init, predicate = cls.__post_init__, cls.predicate

        def counted_post_init(self):
            counts["built"] += 1
            post_init(self)

        def counted_predicate(self):
            counts["compiled"] += 1
            return predicate(self)

        monkeypatch.setattr(cls, "__post_init__", counted_post_init)
        monkeypatch.setattr(cls, "predicate", counted_predicate)

    counted(ShiftPreimage)
    counted(DilationPreimage)
    target = parse_spec("and(mod(6,0),geq(3))")
    out = search_subsystem(tuple(range(1, 200)), target, SearchBudget(depth=8, window=150))
    assert out.kind is OutcomeKind.FOUND
    assert counts["built"] > 0
    assert counts["compiled"] == counts["built"]


def test_determinism():
    budget = SearchBudget(depth=3, window=32)
    a = search_subsystem(NAT32, MOD6, budget)
    b = search_subsystem(NAT32, MOD6, budget)
    assert a == b


def test_monotone_depth_exhaustion():
    # odd sums only: no block of (2,4,6,...) ever hits mod(2,1)
    evens = tuple(range(2, 18, 2))
    target = Congruence(2, 1)
    for depth in (1, 2, 3):
        budget = SearchBudget(depth=depth, window=8, max_block=2)
        out = search_subsystem(evens, target, budget)
        assert out.kind is OutcomeKind.EXHAUSTED


def test_found_at_depth_implies_found_below():
    for depth in (1, 2, 3, 4, 5):
        out = search_subsystem(
            tuple(range(1, 65)), MOD6, SearchBudget(depth=depth, window=64)
        )
        assert out.kind is OutcomeKind.FOUND, depth


def test_brute_force_examples():
    budget = SearchBudget(depth=2, window=8, max_block=4)
    x = tuple(range(1, 9))
    fast = search_subsystem(x, Congruence(3, 0), budget)
    slow = brute_force_subsystem(x, Congruence(3, 0), budget)
    assert fast.kind is slow.kind is OutcomeKind.FOUND
    assert fast.certificate == slow.certificate
    assert (
        brute_force_subsystem(x, parse_spec("none"), budget).kind
        is OutcomeKind.EXHAUSTED
    )
    first = brute_force_subsystem(x, parse_spec("all"), SearchBudget(depth=1, window=8))
    assert first.certificate.blocks == ((1,),)


def test_brute_force_refuses_large_budget():
    with pytest.raises(RefusalError, match="exceed cap"):
        brute_force_subsystem(
            tuple(range(1, 65)), MOD6, SearchBudget(depth=5, window=64)
        )


def test_oracle_equivalence_seeded():
    rng = random.Random(404)
    x = tuple(range(1, 9))
    budget = SearchBudget(depth=2, window=8, max_block=3)
    for _ in range(60):
        spec = random_spec(rng, depth=rng.randint(0, 3))
        fast = search_subsystem(x, spec, budget)
        slow = brute_force_subsystem(x, spec, budget)
        assert fast.kind is slow.kind
        assert fast.certificate == slow.certificate


def _found_cert():
    return search_subsystem(NAT32, MOD6, SearchBudget(depth=2, window=32)).certificate


def test_verify_tampered_y():
    cert = replace(_found_cert(), ys=(6, 7))
    failure = verification_failure(cert)
    assert failure is not None and "block sums" in failure
    assert not verify_certificate(cert)


def test_verify_tampered_fs():
    good = _found_cert()
    cert = replace(good, fs=good.fs | {13})
    assert not verify_certificate(cert)
    assert "finite-sum" in verification_failure(cert)


def test_verify_membership_failure_names_element():
    good = _found_cert()
    cert = replace(good, spec_text="mod(12,0)")
    failure = verification_failure(cert)
    assert failure == "element 6 of FS u FP is not in the target set"


def test_verify_structural_errors():
    good = _found_cert()
    with pytest.raises(StructuralError, match="out of order"):
        verification_failure(replace(good, blocks=((2, 5), (4, 7))))
    with pytest.raises(StructuralError, match="outside recorded window"):
        verification_failure(replace(good, blocks=((1, 2, 3), (99,))))
    with pytest.raises(StructuralError, match="no blocks"):
        verification_failure(replace(good, blocks=(), ys=()))


def test_verify_depth_cap():
    ys = tuple(1 for _ in range(23))
    cert = Certificate(
        x=tuple(1 for _ in range(23)),
        blocks=tuple((i,) for i in range(1, 24)),
        ys=ys,
        fs=frozenset(range(1, 24)),
        fp=frozenset({1}),
        spec_text="all",
    )
    with pytest.raises(RefusalError, match="verification cap"):
        verification_failure(cert)


def test_search_refuses_depth_past_verify_cap_before_searching(monkeypatch):
    def no_candidates(*args):
        raise AssertionError("a candidate block was enumerated")

    monkeypatch.setattr("ipkit.search.iter_blocks", no_candidates)
    x = tuple(range(1, 61))
    with pytest.raises(RefusalError, match="search depth 23 exceeds verification cap 22"):
        search_subsystem(x, Congruence(1, 0), SearchBudget(depth=23, window=60, max_block=1))


def test_budget_failure():
    budget = SearchBudget(depth=2, window=32)
    out = search_subsystem(NAT32, MOD6, budget)
    cert = out.certificate
    assert cert.blocks == ((1, 2, 3), (6,))
    assert budget_failure(cert, budget, out.nodes) is None
    cases = [
        (replace(budget, depth=3), out.nodes, "2 blocks recorded for budget depth 3"),
        (replace(budget, max_block=2), out.nodes, "more than max_block 2"),
        (replace(budget, window=5), out.nodes, "block index 6 outside budget window 5"),
        (budget, 1, "node count 1 outside"),
        (budget, -5, "node count -5 outside"),
        (replace(budget, node_limit=out.nodes - 1), out.nodes, "node count"),
    ]
    for bad_budget, nodes, message in cases:
        assert message in budget_failure(cert, bad_budget, nodes)


def test_every_found_outcome_verifies():
    rng = random.Random(812)
    x = tuple(range(1, 13))
    for _ in range(40):
        spec = random_spec(rng)
        budget = SearchBudget(depth=rng.randint(1, 2), window=12, max_block=3)
        out = search_subsystem(x, spec, budget)
        if out.kind is OutcomeKind.FOUND:
            assert verify_certificate(out.certificate)


def test_canonical_first_is_literal_scan():
    """The found system equals the first admissible one in plain enumeration order."""
    rng = random.Random(5150)
    x = tuple(range(1, 9))
    budget = SearchBudget(depth=2, window=8, max_block=2)
    for _ in range(30):
        spec = random_spec(rng)
        out = search_subsystem(x, spec, budget)
        wanted = None
        for system in iter_block_systems(8, 2, 2):
            ys = tuple(sum(x[i - 1] for i in b) for b in system)
            if all(spec.contains(v) for v in fs_oracle(ys) | fp_oracle(ys)):
                wanted = system
                break
        if wanted is None:
            assert out.kind is OutcomeKind.EXHAUSTED
        else:
            assert out.certificate.blocks == wanted
