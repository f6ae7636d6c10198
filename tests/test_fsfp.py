"""Finite-sum/finite-product sets: enumis, incremental identity, state coherence."""

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fp_oracle, fs_oracle
from ipkit import fsfp
from ipkit.errors import InputError, RefusalError, StructuralError
from ipkit.fsfp import (
    EMPTY_STATE,
    FsFpState,
    check_block_order,
    extend_state,
    finite_products,
    finite_sums,
    normalize_block,
    state_of,
    subsystem_sums,
)

terms_lists = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8)


def test_finite_sums_examples():
    assert finite_sums((7,)) == frozenset({7})
    assert finite_sums((2, 3, 5)) == frozenset({2, 3, 5, 7, 8, 10})
    assert finite_sums((2, 2)) == frozenset({2, 4})


def test_finite_products_examples():
    assert finite_products((7,)) == frozenset({7})
    assert finite_products((2, 3, 5)) == frozenset({2, 3, 5, 6, 10, 15, 30})
    assert finite_products((2, 2)) == frozenset({2, 4})


def test_rejects_bad_terms():
    for bad in ((), (0,), (-3,), (2, 0), (2.5,), (True,)):
        with pytest.raises(InputError):
            finite_sums(bad)
        with pytest.raises(InputError):
            finite_products(bad)


def test_arbitrary_precision_products():
    ys = tuple(10**6 + i for i in range(6))
    fp = finite_products(ys)
    top = 1
    for y in ys:
        top *= y
    assert top in fp
    assert top > 2**63


@given(terms_lists)
def test_sums_match_subset_oracle(ys):
    assert finite_sums(ys) == fs_oracle(ys)


@given(terms_lists)
def test_products_match_subset_oracle(ys):
    assert finite_products(ys) == fp_oracle(ys)


@given(terms_lists, st.integers(min_value=1, max_value=50))
def test_incremental_identity(ys, y):
    fs = finite_sums(ys)
    assert finite_sums(tuple(ys) + (y,)) == fs | {y} | {t + y for t in fs}
    fp = finite_products(ys)
    assert finite_products(tuple(ys) + (y,)) == fp | {y} | {s * y for s in fp}


@given(terms_lists)
def test_cardinality_bound(ys):
    assert len(finite_sums(ys)) <= 2 ** len(ys) - 1


def test_cardinality_equality_at_powers_of_two():
    for m in range(1, 9):
        ys = tuple(2**i for i in range(m))
        assert len(finite_sums(ys)) == 2**m - 1


@given(terms_lists)
def test_prefix_monotonic(ys):
    for cut in range(1, len(ys)):
        assert finite_sums(ys[:cut]) <= finite_sums(ys)
        assert finite_products(ys[:cut]) <= finite_products(ys)


@given(terms_lists)
def test_permutation_invariance(ys):
    rng = random.Random(sum(ys))
    shuffled = list(ys)
    rng.shuffle(shuffled)
    assert finite_sums(shuffled) == finite_sums(ys)
    assert finite_products(shuffled) == finite_products(ys)


def test_state_of_examples():
    st66 = state_of((6, 6))
    assert st66.fs == frozenset({6, 12})
    assert st66.fp == frozenset({6, 36})
    assert state_of((1,)).fs == frozenset({1})
    st23 = state_of((2, 3))
    assert st23.fs == frozenset({2, 3, 5})
    assert st23.fp == frozenset({2, 3, 6})


@given(terms_lists)
def test_state_of_matches_enumeration(ys):
    state = state_of(ys)
    assert state.ys == tuple(ys)
    assert state.depth == len(ys)
    assert state.fs == fs_oracle(ys)
    assert state.fp == fp_oracle(ys)


def test_extend_state_examples():
    base = extend_state(EMPTY_STATE, 5)
    assert base.fs == frozenset({5}) and base.fp == frozenset({5})
    doubled = extend_state(extend_state(EMPTY_STATE, 6), 6)
    assert doubled.fs == frozenset({6, 12})
    assert doubled.fp == frozenset({6, 36})


def test_extend_state_rejects_bad_term():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(InputError):
            extend_state(EMPTY_STATE, bad)


def test_state_coherence_enforced():
    with pytest.raises(StructuralError):
        FsFpState((1, 2), frozenset({1, 2, 3}), frozenset({2}))
    with pytest.raises(StructuralError):
        FsFpState((6,), frozenset({6, 12}), frozenset({6}))
    # the empty state is the one state with empty sets
    assert EMPTY_STATE.depth == 0


def test_state_derives_its_sets_and_checks_given_ones():
    assert FsFpState((2, 3)) == state_of((2, 3))
    assert FsFpState((2, 3), frozenset({2, 3, 5}), frozenset({2, 3, 6})) == state_of((2, 3))
    assert FsFpState((), frozenset(), frozenset()) == EMPTY_STATE == FsFpState(())
    with pytest.raises(StructuralError):
        FsFpState((2, 3), fp=frozenset({2, 3, 5}))
    with pytest.raises(StructuralError):
        FsFpState((), frozenset({1}))


def _count_folds(monkeypatch):
    calls = {"fs": 0, "fp": 0}

    def counted(name, fold):
        def wrapper(ys):
            calls[name] += 1
            return fold(ys)

        return wrapper

    monkeypatch.setattr(fsfp, "finite_sums", counted("fs", finite_sums))
    monkeypatch.setattr(fsfp, "finite_products", counted("fp", finite_products))
    return calls


def test_state_of_folds_once(monkeypatch):
    calls = _count_folds(monkeypatch)
    state = state_of((3, 5, 6, 10, 11))
    assert calls == {"fs": 1, "fp": 1}
    assert state.fs == fs_oracle(state.ys) and state.fp == fp_oracle(state.ys)


def test_extend_state_folds_once(monkeypatch):
    state = state_of((3, 5, 6))
    calls = _count_folds(monkeypatch)
    grown = extend_state(state, 10)
    assert calls == {"fs": 1, "fp": 1}
    assert grown == state_of((3, 5, 6, 10))


def test_capped_fold_matches_oracle_or_refuses_at_the_first_term_past_the_cap(monkeypatch):
    """A term that could pass the cap grows chunk by chunk; the fold still
    equals the oracle, or refuses at the first prefix holding more values."""
    rng = random.Random(4096)
    refused = grown = 0
    for _ in range(300):
        ys = [rng.randint(1, rng.choice((3, 30, 3000))) for _ in range(rng.randint(1, 10))]
        monkeypatch.setattr(fsfp, "_FOLD_CHUNK", rng.choice((1, 2, 7, 4096)))
        for fold, oracle, name in ((finite_sums, fs_oracle, "FS"), (finite_products, fp_oracle, "FP")):
            size = len(oracle(ys))
            cap = rng.randint(max(1, size // 2), 2 * size)
            monkeypatch.setattr(fsfp, "FOLD_CAP", cap)
            over = next((n for n in range(1, len(ys) + 1) if len(oracle(ys[:n])) > cap), None)
            if over is None:
                assert fold(ys) == oracle(ys)
                # a term that began past half the cap grew chunk by chunk
                grown += 2 * len(oracle(ys[:-1])) + 1 > cap
            else:
                with pytest.raises(RefusalError, match=f"^fold refused: {name} of {over} terms exceeds {cap} values$"):
                    fold(ys)
                refused += 1
    assert refused > 100 and grown > 40, (refused, grown)


def test_refused_fold_stops_near_the_cap(monkeypatch):
    """The 16th power of two would double 2^15 - 1 sums; the fold stops a
    chunk past the cap instead, so it peaks near a fold of the cap itself."""
    monkeypatch.setattr(fsfp, "FOLD_CAP", 2**15 - 1)
    powers = [2**k for k in range(20)]

    def peak(ys):
        tracemalloc.start()
        try:
            finite_sums(ys)
        except RefusalError:
            pass
        finally:
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return top

    at_cap = peak(powers[:15])
    with pytest.raises(RefusalError, match="FS of 16 terms exceeds 32767 values"):
        finite_sums(powers)
    assert peak(powers) < 1.3 * at_cap


def test_subsystem_sums_examples():
    assert subsystem_sums((1, 2, 3, 4, 5, 6), ((1, 2, 3), (6,))) == (6, 6)
    assert subsystem_sums((9,), ((1,),)) == (9,)


def test_subsystem_sums_ordering_violation_names_pair():
    with pytest.raises(StructuralError, match=r"max 5 >= min 4"):
        subsystem_sums(tuple(range(1, 11)), ((2, 5), (4, 7)))


def test_subsystem_sums_index_out_of_range():
    with pytest.raises(InputError, match="out of range"):
        subsystem_sums((1, 2, 3), ((1,), (7,)))


def test_normalize_block():
    assert normalize_block((3, 1, 2)) == (1, 2, 3)
    with pytest.raises(InputError, match="duplicate"):
        normalize_block((2, 2))
    with pytest.raises(InputError):
        normalize_block(())
    with pytest.raises(InputError):
        normalize_block((0, 1))


def test_check_block_order_accepts_and_normalizes():
    assert check_block_order(((3, 1), (5,))) == ((1, 3), (5,))
    with pytest.raises(StructuralError, match="blocks 1 and 2 out of order"):
        check_block_order(((1, 4), (4,)))
