"""Subsystem search: canonical order, oracle equivalence, verification."""

import collections
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fp_oracle, fs_oracle, random_spec
from ipkit import fsfp, search
from ipkit.errors import DomainBoundError, InputError, RefusalError, StructuralError
from ipkit.fsfp import (
    EMPTY_STATE,
    ascending_products,
    ascending_sums,
    finite_products,
    finite_sums,
    state_of,
)
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
    Complement,
    Congruence,
    DilationPreimage,
    Intersection,
    Interval,
    ShiftPreimage,
    Union,
    eventual_period,
    parse_spec,
    render_spec,
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


def test_candidates_are_iter_blocks_with_their_sums():
    """The search's generator against the plain enumeration: the same blocks
    in the same order, split at the top index, each with its sum."""
    rng = random.Random(20)
    cases = collections.Counter()
    for _ in range(600):
        n = rng.randint(1, 12)
        big = rng.random() < 0.3
        x = tuple(rng.randint(2**64, 2**70) if big else rng.randint(1, 60) for _ in range(n))
        lo, hi, max_block = rng.randint(1, n + 2), rng.randint(0, n), rng.randint(1, 5)
        expected = [(b[:-1], b[-1], sum(x[i - 1] for i in b)) for b in iter_blocks(lo, hi, max_block)]
        assert list(search._candidates((0, *x), lo, hi, max_block)) == expected, (x, lo, hi, max_block)
        cases["past 2^64"] += big
        cases["lo > hi"] += lo > hi
        cases["max_block past the window"] += max_block > hi - lo + 1 >= 1
        cases[f"max_block {max_block}"] += 1
    assert min(cases.values()) >= 50, cases
    assert list(search._candidates((0, 5, 7), 3, 2, 4)) == []
    assert list(search._candidates((0, 5, 7, 2**64), 2, 3, 5)) == [
        ((), 2, 7),
        ((), 3, 2**64),
        ((2,), 3, 2**64 + 7),
    ]


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
    assert (cert.fs, cert.fp) == ((6, 12), (6, 36))
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
    """The tests the search accumulates stage by stage agree with stage_constraint.

    A target with an eventual period (T, L) keeps each sum and product as
    v up to T and T+1+((v-T-1) mod L) above; a bits target keeps exact values.
    """
    rng = random.Random(17)
    kinds = collections.Counter()
    for i in range(40):
        target = random_spec(rng)
        if i % 4 == 3:
            bits = Bitmap(frozenset(rng.sample(range(1, 100), 20)), 10**7)
            target = Union((target, bits))
        period = eventual_period(target)
        T, L = period or (None, None)

        def red(v):
            return v if period is None or v <= T else T + 1 + (v - T - 1) % L

        kinds[period is None] += 1
        test = target.predicate()
        fs, fp, tests = frozenset(), frozenset(), (test,)
        ys = ()
        for _ in range(3):
            y = rng.randint(1, 15)
            fs, fp, added = _accept(test, fs, fp, y, search._residue_key(period))
            tests += added
            ys += (y,)
            # one test per key, after the target itself
            assert len(tests) == 1 + len(fs) + len(fp)
            assert fs == {red(v) for v in finite_sums(ys)}
            assert fp == {red(v) for v in finite_products(ys)}
            rebuilt = stage_constraint(state_of(ys), target)
            for v in range(1, 300):
                assert all(test(v) for test in tests) == rebuilt.contains(v), (ys, v)
    assert min(kinds.values()) >= 10 and len(kinds) == 2, kinds


def test_deep_search_keeps_one_test_per_residue_key(monkeypatch):
    """Every multiple of 6 has key 6 under (T, L) = (3, 6), so a depth-18 path
    holds one sum test and one product test, where exact values need thousands."""
    x, budget = tuple(range(1, 321)), SearchBudget(depth=18, window=300)
    target = parse_spec("and(mod(6,0),geq(3))")
    T, L = eventual_period(target)
    built = collections.Counter()

    def counted(name):
        make = getattr(search, name)

        def counted_make(test, v):
            built[name] += 1
            return make(test, v)

        monkeypatch.setattr(search, name, counted_make)

    counted("_shifted")
    counted("_dilated")
    keyed = search_subsystem(x, target, budget)
    assert keyed.kind is OutcomeKind.FOUND
    assert 0 < sum(built.values()) <= 2 * (T + L), built
    built.clear()
    with monkeypatch.context() as m:
        m.setattr(search, "eventual_period", lambda spec: None)
        exact = search_subsystem(x, target, budget)
    assert sum(built.values()) > 1000, built
    assert (keyed.kind, keyed.nodes, keyed.certificate) == (exact.kind, exact.nodes, exact.certificate)


def test_search_compiles_target_once_and_no_preimage(monkeypatch):
    counts = {"built": 0, "compiled": 0, "bitmaps": 0}

    def counted(cls, key, method):
        original = getattr(cls, method)

        def counted_method(self):
            counts[key] += 1
            return original(self)

        monkeypatch.setattr(cls, method, counted_method)

    for cls in (ShiftPreimage, DilationPreimage):
        counted(cls, "built", "__post_init__")
        counted(cls, "compiled", "predicate")
    counted(Bitmap, "bitmaps", "predicate")
    # the counts when the search hands FS and FP to the self-check's
    # membership test, which compiles the target it re-parses once more
    searched = []

    def recorded_check(target, fs, fp, check=search.membership_failure):
        searched.append(dict(counts))
        return check(target, fs, fp)

    monkeypatch.setattr(search, "membership_failure", recorded_check)
    x, budget = tuple(range(1, 200)), SearchBudget(depth=8, window=150)
    # the same set as and(mod(6,0),geq(3)), with no eventual period
    guarded = search_subsystem(x, parse_spec("and(mod(6,0),or(geq(3),bits(1; 2)))"), budget)
    assert guarded.kind is OutcomeKind.FOUND
    assert searched == [{"built": 0, "compiled": 0, "bitmaps": 1}]
    assert counts == {"built": 0, "compiled": 0, "bitmaps": 2}
    counts.update(bitmaps=0)
    out = search_subsystem(x, parse_spec("and(mod(6,0),geq(3))"), budget)
    assert counts == {"built": 0, "compiled": 0, "bitmaps": 0}
    assert (out.nodes, out.certificate.blocks) == (guarded.nodes, guarded.certificate.blocks)


def _counted(spec):
    """not(not(spec)), and a count of the queries its compiled predicates answer."""
    queries = [0]

    class Counted(Complement):
        def predicate(self):
            inner = super().predicate()

            def test(v):
                queries[0] += 1
                return inner(v)

            return test

    return Counted(Complement(spec)), queries


def _on_both_paths(monkeypatch, x, spec, budget):
    """The search on the period window, checked against the unlisted tests.

    The window runs with LISTING_ALLOWANCE as set and at 0.  Each run must
    give the forced unlisted path's kind, nodes and certificate, and make at
    most nodes + allowance more target queries.  Returns the outcome, how
    many stages each allowance skipped, and how many subtrees it took from
    the memo.
    """
    counted, queries = _counted(spec)
    with monkeypatch.context() as m:
        m.setattr(search, "eventual_period", lambda spec: None)
        unlisted = search_subsystem(x, counted, budget)
    unlisted_queries = queries[0]
    skips, hits = {}, {}
    for allowance in (search.LISTING_ALLOWANCE, 0):
        queries[0], skips[allowance], hits[allowance] = 0, 0, 0

        def counted_skip(n, max_block, count=search._block_count):
            skips[allowance] += 1
            return count(n, max_block)

        def counted_hit(nodes, count, node_limit, hit=search._memo_hit):
            hits[allowance] += 1
            return hit(nodes, count, node_limit)

        with monkeypatch.context() as m:
            m.setattr(search, "LISTING_ALLOWANCE", allowance)
            m.setattr(search, "_block_count", counted_skip)
            m.setattr(search, "_memo_hit", counted_hit)
            window = search_subsystem(x, counted, budget)
        context = (render_spec(spec), x, budget, allowance)
        assert (window.kind, window.nodes, window.certificate) == (
            unlisted.kind,
            unlisted.nodes,
            unlisted.certificate,
        ), context
        assert queries[0] <= unlisted_queries + window.nodes + allowance, context
        if allowance:
            out = window
    return out, skips, hits


def _guarded_bits(rng):
    """and(range(1,B), bits(...; B)): a bits target no query takes past its bound."""
    bound = rng.randint(1, 2000)
    density = rng.choice((0.5, 0.9, 1.0))
    values = frozenset(v for v in range(1, bound + 1) if rng.random() < density)
    return Intersection((Interval(1, bound), Bitmap(values, bound)))


def test_window_path_matches_unlisted_path_and_brute_force(monkeypatch):
    rng = random.Random(2718)
    skipped = dict.fromkeys((search.LISTING_ALLOWANCE, 0), 0)
    # bits searches that ended found or exhausted, cross-checked by brute force
    bits_checked = collections.Counter()
    for _ in range(500):
        spec = random_spec(rng, depth=rng.randint(0, 3))
        if rng.random() < 0.2:
            bits = _guarded_bits(rng)
            spec = rng.choice((bits, Union((spec, bits)), Intersection((bits, spec))))
        if rng.random() < 0.3:
            wrap = DilationPreimage if rng.random() < 0.5 else ShiftPreimage
            spec = wrap(rng.randint(1, 5), spec)
        n = rng.randint(4, 12)
        x = tuple(rng.randint(1, 40) for _ in range(n)) if rng.random() < 0.5 else tuple(range(1, n + 1))
        budget = SearchBudget(
            depth=rng.randint(1, 3),
            window=n,
            max_block=rng.randint(1, 3),
            node_limit=rng.choice((10**6, rng.randint(1, 400))),
        )
        out, skips, _ = _on_both_paths(monkeypatch, x, spec, budget)
        for allowance, count in skips.items():
            skipped[allowance] += count > 0
        if budget.node_limit == 10**6:
            slow = brute_force_subsystem(x, spec, budget)
            # the brute force searched spec itself, not its counted double negation
            assert (out.kind, out.certificate and out.certificate.blocks) == (
                slow.kind,
                slow.certificate and slow.certificate.blocks,
            )
            if eventual_period(spec) is None:
                bits_checked[slow.kind] += 1
    assert min(bits_checked[OutcomeKind.FOUND], bits_checked[OutcomeKind.EXHAUSTED]) > 10, bits_checked
    # searches that skipped a stage, listed up front and listed once paid for
    assert skipped[search.LISTING_ALLOWANCE] > 100
    assert skipped[0] > 50


def test_skipped_stage_counts_and_clamps_like_the_loop(monkeypatch):
    """Odd + odd is even: after each odd y >= 5, stage 2 admits nothing and is
    skipped, or taken from the memo when an earlier term had the same last
    index and residue key.  A y whose block ends at the window leaves stage 2
    no candidates, so that stage is neither listed nor skipped."""
    parity = parse_spec("and(not(mod(2,0)),geq(5))")
    for window, max_block in ((9, 2), (12, 3), (15, 4)):
        x = tuple(range(1, window + 1))
        blocks = list(iter_blocks(1, window, max_block))
        first = next(i for i, b in enumerate(blocks, 1) if parity.contains(sum(b)))
        after_skip = first + len(list(iter_blocks(blocks[first - 1][-1] + 1, window, max_block)))
        out, skips, hits = _on_both_paths(monkeypatch, x, parity, SearchBudget(2, window, max_block))
        total = out.nodes
        admitted = sum(parity.contains(sum(b)) for b in blocks)
        key = search._residue_key(eventual_period(parity))
        kept = {(b[-1], key(sum(b))) for b in blocks if parity.contains(sum(b))}
        # the subtrees not taken from the memo whose stage 2 has candidates
        scanned = sum(last < window for last, _ in kept)
        for allowance in (search.LISTING_ALLOWANCE, 0):
            assert skips[allowance] == scanned < len(kept), allowance
            assert hits[allowance] == admitted - len(kept) > 0, allowance
        assert total == count_block_systems(window, max_block, 1) + sum(
            len(list(iter_blocks(b[-1] + 1, window, max_block)))
            for b in blocks
            if parity.contains(sum(b))
        )
        for limit in (after_skip - 1, after_skip, after_skip + 1, total - 1):
            out, _, _ = _on_both_paths(monkeypatch, x, parity, SearchBudget(2, window, max_block, limit))
            assert (out.kind, out.nodes) == (OutcomeKind.NODE_LIMIT, limit), limit
        # a limit of exactly the total still exhausts; at windows 9 and 12 the
        # last candidate's sum is odd, so the search ends on a stage 2 with no candidates
        out, _, _ = _on_both_paths(monkeypatch, x, parity, SearchBudget(2, window, max_block, total))
        assert (out.kind, out.nodes) == (OutcomeKind.EXHAUSTED, total)
    # only the last term is admitted, and once stage 1 is listed its stage 2
    # is due at either allowance, but has no candidates: it is never listed
    x, budget = (2,) * 11 + (5,), SearchBudget(depth=2, window=12, max_block=1)
    out, skips, _ = _on_both_paths(monkeypatch, x, parity, budget)
    assert (out.kind, out.nodes, skips) == (OutcomeKind.EXHAUSTED, 12, {search.LISTING_ALLOWANCE: 0, 0: 0})
    for allowance in (search.LISTING_ALLOWANCE, 0):
        pools = []

        def recorded_filter(pool, tests, filtered=search._filtered):
            pools.append(tuple(pool))
            return filtered(pool, tests)

        with monkeypatch.context() as m:
            m.setattr(search, "LISTING_ALLOWANCE", allowance)
            m.setattr(search, "_filtered", recorded_filter)
            search_subsystem(x, parity, budget)
        # stage 1's pool, [1..T+L]
        assert pools == [tuple(range(1, sum(eventual_period(parity)) + 1))], allowance


def test_wide_period_found_quickly_lists_nothing(monkeypatch):
    """T+L = 999983: listing even stage 1 would cost 999983 target queries,
    while the search finds its 12 terms in 12 nodes."""
    x, budget = tuple(range(1, 201)), SearchBudget(depth=12, window=200)
    target, queries = _counted(parse_spec("not(mod(999983,0))"))
    out = search_subsystem(x, target, budget)
    assert (out.kind, out.nodes) == (OutcomeKind.FOUND, 12)
    assert queries[0] < 5_000
    _on_both_paths(monkeypatch, x, target.child.child, budget)


def _listing_overdraft(monkeypatch, x, spec, budget, allowance):
    """The search's outcome, and the most that its listings spent, at any
    listing, beyond nodes + ``allowance``.

    A listing is priced as the search prices it: its pool times the tests it
    filters through.  Nodes are the candidates ``_candidates`` has yielded
    plus those each skip counted in closed form and each memo hit added,
    which is the search's own count, or one more while a scan is listing.
    """
    seen = [0]
    # [lo, candidates yielded] of each running enumeration, innermost last
    running = []
    spent = [0]
    worst = [float("-inf")]

    def counted_candidates(t1, lo, hi, max_block, candidates=search._candidates):
        enumeration = [lo, 0]
        running.append(enumeration)
        try:
            for candidate in candidates(t1, lo, hi, max_block):
                enumeration[1] += 1
                seen[0] += 1
                yield candidate
        finally:
            running.remove(enumeration)

    def counted_skip(n, max_block, count=search._block_count):
        # the skipped stage's candidates, less those its own scan already yielded
        total = count(n, max_block)
        scanned = running[-1][1] if running and running[-1][0] == budget.window - n + 1 else 0
        seen[0] += total - scanned
        return total

    def counted_hit(nodes, count, node_limit, hit=search._memo_hit):
        after, limit_hit = hit(nodes, count, node_limit)
        seen[0] += after - nodes
        return after, limit_hit

    def priced_filter(pool, tests, filtered=search._filtered):
        pool = tuple(pool)
        spent[0] += len(pool) * len(tests)
        worst[0] = max(worst[0], spent[0] - seen[0] - allowance)
        return filtered(pool, tests)

    with monkeypatch.context() as m:
        m.setattr(search, "LISTING_ALLOWANCE", allowance)
        m.setattr(search, "_candidates", counted_candidates)
        m.setattr(search, "_block_count", counted_skip)
        m.setattr(search, "_filtered", priced_filter)
        m.setattr(search, "_memo_hit", counted_hit)
        out = search_subsystem(x, spec, budget)
    if out.kind is not OutcomeKind.NODE_LIMIT:
        assert seen[0] == out.nodes
    return out, worst[0]


def test_listing_rechecks_a_stale_stop_when_reached(monkeypatch):
    """A stage's stop, computed on entry, grows as its subtree lists.  Listing
    at the stale stop would price 73 queries here at 65 nodes."""
    x, budget = tuple(range(1, 15)), SearchBudget(depth=4, window=14, max_block=2)
    spec = parse_spec("and(not(mod(7,0)),geq(10))")
    assert _listing_overdraft(monkeypatch, x, spec, budget, 0)[1] <= 0
    rng = random.Random(31)
    listed, kinds = 0, collections.Counter()
    for _ in range(400):
        n = rng.randint(4, 16)
        budget = SearchBudget(
            depth=rng.randint(1, 5),
            window=n,
            max_block=rng.randint(1, 3),
            node_limit=rng.choice((10**6, rng.randint(1, 500))),
        )
        spec = random_spec(rng, depth=rng.randint(0, 3))
        for allowance in (0, rng.randint(1, 50)):
            x = tuple(range(1, n + 1))
            out, overdraft = _listing_overdraft(monkeypatch, x, spec, budget, allowance)
            assert overdraft <= 0, (render_spec(spec), budget, allowance)
            listed += overdraft > float("-inf")
            kinds[out.kind] += 1
    assert listed > 300 and min(kinds.values()) > 50, (listed, kinds)


def test_empty_stages_listed_mid_scan_reach_the_node_limit_cheaply():
    """Odd + odd is even, so every stage 2 is empty; once the nodes pay for
    listing stage 2 of a term, its remaining candidates are skipped."""
    x, budget = tuple(range(1, 301)), SearchBudget(depth=2, window=300)
    target, queries = _counted(parse_spec("and(not(mod(2,0)),not(mod(1999,0)))"))
    out = search_subsystem(x, target, budget)
    assert (out.kind, out.nodes) == (OutcomeKind.NODE_LIMIT, 10**6)
    assert queries[0] < 50_000


def _memo_on_and_off(monkeypatch, x, spec, budget):
    """The search with its memo and with ``MEMO_CAP`` at 0, which must give
    the same kind, nodes and certificate, or raise the same
    ``DomainBoundError``.  Returns that result and the node count each memo
    hit added up to, before the clamp."""
    reached = []

    def recorded_hit(nodes, count, node_limit, hit=search._memo_hit):
        reached.append(nodes + count)
        return hit(nodes, count, node_limit)

    results = []
    for cap in (search.MEMO_CAP, 0):
        with monkeypatch.context() as m:
            m.setattr(search, "MEMO_CAP", cap)
            # a memo capped at 0 stores nothing, so it never hits
            m.setattr(search, "_memo_hit", recorded_hit if cap else None)
            try:
                out = search_subsystem(x, spec, budget)
                results.append((out.kind, out.nodes, out.certificate))
            except DomainBoundError as exc:
                results.append(str(exc))
    assert results[0] == results[1], (render_spec(spec), x, budget)
    return results[0], reached


def test_memo_changes_no_outcome_count_certificate_or_error(monkeypatch):
    """Memo hits replay a failed subtree's node count, clamped at the limit
    where its scan would stop: checked at limits one below, at and one above
    the count a hit reaches.  Bits targets are swept too, and never hit."""
    # candidates at stages 3 and 4 meet the same last index, FS keys, FP keys
    # and key here, so a memo that left the stage out of its key would report
    # exhausted after 488 nodes
    x, spec = (5, 3, 11, 7, 8, 8, 1), parse_spec("or(mod(4,0),mod(2,1))")
    result, reached = _memo_on_and_off(monkeypatch, x, spec, SearchBudget(5, 7, 3))
    assert (result[0], result[1], len(reached) > 0) == (OutcomeKind.FOUND, 168, True)
    # the paths 1,3,10 and 3,1,10 share a key, but 1,3,10 tests 40+1 = 41,
    # outside the table, so its subtree fails, before 40+3 = 43, while
    # 3,1,10 tests 43 first and raises: a memo hit there would hide that
    x, spec = (1, 3, 1, 10, 40), parse_spec("bits(1 3 4 10 11 13 14 30 40; 41)")
    result, reached = _memo_on_and_off(monkeypatch, x, spec, SearchBudget(4, 5, 1, 14))
    assert (result, reached) == ("membership query 43 exceeds bitmap domain bound 41", [])
    rng = random.Random(8128)
    searches, results = 0, collections.Counter()
    for _ in range(400):
        n = rng.randint(6, 16)
        x = tuple(rng.randint(1, 12) for _ in range(n)) if rng.random() < 0.5 else tuple(range(1, n + 1))
        budget = SearchBudget(
            depth=rng.randint(2, 6),
            window=n,
            max_block=rng.randint(2, 3),
            node_limit=rng.choice((10**6, rng.randint(10, 3000))),
        )
        spec, kind = random_spec(rng, depth=rng.randint(0, 3)), rng.random()
        if kind < 0.2:
            bound = rng.randint(5, 4 * n)
            bits = Bitmap(frozenset(v for v in range(1, bound + 1) if rng.random() < 0.8), bound)
            bits = Intersection((Interval(1, bound), bits))
            spec = rng.choice((bits, Union((spec, bits)), Intersection((bits, spec))))
        elif kind < 0.45:
            # every block sum lies in the domain, and odd + odd is even, so a
            # stage 2 fails and is kept until t + y passes the bound and raises
            top = max(sum(x[i - 1] for i in b) for b in iter_blocks(1, n, budget.max_block))
            bound = rng.randint(5 * top // 4, 3 * top // 2)
            spec = Bitmap(frozenset(range(1, bound + 1, 2)), bound)
            budget = replace(budget, node_limit=10**6)
        result, reached = _memo_on_and_off(monkeypatch, x, spec, budget)
        searches += 1
        results["raised" if isinstance(result, str) else result[0].value] += 1
        # the other 55% draw no bits from random_spec
        assert not (kind < 0.45 and reached), (render_spec(spec), x, budget)
        if not reached:
            continue
        results["hit"] += 1
        at = rng.choice(reached)
        for limit in (at - 1, at, at + 1):
            if limit >= 1:
                result, _ = _memo_on_and_off(monkeypatch, x, spec, replace(budget, node_limit=limit))
                searches += 1
                results["at a hit, raised" if isinstance(result, str) else f"at a hit, {result[0].value}"] += 1
    assert searches >= 400, (searches, results)
    assert results["hit"] >= 80, results
    for kind in ("found", "exhausted", "node-limit", "raised", "at a hit, node-limit"):
        assert results[kind] >= 10, results


def test_deep_node_limit_search_enumerates_a_sliver_of_its_nodes(monkeypatch):
    """Sums of multiples of 3 avoid multiples of 7 on no 9-term system (prefix
    sums mod 7), so the search runs to its limit.  Memo hits and skipped
    stages count all but a sliver of the 10^7 nodes; ``_candidates`` yields the
    rest, 214,800, where the search without a memo yields 2,321,426.  A stage
    due on entry draws its first candidate before it is listed, and that draw
    counts here."""
    yielded = [0]

    def counted_candidates(t1, lo, hi, max_block, candidates=search._candidates):
        for candidate in candidates(t1, lo, hi, max_block):
            yielded[0] += 1
            yield candidate

    monkeypatch.setattr(search, "_candidates", counted_candidates)
    budget = SearchBudget(depth=9, window=45, max_block=3, node_limit=10**7)
    out = search_subsystem(tuple(range(1, 81)), parse_spec("and(mod(3,0),not(mod(7,0)))"), budget)
    assert (out.kind, out.nodes) == (OutcomeKind.NODE_LIMIT, 10**7)
    assert yielded[0] == 214_800
    assert yielded[0] < out.nodes // 40


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


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        # small terms: many subset sums and products collide
        st.lists(st.integers(1, 4), min_size=1, max_size=12),
        # 2^(2^k): no two subsets share a sum or a product
        st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True).map(
            lambda ks: [2 ** 2**k for k in ks]
        ),
    )
)
def test_fold_matches_subset_enumeration(ys):
    fs, fp = finite_sums(ys), finite_products(ys)
    assert (fs, fp) == search._subset_sums_and_products(ys)
    assert (fs, fp) == (fs_oracle(ys), fp_oracle(ys))


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
    cert = replace(good, fs=good.fs + (13,))
    assert not verify_certificate(cert)
    assert "finite-sum" in verification_failure(cert)


def _value_set(recorded):
    try:
        return frozenset(recorded)
    except TypeError:
        return None


def test_verify_reads_recorded_values_as_a_value_set():
    """Whatever a certificate records for FS or FP is read as the value set it
    lists, in any order and with any repeats: it verifies exactly when that
    set equals the refold, and anything else gets the mismatch verdict."""

    class Loose(frozenset):
        def __ne__(self, other):
            return False

    good = _found_cert()
    assert (good.ys, good.fs, good.fp) == ((6, 6), (6, 12), (6, 36))
    holding = (
        set(good.fs), frozenset(good.fs), good.fs, (6, 12), [12, 6], [6, 12, 6, 12, 12], {6.0, 12},
        dict.fromkeys(good.fs).keys(), {12: "a", 6: "b"}.keys(),
    )
    failing = (
        {6, 12, 18}, {12}, set(), (), (6, 12, 18), [12], "6 12", "", None, 18, {6: 1}, {"6", "12"},
        ["6", "12"], [6, "12"], [6, 12, None], Loose({1}),
    )
    for recorded in holding + failing:
        failure = verification_failure(replace(good, fs=recorded))
        assert (failure is None) is (recorded in holding), recorded
        assert (failure is None) is (_value_set(recorded) == frozenset(fs_oracle(good.ys))), recorded
        if failure is not None:
            assert failure == "recorded finite-sum set does not match recomputation"
    for recorded in ([36, 6, 36], None, "6 36", [6, "36"]):
        failure = verification_failure(replace(good, fp=recorded))
        assert (failure is None) is (recorded == [36, 6, 36]), recorded
        if failure is not None:
            assert failure == "recorded finite-product set does not match recomputation"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), max_size=12), st.randoms())
def test_verify_accepts_any_listing_of_the_refold_and_nothing_else(extra, rng):
    """A recorded list, tuple, set or dict view, shuffled and with repeats,
    verifies exactly when its value set equals the refold."""
    good = _found_cert()
    for field in ("fs", "fp"):
        values = list(getattr(good, field)) + extra
        rng.shuffle(values)
        matches = set(values) == set(getattr(good, field))
        for recorded in (values, tuple(values), set(values), dict.fromkeys(values).keys()):
            failure = verification_failure(replace(good, **{field: recorded}))
            assert (failure is None) is matches, (field, recorded)


@pytest.mark.parametrize(
    "field, change, message",
    [
        ("ys", lambda c: c.ys[:-1] + (c.ys[-1] + 6,), "recomputed block sums"),
        ("fs", lambda c: c.fs[:-1], "recorded finite-sum set does not match recomputation"),
        ("fp", lambda c: (7, *c.fp), "recorded finite-product set does not match recomputation"),
        ("spec_text", lambda c: "mod(12,0)", "element 6 of FS u FP is not in the target set"),
    ],
)
def test_verify_deep_tampered_certificate(field, change, message):
    good = search_subsystem(
        tuple(range(1, 321)), parse_spec("and(mod(6,0),geq(3))"), SearchBudget(depth=12, window=300)
    ).certificate
    assert verification_failure(good) is None
    failure = verification_failure(replace(good, **{field: change(good)}))
    assert failure is not None and failure.startswith(message), failure


def test_verify_membership_failure_names_element():
    good = _found_cert()
    cert = replace(good, spec_text="mod(12,0)")
    failure = verification_failure(cert)
    assert failure == "element 6 of FS u FP is not in the target set"


def test_verify_checks_terms_and_bitmap_bounds():
    good = _found_cert()
    # blocks ((1, 2, 3), (6,)) still sum to the recorded ys (0, 6)
    bad_terms = replace(good, x=(1, -1, 0) + good.x[3:], ys=(0, 6), fs=(0, 6), fp=(0, 6))
    with pytest.raises(InputError, match="recorded sequence terms must be >= 1, got -1"):
        verification_failure(bad_terms)
    # FS u FP = {6, 12, 36}: the first value past the bound is the one named
    bitmap = "bits(6 12; 20)"
    with pytest.raises(DomainBoundError) as interpreted:
        parse_spec(bitmap).contains(36)
    with pytest.raises(DomainBoundError) as raised:
        verification_failure(replace(good, spec_text=bitmap))
    assert str(raised.value) == str(interpreted.value)


def test_membership_failure_names_what_the_sorted_scan_names():
    """One pass over FS, then FP, falls back to the sorted scan: a failure names
    the first value of sorted FS u FP outside the target, and a bits target
    raises at the first sorted query past its bound, whatever the pass met."""

    def scanned(spec, fs, fp):
        for v in sorted(fs | fp):
            if not spec.contains(v):
                return f"element {v} of FS u FP is not in the target set"
        return None

    rng = random.Random(15)
    verdicts = collections.Counter()
    for _ in range(300):
        spec = random_spec(rng)
        fs = frozenset(rng.sample(range(1, 200), rng.randint(1, 12)))
        fp = frozenset(rng.sample(range(1, 400), rng.randint(1, 12)))
        if rng.random() < 0.5:
            fs, fp = (frozenset(filter(spec.contains, values)) for values in (fs, fp))
        failure = search.membership_failure(spec, fs, fp)
        assert failure == scanned(spec, fs, fp), (render_spec(spec), sorted(fs), sorted(fp))
        # verify passes the ascending tuples of its refold
        assert search.membership_failure(spec, tuple(sorted(fs)), tuple(sorted(fp))) == failure
        verdicts[failure is None] += 1
    assert min(verdicts.values()) > 50, verdicts
    # the pass meets 9 first, in FS; the scan names 5, from FP
    failure = search.membership_failure(parse_spec("mod(2,0)"), frozenset({6, 9}), frozenset({5, 36}))
    assert failure == "element 5 of FS u FP is not in the target set"
    # the pass raises at 25 or 30, in FS; the scan raises at 21, from FP
    bits = parse_spec("bits(1 2 3; 20)")
    with pytest.raises(DomainBoundError, match="^membership query 21 exceeds bitmap domain bound 20$"):
        search.membership_failure(bits, frozenset({25, 30}), frozenset({2, 21}))
    # a value outside the target before the first query past the bound
    failure = search.membership_failure(bits, frozenset({4, 25}), frozenset({1}))
    assert failure == "element 4 of FS u FP is not in the target set"


def test_verify_structural_errors():
    good = _found_cert()
    with pytest.raises(StructuralError, match="out of order"):
        verification_failure(replace(good, blocks=((2, 5), (4, 7))))
    with pytest.raises(StructuralError, match="outside recorded window"):
        verification_failure(replace(good, blocks=((1, 2, 3), (99,))))
    with pytest.raises(StructuralError, match="no blocks"):
        verification_failure(replace(good, blocks=(), ys=()))


def test_self_check_fails_a_search_that_skips_sums_and_products(monkeypatch):
    # a stage that adds no tests accepts (1,) then (3,), whose sum 4 is even
    monkeypatch.setattr(search, "_accept", lambda test, fs, fp, y, key: (fs, fp, ()))
    with pytest.raises(StructuralError) as raised:
        search_subsystem(range(1, 40), parse_spec("not(mod(2,0))"), SearchBudget(depth=2, window=30))
    assert str(raised.value) == (
        "search produced a bad certificate: element 4 of FS u FP is not in the target set"
    )
    # (6,) twice: the product 36 lies past the bitmap's bound
    with pytest.raises(DomainBoundError, match="^membership query 36 exceeds bitmap domain bound 20$"):
        search_subsystem(range(1, 31), parse_spec("bits(6 12; 20)"), SearchBudget(depth=2, window=30))


def test_self_check_fails_a_block_past_max_block(monkeypatch):
    def longer(t1, lo, hi, max_block, candidates=search._candidates):
        return candidates(t1, lo, hi, max_block + 1)

    monkeypatch.setattr(search, "_candidates", longer)
    with pytest.raises(StructuralError, match=r"block \(1, 2, 3\) has more than max_block 2 indices"):
        search_subsystem(NAT32, MOD6, SearchBudget(depth=2, window=32, max_block=2))


def test_found_search_folds_sums_and_products_once(monkeypatch):
    """The search folds each of FS and FP once, into the ascending tuples its
    certificate holds, and builds no value set of either."""
    calls = collections.Counter()

    def unused(ys):
        raise AssertionError("a found search built a value set of FS or FP")

    for name in ("finite_sums", "finite_products"):
        monkeypatch.setattr(fsfp, name, unused)
        monkeypatch.setattr(search, name, unused, raising=False)

    def counted(name):
        fold = getattr(search, name)

        def counted_fold(ys):
            calls[name] += 1
            return fold(ys)

        monkeypatch.setattr(search, name, counted_fold)

    counted("ascending_sums")
    counted("ascending_products")
    out = search_subsystem(
        tuple(range(1, 321)), parse_spec("and(mod(6,0),geq(3))"), SearchBudget(depth=12, window=300)
    )
    assert out.kind is OutcomeKind.FOUND and out.certificate.verified
    assert calls == {"ascending_sums": 1, "ascending_products": 1}
    assert type(out.certificate.fs) is type(out.certificate.fp) is tuple


def test_found_search_folds_its_block_sums_in_ascending_order(monkeypatch):
    """FS and FP do not depend on the terms' order, and smaller terms first
    hold fewer values along the way: on the depth-18 certificate of the CI
    step, the search's fold makes 759 sums and 26,069 products, where the
    block order would make 932 and 35,320."""

    class Counted(int):
        """A term that counts the sums and products made with it, on either side."""

        made = 0

        def __add__(self, other):
            Counted.made += 1
            return int(self) + int(other)

        def __mul__(self, other):
            Counted.made += 1
            return int(self) * int(other)

        __radd__, __rmul__ = __add__, __mul__

    made = {}

    def counting(name):
        fold = getattr(search, name)

        def counted_fold(ys):
            Counted.made = 0
            values = fold([Counted(y) for y in ys])
            made[name] = Counted.made
            return values

        monkeypatch.setattr(search, name, counted_fold)

    counting("ascending_sums")
    counting("ascending_products")
    out = search_subsystem(
        tuple(range(1, 321)), parse_spec("and(mod(6,0),geq(3))"), SearchBudget(depth=18, window=300)
    )
    cert = out.certificate
    assert out.kind is OutcomeKind.FOUND and cert.ys != tuple(sorted(cert.ys))
    assert (len(cert.fs), len(cert.fp)) == (162, 20639)
    assert made == {"ascending_sums": 759, "ascending_products": 26069}
    for fold, values, count in ((ascending_sums, cert.fs, 932), (ascending_products, cert.fp, 35320)):
        Counted.made = 0
        assert fold([Counted(y) for y in cert.ys]) == values
        assert Counted.made == count


def test_found_certificate_sets_iterate_in_ascending_order():
    for depth in (1, 5, 12):
        cert = search_subsystem(
            tuple(range(1, 321)), parse_spec("and(mod(6,0),geq(3))"), SearchBudget(depth=depth, window=300)
        ).certificate
        for values in (cert.fs, cert.fp):
            assert type(values) is tuple and values == tuple(sorted(set(values)))


def test_fold_cap_is_the_most_a_verifiable_certificate_holds():
    assert fsfp.FOLD_CAP == 2**search.VERIFY_DEPTH_CAP - 1


def test_verify_depth_cap():
    ys = tuple(1 for _ in range(23))
    cert = Certificate(
        x=tuple(1 for _ in range(23)),
        blocks=tuple((i,) for i in range(1, 24)),
        ys=ys,
        fs=tuple(range(1, 24)),
        fp=(1,),
        spec_text="all",
    )
    with pytest.raises(RefusalError, match="verification cap"):
        verification_failure(cert)


def test_search_refuses_depth_past_verify_cap_before_searching(monkeypatch):
    def no_candidates(*args):
        raise AssertionError("a candidate block was enumerated")

    monkeypatch.setattr(search, "_candidates", no_candidates)
    x = tuple(range(1, 61))
    with pytest.raises(RefusalError, match="search depth 23 exceeds verification cap 22"):
        search_subsystem(x, Congruence(1, 0), SearchBudget(depth=23, window=60, max_block=1))
    # the patched generator is the one the search draws from: one depth lower,
    # the search reaches it
    with pytest.raises(AssertionError, match="a candidate block was enumerated"):
        search_subsystem(x, Congruence(1, 0), SearchBudget(depth=22, window=60, max_block=1))


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
