"""Acceptance gate: eight criteria, each printing one pass/fail line.

Frozen constants (the Hindman threshold, witness values) were produced by
running the independent oracles in this file and snapshotting their output,
not asserted a priori.
"""

import random
import subprocess
import sys
import time
from itertools import combinations, product

from conftest import fp_oracle, fs_oracle, random_spec
from ipkit.certificates import certificate_from_document, load_document
from ipkit.fsfp import finite_products, finite_sums, state_of
from ipkit.partition import Coloring, hindman_finite, ip_star_refute, scale_witness
from ipkit.search import (
    OutcomeKind,
    SearchBudget,
    brute_force_subsystem,
    search_subsystem,
    verify_certificate,
)
from ipkit.semigroup import (
    all_semigroups,
    cyclic_group,
    group_check,
    ideal_structure,
    idempotent_order,
    idempotents,
    left_zero,
    multiplication_mod,
    null_semigroup,
    product_formula_check,
    right_zero,
    sampled_transformation_semigroups,
)
from ipkit.setspec import Congruence, dilation_preimage, parse_spec

# snapshotted from the exhaustive all-colorings oracle run (r=2, depth 2)
HINDMAN_THRESHOLD = 9


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ipkit", *argv], capture_output=True, text=True
    )


def test_criterion_1_congruence_corpus_via_cli(tmp_path):
    jobs = [
        ("mod(6,0)", "5", tmp_path / "c6.json"),
        ("mod(4,0)", "4", tmp_path / "c4.json"),
        ("mod(9,0)", "4", tmp_path / "c9.json"),
    ]
    start = time.monotonic()
    ok = True
    for spec, depth, path in jobs:
        found = _cli(
            "search", "--seq", "nat:64", "--spec", spec, "--depth", depth,
            "--json", str(path),
        )
        verified = _cli("verify", "--cert", str(path))
        ok = ok and found.returncode == 0 and "outcome: found" in found.stdout
        ok = ok and verified.returncode == 0 and "certificate verifies" in verified.stdout
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(1, ok, f"three searches found and re-verified via CLI in {elapsed:.2f}s (< 5s)")


def test_criterion_2_punctured_target(tmp_path):
    spec_text = "and(mod(6,0),not(bits(6 12 36; 1000000)))"
    path = tmp_path / "punctured.json"
    found = _cli(
        "search", "--seq", "nat:128", "--spec", spec_text, "--depth", "4",
        "--window", "128", "--json", str(path),
    )
    verified = _cli("verify", "--cert", str(path))
    ok = found.returncode == 0 and verified.returncode == 0
    cert = certificate_from_document(load_document(path))
    target = parse_spec(cert.spec_text)
    members = sorted({*cert.fs, *cert.fp})
    ok = ok and all(target.contains(v) for v in members)
    ok = ok and len(cert.ys) == 4 and verify_certificate(cert)
    report(
        2,
        ok,
        f"depth-4 certificate in window 128, all {len(members)} FS u FP values "
        f"divisible by 6 and puncture-free, max {max(members)}",
    )


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260824)
    x = tuple(range(1, 9))
    budget = SearchBudget(depth=2, window=8, max_block=3)
    agree = found = 0
    for _ in range(20):
        spec = random_spec(rng)
        fast = search_subsystem(x, spec, budget)
        slow = brute_force_subsystem(x, spec, budget)
        if fast.kind is slow.kind and fast.certificate == slow.certificate:
            agree += 1
            if fast.kind is OutcomeKind.FOUND:
                found += 1
    report(3, agree == 20, f"{agree}/20 seeded specs agree with brute force ({found} found)")


def test_criterion_4_witness_scaling():
    rng = random.Random(42)
    failures = 0
    scaled_ok = vacuous = 0
    for _ in range(50):
        m = rng.randint(1, 12)
        n = rng.randint(1, 10)
        k = rng.randint(1, 4)
        a = Congruence(m, 0)
        witness = ip_star_refute(dilation_preimage(a, n), k, 200)
        if witness is None:
            vacuous += 1
            continue
        scaled = scale_witness(witness, n)
        if all(not a.contains(v) for v in scaled.fs):
            scaled_ok += 1
        else:
            failures += 1
    report(
        4,
        failures == 0 and scaled_ok > 0,
        f"{scaled_ok} scaled refutation witnesses verified, {vacuous} vacuous, "
        f"{failures} failures",
    )


def test_criterion_5_fsfp_algebra():
    rng = random.Random(5)
    bad = 0
    for _ in range(1000):
        length = rng.randint(1, 10)
        ys = tuple(rng.randint(1, 40) for _ in range(length))
        y = rng.randint(1, 40)
        fs = finite_sums(ys)
        fp = finite_products(ys)
        if finite_sums(ys + (y,)) != fs | {y} | {t + y for t in fs}:
            bad += 1
        if finite_products(ys + (y,)) != fp | {y} | {s * y for s in fp}:
            bad += 1
        if len(fs) > 2**length - 1:
            bad += 1
        state = state_of(ys)
        if state.fs != fs_oracle(ys) or state.fp != fp_oracle(ys):
            bad += 1
    report(5, bad == 0, f"1000 sequences: incremental identity, |FS| bound, state_of ({bad} violations)")


def test_criterion_6_pigeonhole_consistency():
    none_result = ip_star_refute(Congruence(6, 0), 6, 60)
    small = ip_star_refute(Congruence(6, 0), 3, 10)
    ok = none_result is None and small is not None and small.terms == (1, 2, 7)
    report(6, ok, "k=6,N=60 exhausts with no witness; k=3 yields (1,2,7) canonically")


def test_criterion_7_semigroup_sweep():
    start = time.monotonic()
    corpus = []
    for n in (1, 2, 3):
        corpus.extend(all_semigroups(n))
    for n in range(1, 7):
        corpus.extend(
            (cyclic_group(n), multiplication_mod(n), left_zero(n), right_zero(n),
             null_semigroup(n))
        )
    corpus.extend(sampled_transformation_semigroups(seed=2026))
    violations = 0
    pairs = formula_cases = 0
    for sg in corpus:
        ids = idempotents(sg)
        if not ids:
            violations += 1
        structure = ideal_structure(sg)
        if frozenset().union(*structure.minimal_left) != structure.kernel:
            violations += 1
        if frozenset().union(*structure.minimal_right) != structure.kernel:
            violations += 1
        order = idempotent_order(sg)
        if order.minimal != ids & structure.kernel:
            violations += 1
        for left in structure.minimal_left:
            for right in structure.minimal_right:
                pairs += 1
                if not group_check(sg, left, right):
                    violations += 1
        if sg.order <= 3:
            n = sg.order
            for p in range(n):
                for q in range(n):
                    for r in range(n + 1):
                        for subset in combinations(range(n), r):
                            formula_cases += 1
                            if not product_formula_check(sg, p, q, subset):
                                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60.0
    report(
        7,
        ok,
        f"{len(corpus)} semigroups, {pairs} (L,R) pairs, {formula_cases} formula cases, "
        f"{violations} violations in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_8_hindman_oracle_agreement():
    def oracle_has_witness(colors, depth=2):
        bound = len(colors)
        for terms in combinations(range(1, bound + 1), depth):
            sums = fs_oracle(terms)
            if max(sums) > bound:
                continue
            if len({colors[v - 1] for v in sums}) == 1:
                return True
        return False

    mismatches = 0
    oracle_threshold = search_threshold = None
    for bound in range(2, 13):
        oracle_all = search_all = True
        for colors in product((0, 1), repeat=bound):
            by_oracle = oracle_has_witness(colors)
            by_search = hindman_finite(Coloring(colors), 2) is not None
            if by_oracle != by_search:
                mismatches += 1
            oracle_all = oracle_all and by_oracle
            search_all = search_all and by_search
        if oracle_all and oracle_threshold is None:
            oracle_threshold = bound
        if search_all and search_threshold is None:
            search_threshold = bound
    ok = (
        mismatches == 0
        and oracle_threshold == search_threshold == HINDMAN_THRESHOLD
    )
    report(
        8,
        ok,
        f"all 2-colorings N<=12 agree ({mismatches} mismatches); "
        f"threshold {oracle_threshold} matches snapshot {HINDMAN_THRESHOLD}",
    )
