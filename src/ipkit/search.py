"""Bounded backtracking search for sum subsystems with checkable certificates.

Given a finite sequence x_1..x_N and a target set A, the search looks for
blocks H_1 < H_2 < ... < H_m (each block's largest index below the next
block's smallest) whose block sums y_n = sum over H_n keep the whole set
FS(y_1..y_m) u FP(y_1..y_m) inside A.

Candidate blocks are enumerated in a fixed canonical order: by increasing
largest index, then by increasing size, then lexicographically on the sorted
index list.  Depth-first search over that order makes the result a pure
function of (sequence, target, budget): the first solution in canonical
order, a proof of exhaustion of the bounded space, or a node-limit report
that deliberately claims nothing.

A good stage-m+1 candidate y must satisfy y in A, t+y in A for every t
already in the finite-sum set, and s*y in A for every s in the finite-product
set: the stage constraint.  It is exact, so pruning on it never changes
which complete block systems are accepted.  The search keeps it as a flat
tuple of tests, each made once: the compiled target, then queries of that
same compiled target at just the sums and products each accepted term adds,
in ascending order per stage.  :func:`stage_constraint` states the
constraint from scratch.

A target holding a ``bits`` node runs those tests on every candidate, so the
first query that raises :class:`~ipkit.errors.DomainBoundError` is fixed by
the canonical order.  Any other target has an
:func:`~ipkit.setspec.eventual_period` (T, L), and every stage constraint
repeats with period L past T.  The search keeps each of its sums and
products by key: the value itself up to T, its representative in [T+1..T+L]
above.  Values with one key make the same test, so a path holds at most
2(T+L) tests however deep it goes; such a target never raises, so the order
of its tests does not matter.  A stage's members in the period window
[1..T+L] may also be listed: the search carries down the members of the
nearest listed stage on its path and the tests added since, and filters the
one through the other.  A listed stage costs one lookup per candidate, at
its representative in [T+1..T+L] when the candidate is larger.  An empty one
is not scanned: its remaining candidates are counted in closed form, clamped
at the node limit exactly as the scan would stop.  A stage is listed, on
entry or mid-scan, only once the nodes counted so far pay for the target
queries listing costs, so all listings together spend at most nodes +
``LISTING_ALLOWANCE`` queries; listings below a stage raise that spending,
so the node count its listing waits for is rechecked when reached.  A lookup
stands in for a prefix of the tests, so listing never makes more than nodes
+ ``LISTING_ALLOWANCE`` target queries (one per test run) beyond what the
unlisted tests would, and never changes node counts, outcomes or
certificates.  It gains when the search tests many more nodes than T+L:
exhausting and node-limited searches over small periods.

An admitted candidate below the last stage fixes its subtree by (stage,
its last index, the FS and FP keys so far, its own key): the child's lo,
FS keys and FP keys follow from these, and so does every node the subtree
counts.  The search memoises that count for each subtree that returns
without a find, without reaching the node limit and without raising, and
looks a candidate up before accepting it.  A hit skips the subtree and adds
its count, clamped at the node limit exactly as the closed-form skip is, so
hits change no node count, outcome, certificate or first raising query;
they skip listings, so they may change how many target queries are made.
The memo keeps entries until what it holds, each entry counted as 1 + the
keys of its two sets, reaches ``MEMO_CAP``; past that it stores nothing more
and evicts nothing.  A ``bits`` target is not memoised: its tests run in the
order its path added them, so which query first leaves the table's domain
depends on that order, which the key leaves out.

:func:`brute_force_subsystem` re-derives the answer with no pruning and no
incremental state, enumerating every subset of its terms for FS and FP.
:func:`verify_certificate` rechecks a found certificate from scratch, with FS
and FP rebuilt by the set fold of :mod:`fsfp`, so its cost follows |FS| +
|FP| rather than 2^depth, and tested by the compiled target of the re-parsed
spec.  The search folds FS and FP once for each certificate it returns and
rechecks only what a search bug could break: the block order, every value of
FS u FP against the re-parsed spec, and the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from math import comb, prod

from .errors import InputError, RefusalError, StructuralError, shown
from .fsfp import (
    FsFpState,
    _check_terms,
    check_block_order,
    finite_products,
    finite_sums,
)
from .setspec import (
    SetSpec,
    dilation_preimage,
    eventual_period,
    intersect_all,
    parse_spec,
    render_spec,
    shift_preimage,
)

DEFAULT_MAX_BLOCK = 4
DEFAULT_NODE_LIMIT = 1_000_000

# brute_force_subsystem refuses above this many enumerable block systems
BRUTE_FORCE_CAP = 10_000_000

# target queries the period window may spend on listing members ahead of the
# nodes counted so far; past it, listing is paid for by counted nodes alone
LISTING_ALLOWANCE = 1024

# what one search's memo holds at most, an entry counted as 1 + the keys of
# its two sets: past it the memo stores nothing more and evicts nothing
MEMO_CAP = 1 << 16

# verification folds FS and FP term by term, so its cost follows |FS| + |FP|,
# which is at most 2^depth each; the cap keeps hostile documents cheap
VERIFY_DEPTH_CAP = 22


@dataclass(frozen=True)
class SearchBudget:
    """Bounds that replace an unbounded existence argument with a finite search."""

    depth: int
    window: int
    max_block: int = DEFAULT_MAX_BLOCK
    node_limit: int = DEFAULT_NODE_LIMIT

    def __post_init__(self):
        for name in ("depth", "window", "max_block", "node_limit"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise InputError(f"budget field {name} must be an integer >= 1, got {shown(value)}")


class OutcomeKind(Enum):
    FOUND = "found"
    # complete search of the bounded space, nothing admissible in it
    EXHAUSTED = "exhausted"
    # gave up after node_limit candidate blocks; asserts nothing
    NODE_LIMIT = "node-limit"


@dataclass(frozen=True)
class Certificate:
    """Self-contained record of a successful search, re-checkable by third parties."""

    x: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    ys: tuple[int, ...]
    fs: frozenset[int]
    fp: frozenset[int]
    spec_text: str
    verified: bool = False


@dataclass(frozen=True)
class SearchOutcome:
    kind: OutcomeKind
    certificate: Certificate | None = None
    nodes: int = 0


def iter_blocks(lo: int, hi: int, max_block: int):
    """Canonical enumeration of index blocks inside [lo..hi].

    Order: increasing largest index; among equal largest index, increasing
    size; then lexicographic on the sorted index list.
    """
    for top in range(lo, hi + 1):
        for size in range(1, max_block + 1):
            for rest in combinations(range(lo, top), size - 1):
                yield rest + (top,)


def iter_block_systems(window: int, max_block: int, depth: int):
    """All block systems of given depth inside [1..window], in canonical DFS order."""

    def rec(lo: int, prefix: tuple):
        if len(prefix) == depth:
            yield prefix
            return
        for block in iter_blocks(lo, window, max_block):
            yield from rec(block[-1] + 1, prefix + (block,))

    yield from rec(1, ())


def count_block_systems(window: int, max_block: int, depth: int) -> int:
    """Exact count of the systems :func:`iter_block_systems` would yield."""
    # chains[p] = number of (k-1)-stage systems whose last block tops out at p
    sizes = range(1, max_block + 1)
    chains = {p: sum(comb(p - 1, s - 1) for s in sizes) for p in range(1, window + 1)}
    for _ in range(depth - 1):
        nxt = {}
        for p in range(1, window + 1):
            nxt[p] = sum(
                chains[q] * sum(comb(p - 1 - q, s - 1) for s in sizes)
                for q in range(1, p)
            )
        chains = nxt
    return sum(chains.values())


def stage_constraint(state: FsFpState, target: SetSpec) -> SetSpec:
    """The set of admissible next terms given what is already committed.

    y satisfies the returned spec iff appending y to the state keeps every
    finite sum and finite product inside ``target``.  Built from scratch as
    shift and dilation preimages; the search asks the same questions of the
    compiled target, stage by stage.
    """
    return intersect_all(
        [target]
        + [shift_preimage(target, t) for t in sorted(state.fs)]
        + [dilation_preimage(target, s) for s in sorted(state.fp)]
    )


def _shifted(test, t: int):
    return lambda v: test(v + t)


def _dilated(test, s: int):
    return lambda v: test(s * v)


def _exact(v: int) -> int:
    return v


def _residue_key(period: tuple[int, int] | None):
    """The key the search keeps for a sum or product: the value itself, or,
    for a target with eventual period (T, L), its representative in
    [T+1..T+L] when it is larger than T.

    Past T only the residue mod L decides membership: for v >= 1,
    A(v+t) = A(v+key(t)) and A(s*v) = A(key(s)*v).  The key also commutes
    with growing a sum or product, key(key(t)+y) = key(t+y) and
    key(key(s)*y) = key(s*y), so keys can be folded in place of values.
    """
    if period is None:
        return _exact
    first, size = period[0] + 1, period[1]
    return lambda v: v if v < first else first + (v - first) % size


def _accept(test, fs: frozenset, fp: frozenset, y: int, key) -> tuple:
    """Append y: the grown key sets of FS and FP, and queries of the compiled
    target ``test`` at just the sum keys, then the product keys, that y adds,
    each ascending.  ``key`` is a :func:`_residue_key`."""
    y = key(y)
    new_sums = {y, *(key(t + y) for t in fs)} - fs
    new_prods = {y, *(key(s * y) for s in fp)} - fp
    tests = tuple(_shifted(test, t) for t in sorted(new_sums)) + tuple(
        _dilated(test, s) for s in sorted(new_prods)
    )
    return fs | new_sums, fp | new_prods, tests


def _filtered(pool, tests: tuple) -> frozenset:
    """The values of ``pool`` that pass every test, each run in order until one fails."""
    members = []
    for v in pool:
        for test in tests:
            if not test(v):
                break
        else:
            members.append(v)
    return frozenset(members)


def _block_count(n: int, max_block: int) -> int:
    """How many blocks :func:`iter_blocks` yields over ``n`` consecutive indices."""
    return sum(comb(n, k) for k in range(1, max_block + 1))


def _memo_hit(nodes: int, count: int, node_limit: int) -> tuple[int, bool]:
    """The node count after a memoised subtree of ``count`` nodes, and whether
    it reaches the limit: clamped there exactly as a scan of it would stop."""
    if nodes + count <= node_limit:
        return nodes + count, False
    return node_limit, True


def _validated_window(x, budget: SearchBudget) -> tuple[int, ...]:
    terms = tuple(x)
    _check_terms(terms, what="sequence terms")
    if budget.window > len(terms):
        raise InputError(
            f"budget window {budget.window} exceeds sequence length {len(terms)}"
        )
    return terms[: budget.window]


def search_subsystem(x, target: SetSpec, budget: SearchBudget) -> SearchOutcome:
    """Depth-first search for a block system of ``budget.depth`` blocks.

    Returns the canonically first certificate, a proof that the bounded space
    holds none, or a node-limit report.  One node = one candidate block
    tested.  Depths past ``VERIFY_DEPTH_CAP`` are refused up front.  Found
    certificates are re-checked, budget included, before being returned.
    """
    terms = _validated_window(x, budget)
    if budget.depth > VERIFY_DEPTH_CAP:
        raise RefusalError(
            f"search depth {budget.depth} exceeds verification cap {VERIFY_DEPTH_CAP}"
        )
    spec_text = render_spec(target)
    nodes = 0
    limit_hit = False
    # target queries spent on listing window members, kept at most
    # nodes + LISTING_ALLOWANCE
    spent = 0
    path: list[tuple[int, ...]] = []
    # node counts of subtrees that ended without a find or the node limit,
    # and what the memo holds: each entry charged 1 + the keys of its sets
    memo: dict[tuple, int] = {}
    held = 0
    in_target = target.predicate()
    period = eventual_period(target)
    # a bits target raises at the first test, in path order, that leaves its
    # table: two paths with one key may raise at different queries
    memo_cap = 0 if period is None else MEMO_CAP
    key = _residue_key(period)
    top = None if period is None else period[0] + period[1]

    def lookup(members: frozenset):
        # every stage constraint repeats with period L past T, so y > T+L
        # is looked up at its representative in [T+1..T+L]
        return lambda y: key(y) in members

    def cost(members: frozenset | None, since: tuple) -> int:
        """At most how many target queries listing a stage costs: its pool
        times the tests it is filtered through."""
        return (top if members is None else len(members)) * len(since)

    def due(members: frozenset | None, since: tuple) -> int:
        """The node count from which listing a stage's window members is paid for."""
        if top is None:
            return budget.node_limit
        return min(budget.node_limit, spent + cost(members, since) - LISTING_ALLOWANCE)

    def list_members(members: frozenset | None, since: tuple, lo: int, tested: int):
        """The stage's window members, filtered from ``members`` (or [1..T+L])
        through ``since``; None once an empty stage's remaining candidates
        are counted as the loop would test them."""
        nonlocal nodes, limit_hit, spent
        spent += cost(members, since)
        members = _filtered(range(1, top + 1) if members is None else members, since)
        if members:
            return members
        rest = _block_count(budget.window - lo + 1, budget.max_block) - tested
        if nodes + rest <= budget.node_limit:
            nodes += rest
        else:
            nodes, limit_hit = budget.node_limit, True
        return None

    def extend(
        stage: int, lo: int, fs: frozenset, fp: frozenset, members: frozenset | None, since: tuple
    ) -> bool:
        # members: the window members of the nearest listed stage on the path,
        # or None; since: the tests added below it, from the compiled target
        nonlocal nodes, limit_hit, held
        tests = since if members is None else (lookup(members), *since)
        stop = due(members, since)
        # listing on entry is a fast path, not a second copy of the loop's due
        # check: an empty stage listed here returns before iter_blocks builds a
        # generator.  Folded into the loop, nodes and certificates stayed the
        # same and target queries fell by about a tenth, but the search-nodes
        # benchmark (exhausted and node-limit searches) ran about 12% slower.
        if stop <= nodes < budget.node_limit:
            if (members := list_members(members, since, lo, 0)) is None:
                return False
            since, tests, stop = (), (lookup(members),), budget.node_limit
        # tested: the candidates this visit has tested before this one
        for tested, block in enumerate(iter_blocks(lo, budget.window, budget.max_block)):
            # listings in the subtree raise spent and so the stop: recheck it when reached
            if nodes >= stop and nodes >= (stop := due(members, since)):
                if nodes >= budget.node_limit:
                    limit_hit = True
                    return False
                if (members := list_members(members, since, lo, tested)) is None:
                    return False
                since, tests, stop = (), (lookup(members),), budget.node_limit
            nodes += 1
            y = sum(terms[i - 1] for i in block)
            # all() over tests, as a loop: a generator per node costs more than one test
            for test in tests:
                if not test(y):
                    break
            else:
                if stage == budget.depth:
                    path.append(block)
                    return True
                # fixes the child's lo, FS keys and FP keys, so its subtree's node count
                subtree = (stage, block[-1], fs, fp, key(y))
                if (count := memo.get(subtree)) is not None:
                    nodes, limit_hit = _memo_hit(nodes, count, budget.node_limit)
                    if limit_hit:
                        return False
                    continue
                path.append(block)
                next_fs, next_fp, added = _accept(in_target, fs, fp, y, key)
                before = nodes
                if extend(stage + 1, block[-1] + 1, next_fs, next_fp, members, since + added):
                    return True
                if limit_hit:
                    return False
                path.pop()
                if held < memo_cap:
                    held += 1 + len(fs) + len(fp)
                    memo[subtree] = nodes - before
        return False

    if extend(1, 1, frozenset(), frozenset(), None, (in_target,)):
        blocks = tuple(path)
        ys = tuple(sum(terms[i - 1] for i in block) for block in blocks)
        fs, fp = finite_sums(ys), finite_products(ys)
        cert = Certificate(terms[: blocks[-1][-1]], blocks, ys, fs, fp, spec_text)
        # x, ys, FS and FP hold by construction: recheck what a search bug can break
        check_block_order(blocks)
        failure = membership_failure(parse_spec(spec_text), fs, fp)
        failure = failure or budget_failure(cert, budget, nodes)
        if failure is not None:
            raise StructuralError(f"search produced a bad certificate: {failure}")
        return SearchOutcome(OutcomeKind.FOUND, replace(cert, verified=True), nodes)
    if limit_hit:
        return SearchOutcome(OutcomeKind.NODE_LIMIT, None, nodes)
    return SearchOutcome(OutcomeKind.EXHAUSTED, None, nodes)


def _subset_sums_and_products(ys) -> tuple[set[int], set[int]]:
    """FS and FP of ``ys`` over every non-empty index subset, for the brute-force
    oracle; independent of the fold in :mod:`fsfp`."""
    fs: set[int] = set()
    fp: set[int] = set()
    for r in range(1, len(ys) + 1):
        for combo in combinations(ys, r):
            fs.add(sum(combo))
            fp.add(prod(combo))
    return fs, fp


def brute_force_subsystem(x, target: SetSpec, budget: SearchBudget) -> SearchOutcome:
    """Independent oracle: test every block system in the budget, no pruning.

    Refuses budgets whose enumerable space exceeds ``BRUTE_FORCE_CAP``
    systems.  Membership runs through the interpreted ``contains`` path and
    the whole FS/FP sets are rebuilt per system, sharing nothing with the
    incremental machinery of :func:`search_subsystem`.
    """
    terms = _validated_window(x, budget)
    total = count_block_systems(budget.window, budget.max_block, budget.depth)
    if total > BRUTE_FORCE_CAP:
        raise RefusalError(
            f"brute force refused: {total} block systems exceed cap {BRUTE_FORCE_CAP}"
        )
    spec_text = render_spec(target)
    tested = 0
    for system in iter_block_systems(budget.window, budget.max_block, budget.depth):
        tested += 1
        ys = tuple(sum(terms[i - 1] for i in block) for block in system)
        fs, fp = _subset_sums_and_products(ys)
        if all(target.contains(v) for v in sorted(fs | fp)):
            cert = Certificate(
                x=terms[: system[-1][-1]],
                blocks=system,
                ys=ys,
                fs=frozenset(fs),
                fp=frozenset(fp),
                spec_text=spec_text,
                verified=True,
            )
            return SearchOutcome(OutcomeKind.FOUND, cert, tested)
    return SearchOutcome(OutcomeKind.EXHAUSTED, None, tested)


def verification_failure(cert: Certificate) -> str | None:
    """Recheck a certificate from scratch; None if it holds, else the first failure.

    Structural violations (bad block ordering, indices outside the recorded
    window) raise; value-level mismatches and membership failures are
    reported as strings so tampering is diagnosed, not crashed on.
    """
    target = parse_spec(cert.spec_text)
    blocks = check_block_order(cert.blocks)
    if not blocks:
        raise StructuralError("certificate has no blocks")
    if len(cert.ys) > VERIFY_DEPTH_CAP:
        raise RefusalError(
            f"certificate depth {len(cert.ys)} exceeds verification cap {VERIFY_DEPTH_CAP}"
        )
    for block in blocks:
        if block[-1] > len(cert.x):
            raise StructuralError(
                f"block index {block[-1]} outside recorded window of length {len(cert.x)}"
            )
    _check_terms(cert.x, what="recorded sequence terms")
    ys = tuple(sum(cert.x[i - 1] for i in block) for block in blocks)
    if ys != tuple(cert.ys):
        return f"recomputed block sums {ys} != recorded {tuple(cert.ys)}"
    fs, fp = finite_sums(ys), finite_products(ys)
    if fs != cert.fs:
        return "recorded finite-sum set does not match recomputation"
    if fp != cert.fp:
        return "recorded finite-product set does not match recomputation"
    return membership_failure(target, fs, fp)


def membership_failure(target: SetSpec, fs: frozenset, fp: frozenset) -> str | None:
    """The first value of sorted FS u FP outside ``target``, as a failure, or None."""
    # FS and FP hold integers >= 1: the compiled target needs no checks
    in_target = target.predicate()
    for v in sorted(fs | fp):
        if not in_target(v):
            return f"element {v} of FS u FP is not in the target set"
    return None


def budget_failure(cert: Certificate, budget: SearchBudget, nodes: int) -> str | None:
    """How a certificate that passed :func:`verification_failure` breaks its budget, or None."""
    if len(cert.blocks) != budget.depth:
        return f"{len(cert.blocks)} blocks recorded for budget depth {budget.depth}"
    for block in cert.blocks:
        if len(block) > budget.max_block:
            return f"block {block} has more than max_block {budget.max_block} indices"
    last = max(cert.blocks[-1])
    if last > budget.window:
        return f"block index {last} outside budget window {budget.window}"
    if not budget.depth <= nodes <= budget.node_limit:
        return f"node count {nodes} outside depth..node limit, {budget.depth}..{budget.node_limit}"
    return None


def verify_certificate(cert: Certificate) -> bool:
    """True iff the certificate rechecks from scratch; see :func:`verification_failure`."""
    return verification_failure(cert) is None
