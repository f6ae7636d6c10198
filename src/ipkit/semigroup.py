"""Finite semigroups as Cayley tables: idempotents, ideals, kernel, order.

Elements are 0..n-1 and the table stores table[a][b] = a*b.  Everything here
is exact finite algebra: associativity is checked on construction (first
violating triple in row-major order), minimal ideals are found among the
principal ones, and the structural facts that make the theory tick are
asserted rather than assumed:

* every finite semigroup has an idempotent;
* the union of the minimal left ideals equals the union of the minimal
  right ideals (the kernel K);
* an idempotent is minimal in the pq = qp = p order exactly when it lies
  in the kernel;
* the intersection of a minimal left and a minimal right ideal is a group.

The ultrafilter product formula is checked in its one computable instance:
over a finite semigroup every ultrafilter is principal, so "A belongs to the
product p*q" and "the set of x with x*q in A contains p" are evaluated as
plain memberships.  Both routes are computed independently and compared;
the report's sweep holds A as an n-bit mask and compares bit p*q of A with
bit p of the pullback mask built from column q, O(n) per (p, q, A) case.

Minimal ideals are the minimal principal ones (Hindman & Strauss, ch. 1-2),
O(n^3); generation closes under right multiplication by the generators
(Froidure & Pin, 1997).  :func:`ideal_structure` refuses orders above a cap
(default 12) unless raised: an interface limit, not a cost guard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import AssociativityError, InputError, RefusalError, StructuralError, shown

DEFAULT_ORDER_CAP = 12


def _first_associativity_violation(table) -> tuple[int, int, int] | None:
    n = len(table)
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            ab = row_a[b]
            row_ab = table[ab]
            row_b = table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return (a, b, c)
    return None


@dataclass(frozen=True)
class FiniteSemigroup:
    """A validated Cayley table; construction rejects anything non-associative."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        if n == 0:
            raise InputError("semigroup must have at least one element")
        for i, row in enumerate(table):
            if len(row) != n:
                raise InputError(f"table is not square: row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise InputError(f"table entry [{i}][{j}] = {shown(v)} outside 0..{n - 1}")
        triple = _first_associativity_violation(table)
        if triple is not None:
            raise AssociativityError(triple)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @property
    def elements(self) -> range:
        return range(self.order)


def validate_table(raw) -> FiniteSemigroup:
    """Build a semigroup from a raw nested sequence, running all checks."""
    return FiniteSemigroup(tuple(tuple(row) for row in raw))


def parse_table(text: str) -> FiniteSemigroup:
    """Parse the table file format: first line n, then n rows of n entries."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("table text is empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise InputError(f"first line must be the order, got {shown(lines[0])}") from None
    if n < 1:
        raise InputError(f"order must be >= 1, got {shown(n)}")
    if len(lines) != n + 1:
        raise InputError(f"expected {shown(n)} table rows after the order line, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise InputError(f"row {i} has {len(parts)} entries, expected {n}")
        try:
            rows.append(tuple(int(p) for p in parts))
        except ValueError:
            raise InputError(f"row {i} contains a non-integer entry: {shown(line)}") from None
    return validate_table(rows)


def render_table(sg: FiniteSemigroup) -> str:
    """Inverse of :func:`parse_table`."""
    lines = [str(sg.order)]
    lines.extend(" ".join(str(v) for v in row) for row in sg.table)
    return "\n".join(lines) + "\n"


def idempotents(sg: FiniteSemigroup) -> frozenset[int]:
    """All e with e*e = e; never empty for a finite semigroup (asserted)."""
    found = frozenset(e for e in sg.elements if sg.mul(e, e) == e)
    if not found:
        raise StructuralError("finite semigroup with no idempotent; table cannot be associative")
    return found


@dataclass(frozen=True)
class IdealStructure:
    """Minimal left and right ideals plus their common union, the kernel."""

    minimal_left: tuple[frozenset[int], ...]
    minimal_right: tuple[frozenset[int], ...]
    kernel: frozenset[int]


def _principal_ideals(sg: FiniteSemigroup, side: str) -> list[frozenset[int]]:
    """S^1 a for every a when ``side`` is "left", a S^1 for every a when "right"."""
    lines = zip(*sg.table) if side == "left" else sg.table  # column a is S*a, row a is a*S
    return [frozenset(line) | {a} for a, line in enumerate(lines)]


def _is_minimal(principal: list[frozenset[int]], ideal: frozenset[int]) -> bool:
    """A non-empty set is a minimal one-sided ideal iff each member generates it."""
    return bool(ideal) and all(principal[a] == ideal for a in ideal)


def _minimal_ideals(sg: FiniteSemigroup, side: str) -> tuple[frozenset[int], ...]:
    principal = _principal_ideals(sg, side)
    minimal = {p for p in principal if _is_minimal(principal, p)}
    return tuple(sorted(minimal, key=sorted))  # deterministic report order


def ideal_structure(sg: FiniteSemigroup, order_cap: int | None = None) -> IdealStructure:
    """Minimal left/right ideals and the kernel, as the minimal principal ideals.

    Every minimal left ideal L is principal (L = S^1 a for each a in L), so the
    minimal left ideals are the principal ones that every member generates;
    likewise on the right.  O(n^3).  Refuses above ``order_cap`` (default
    ``DEFAULT_ORDER_CAP``).
    """
    cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    if cap < 1:
        raise InputError(f"order cap must be >= 1, got {cap}")
    if sg.order > cap:
        raise RefusalError(
            f"ideal enumeration refused at order {sg.order}: exceeds cap {cap}"
        )
    min_left = _minimal_ideals(sg, "left")
    min_right = _minimal_ideals(sg, "right")
    kernel = frozenset().union(*min_left)
    if kernel != frozenset().union(*min_right):
        raise StructuralError(
            "union of minimal left ideals differs from union of minimal right ideals"
        )
    return IdealStructure(minimal_left=min_left, minimal_right=min_right, kernel=kernel)


@dataclass(frozen=True)
class IdempotentOrder:
    """The idempotents of a semigroup under p <= q iff pq = qp = p."""

    idempotents: frozenset[int]
    leq: frozenset[tuple[int, int]]
    minimal: frozenset[int]


def idempotent_order(
    sg: FiniteSemigroup, order_cap: int | None = None, kernel: frozenset[int] | None = None
) -> IdempotentOrder:
    """Compute the idempotent order and its minimal elements.

    Asserts the structural equivalence: an idempotent is order-minimal
    exactly when it belongs to the kernel.  ``kernel`` is the one
    :func:`ideal_structure` gives, passed by a caller that has it already;
    without it, it is computed here.
    """
    ids = idempotents(sg)
    leq = frozenset(
        (p, q) for p in ids for q in ids if sg.mul(p, q) == p and sg.mul(q, p) == p
    )
    minimal = frozenset(
        e for e in ids if not any(f != e and (f, e) in leq for f in ids)
    )
    if kernel is None:
        kernel = ideal_structure(sg, order_cap).kernel
    if minimal != ids & kernel:
        raise StructuralError(
            "minimal idempotents do not coincide with kernel idempotents"
        )
    return IdempotentOrder(idempotents=ids, leq=leq, minimal=minimal)


def group_check(sg: FiniteSemigroup, left, right) -> bool:
    """True iff the intersection of the given minimal ideals is a group.

    ``left`` and ``right`` are re-validated as minimal left/right ideals
    (each member must generate the whole ideal) before anything else; bogus
    inputs raise rather than producing a meaningless verdict.
    """
    left = frozenset(left)
    right = frozenset(right)
    for name, ideal in (("left", left), ("right", right)):
        for v in ideal:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < sg.order:
                raise InputError(f"{name} ideal element {v!r} outside 0..{sg.order - 1}")
    if not _is_minimal(_principal_ideals(sg, "left"), left):
        raise InputError(f"{sorted(left)} is not a minimal left ideal")
    if not _is_minimal(_principal_ideals(sg, "right"), right):
        raise InputError(f"{sorted(right)} is not a minimal right ideal")
    group = left & right
    if not group:
        return False
    for a in group:
        for b in group:
            if sg.mul(a, b) not in group:
                return False
    identity = None
    for e in group:
        if all(sg.mul(e, g) == g and sg.mul(g, e) == g for g in group):
            identity = e
            break
    if identity is None:
        return False
    for g in group:
        if not any(
            sg.mul(g, h) == identity and sg.mul(h, g) == identity for h in group
        ):
            return False
    return True


def product_formula_check(sg: FiniteSemigroup, p: int, q: int, members) -> bool:
    """Compare both readings of the ultrafilter product formula at (p, q, A).

    Principal semantics: the left side asks whether p*q lands in A, the
    right side builds the set of x with x*q in A and asks whether p is in
    it.  The two must agree for every input; the comparison is still done
    honestly, via the two separate computations.
    """
    n = sg.order
    for name, v in (("p", p), ("q", q)):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise InputError(f"element {name}={v!r} outside 0..{n - 1}")
    subset = frozenset(members)
    for v in subset:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise InputError(f"subset element {v!r} outside 0..{n - 1}")
    left_side = sg.mul(p, q) in subset
    pullback = frozenset(x for x in sg.elements if sg.mul(x, q) in subset)
    right_side = p in pullback
    return left_side == right_side


# above order 8 the product formula is checked on this many seeded samples
_FORMULA_SAMPLES = 2000
_FORMULA_SEED = 7


def _formula_cases(n: int):
    """The sweep's (p, q, A) cases, A a bitmask: all n^2 * 2^n to order 8, else seeded draws."""
    if n <= 8:
        return ((p, q, a) for p in range(n) for q in range(n) for a in range(1 << n))
    rng = random.Random(_FORMULA_SEED)
    return ((rng.randrange(n), rng.randrange(n), rng.getrandbits(n)) for _ in range(_FORMULA_SAMPLES))


def _pullback(column, a: int) -> int:
    """{x : x*q in A} as a bitmask, from column q of the table and A as a bitmask."""
    mask = 0
    for x, v in enumerate(column):
        if a >> v & 1:
            mask |= 1 << x
    return mask


def _product_formula_sweep(sg: FiniteSemigroup):
    """Exhaustive (p,q,A) sweep at small order, seeded sample otherwise.

    Each case compares the two readings of the product formula in bitmask
    form, O(n) integer operations: bit p*q of A, and bit p of the pullback
    {x : x*q in A} built from column q.  The cases come from inside, so
    they are not revalidated as :func:`product_formula_check` does.
    Returns (cases checked, exhaustive, all agree).
    """
    table = sg.table
    columns = tuple(zip(*table))
    exhaustive = len(table) <= 8
    checked = 0
    for p, q, a in _formula_cases(len(table)):
        checked += 1
        if (a >> table[p][q] & 1) != (_pullback(columns[q], a) >> p & 1):
            return checked, exhaustive, False
    return checked, exhaustive, True


# -- corpus ------------------------------------------------------------------

def all_semigroups(n: int) -> list[FiniteSemigroup]:
    """Every associative table on 0..n-1, by exhaustive magma filtering.

    There are n^(n*n) tables, so this refuses beyond order 3 (order 3 is
    19683 candidates; order 4 would be 4*10^9).
    """
    if n < 1:
        raise InputError(f"order must be >= 1, got {n}")
    if n > 3:
        raise RefusalError(f"exhaustive table enumeration refused at order {n} > 3")
    rows = list(product(range(n), repeat=n))
    out = []
    for table in product(rows, repeat=n):
        if _first_associativity_violation(table) is None:
            out.append(FiniteSemigroup(table))
    return out


def cyclic_group(n: int) -> FiniteSemigroup:
    """Addition mod n."""
    if n < 1:
        raise InputError(f"order must be >= 1, got {n}")
    return FiniteSemigroup(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def multiplication_mod(m: int) -> FiniteSemigroup:
    """Multiplication mod m on 0..m-1; a monoid, not a group, once m > 1."""
    if m < 1:
        raise InputError(f"modulus must be >= 1, got {m}")
    return FiniteSemigroup(tuple(tuple((a * b) % m for b in range(m)) for a in range(m)))


def left_zero(n: int) -> FiniteSemigroup:
    """x*y = x; every element idempotent, every singleton a right ideal."""
    if n < 1:
        raise InputError(f"order must be >= 1, got {n}")
    return FiniteSemigroup(tuple(tuple(a for _ in range(n)) for a in range(n)))


def right_zero(n: int) -> FiniteSemigroup:
    """x*y = y."""
    if n < 1:
        raise InputError(f"order must be >= 1, got {n}")
    return FiniteSemigroup(tuple(tuple(b for b in range(n)) for _ in range(n)))


def null_semigroup(n: int) -> FiniteSemigroup:
    """x*y = 0 for all x, y: the null semigroup with adjoined zero."""
    if n < 1:
        raise InputError(f"order must be >= 1, got {n}")
    return FiniteSemigroup(tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def _compose_closure(maps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Close a set of self-maps of a finite point set under composition.

    Every product of generators is some element times one generator, so
    closing under right multiplication by the generators alone suffices.
    """
    gens = list(dict.fromkeys(maps))
    seen = set(gens)
    frontier = gens
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(f[x] for x in g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def transformation_semigroup(maps) -> FiniteSemigroup:
    """The semigroup generated by self-maps of {0..k-1} under composition."""
    gens = [tuple(m) for m in maps]
    if not gens:
        raise InputError("need at least one generating map")
    k = len(gens[0])
    for m in gens:
        if len(m) != k or any(not 0 <= v < k for v in m):
            raise InputError(f"map {m!r} is not a self-map of 0..{k - 1}")
    return _composition_table(_compose_closure(gens))


def _composition_table(elems: list[tuple[int, ...]]) -> FiniteSemigroup:
    """Cayley table of a composition-closed, sorted list of self-maps."""
    index = {m: i for i, m in enumerate(elems)}
    return FiniteSemigroup(
        tuple(tuple(index[tuple(f[x] for x in g)] for g in elems) for f in elems)
    )


def sampled_transformation_semigroups(
    seed: int, per_order: int = 3, orders=(4, 5, 6), degree: int = 4, tries: int = 3000
) -> list[FiniteSemigroup]:
    """Seeded sample of transformation semigroups hitting each target order.

    Random generating maps on ``degree`` points are closed under
    composition; closures whose order hits a still-needed target are kept.
    Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    wanted = {o: per_order for o in orders}
    found: list[FiniteSemigroup] = []
    seen_tables = set()
    for _ in range(tries):
        if not any(wanted.values()):
            break
        gens = [
            tuple(rng.randrange(degree) for _ in range(degree))
            for _ in range(rng.randint(1, 2))
        ]
        elems = _compose_closure(gens)
        order = len(elems)
        if wanted.get(order, 0) <= 0:
            continue
        sg = _composition_table(elems)
        if sg.table in seen_tables:
            continue
        seen_tables.add(sg.table)
        wanted[order] -= 1
        found.append(sg)
    return found
