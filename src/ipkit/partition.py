"""Finite-depth FS witnesses, IP* refutation, and finite Hindman colorings.

A set B "looks IP" at depth k if it contains x_1 < ... < x_k together with
every non-empty subset sum; such a tuple is an :class:`FsWitness`.  Finding a
witness inside the complement of A refutes A being IP* (a set meeting every
FS-structured set).  The converse direction does not exist at finite depth:
absence of a witness within bounds proves nothing, which is why the API says
"refute" and never "prove".

Witness terms are required strictly increasing to canonicalize the search;
block sums in a subsystem certificate may repeat, and that asymmetry is
deliberate (a witness is a set-like object, a subsystem is a stage list).

:func:`hindman_finite` plays the partition game on a finite window: all
terms and all their subset sums must stay inside [1..N], where the coloring
is defined, and share one color.  Both searches are one lexicographic DFS
that fixes the first term and then tests membership in one set: the target
for FS witnesses, the first term's color class for Hindman.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, shown
from .fsfp import finite_sums
from .setspec import Complement, SetSpec


@dataclass(frozen=True)
class FsWitness:
    """Strictly increasing terms plus their finite-sum set (derived, coherent)."""

    terms: tuple[int, ...]
    fs: frozenset[int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise InputError("witness needs at least one term")
        for a, b in zip(self.terms, self.terms[1:]):
            if a >= b:
                raise InputError(f"witness terms must be strictly increasing, got {self.terms}")
        object.__setattr__(self, "fs", finite_sums(self.terms))

    @property
    def depth(self) -> int:
        return len(self.terms)


def _first_witness(bound: int, depth: int, test_for) -> FsWitness | None:
    """Lexicographically first witness with terms <= bound, or None when there is none.

    ``test_for(x_1)`` gives the membership test that x_1, every later term
    and every sum must pass.  Pruning prefixes whose sums fail skips nothing.
    A prefix carries each distinct sum once, at its first occurrence, so the
    tests run in the order of all subset sums minus repeats, and at most
    depth*bound sums are held: FS of k terms <= N has at most k*N values.
    """

    def extend(chosen: tuple[int, ...], sums: dict[int, None], admissible):
        if len(chosen) == depth:
            return chosen
        for nxt in range(chosen[-1] + 1, bound + 1):
            if not admissible(nxt):
                continue
            for t in sums:
                if not admissible(t + nxt):
                    break
            else:
                grown = sums.copy()
                for t in sums:
                    grown[t + nxt] = None
                grown[nxt] = None
                found = extend(chosen + (nxt,), grown, admissible)
                if found is not None:
                    return found
        return None

    for first in range(1, bound + 1):
        admissible = test_for(first)
        if admissible(first):
            found = extend((first,), {first: None}, admissible)
            if found is not None:
                return FsWitness(found)
    return None


def find_fs_witness(target: SetSpec, depth: int, bound: int) -> FsWitness | None:
    """Lexicographically first witness with terms <= bound and all sums in target.

    Sums may exceed ``bound``; only the terms live inside the window,
    membership of sums is the target's business.  Returns None only after
    complete enumeration.
    """
    if depth < 1:
        raise InputError(f"witness depth must be >= 1, got {depth}")
    if bound < depth:
        raise InputError(f"window bound {bound} too small for depth {depth}")
    admissible = target.predicate()
    return _first_witness(bound, depth, lambda first: admissible)


def ip_star_refute(target: SetSpec, depth: int, bound: int) -> FsWitness | None:
    """A witness wholly inside the complement of ``target``, or None.

    A returned witness refutes the claim that ``target`` meets every
    FS-structured set.  None means only: no refutation within (depth, bound).
    """
    return find_fs_witness(Complement(target), depth, bound)


def scale_witness(witness: FsWitness, factor: int) -> FsWitness:
    """Multiply every term by ``factor``; the finite-sum set scales with it.

    If the input avoids the dilation preimage of A by ``factor``, the output
    avoids A itself.
    """
    if factor < 1:
        raise InputError(f"scale factor must be >= 1, got {factor}")
    if factor == 1:
        return witness
    return FsWitness(tuple(factor * t for t in witness.terms))


@dataclass(frozen=True)
class Coloring:
    """A total coloring of [1..N]; colors[v-1] is the color of v."""

    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise InputError("coloring must cover at least [1..1]")
        for c in self.colors:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise InputError(f"color indices must be integers >= 0, got {c!r}")

    @property
    def bound(self) -> int:
        return len(self.colors)

    @property
    def palette(self) -> int:
        return max(self.colors) + 1

    def color_of(self, value: int) -> int:
        if not 1 <= value <= self.bound:
            raise InputError(f"value {value} outside colored domain [1..{self.bound}]")
        return self.colors[value - 1]


def parse_coloring(text: str) -> Coloring:
    """Parse the "value color_index" line format; every value 1..N must appear once."""
    assignment: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"coloring line {lineno}: expected 'value color', got {shown(line)}")
        try:
            value, color = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"coloring line {lineno}: non-integer field in {shown(line)}") from None
        if value < 1:
            raise InputError(f"coloring line {lineno}: value {shown(value)} is below 1")
        if value in assignment:
            raise InputError(f"coloring line {lineno}: value {shown(value)} colored twice")
        assignment[value] = color
    if not assignment:
        raise InputError("coloring file assigns no values")
    bound = max(assignment)
    # the first five gaps in [1..bound], read between the sorted values so the
    # cost follows the file and not its largest value
    missing: list[int] = []
    last = 0
    for v in sorted(assignment):
        if len(missing) >= 5:
            break
        missing.extend(range(last + 1, min(v, last + 6)))
        last = max(last, v)
    if missing:
        raise InputError(f"coloring is not total on [1..{bound}]: missing {missing[:5]}")
    return Coloring(tuple(assignment[v] for v in range(1, bound + 1)))


def hindman_finite(coloring: Coloring, depth: int) -> tuple[int, FsWitness] | None:
    """First monochromatic witness whose terms and sums all stay in [1..N].

    Sums leaving the window disqualify a candidate: the coloring is undefined
    there.  The target is the first term's color class inside [1..N].
    Returns (color, witness) in canonical (lexicographic) order, or None
    after complete enumeration.
    """
    if depth < 1:
        raise InputError(f"witness depth must be >= 1, got {depth}")
    colors = coloring.colors
    classes: dict[int, set[int]] = {}
    for value, color in enumerate(colors, start=1):
        classes.setdefault(color, set()).add(value)
    witness = _first_witness(
        coloring.bound, depth, lambda first: classes[colors[first - 1]].__contains__
    )
    if witness is None:
        return None
    return colors[witness.terms[0] - 1], witness
