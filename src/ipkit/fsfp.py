"""Exact finite-sum and finite-product set algebra over positive integers.

For a tuple of terms (y_1, ..., y_m) the finite-sum set is the set of values
sum(F) over all non-empty index subsets F, and the finite-product set the
same with products.  Everything is computed with Python's arbitrary-precision
integers: products of even modest block sums overflow machine words fast.

Terms must be >= 1.  Zero is rejected everywhere: products through 0
degenerate and nothing downstream wants it.

Sets are value sets; two subsets producing the same value collapse to one
element, so |FS| <= 2^m - 1 with equality only for collision-free term lists
such as (1, 2, 4, ..., 2^(m-1)).

Both sets come from one fold that keeps its values as an ascending list: each
term's sums (or products) with the values so far form a second ascending run,
which :func:`distinct_ascending` merges in linear time, or which is simply
concatenated when it and the term lie above the held values.
:func:`ascending_sums`/:func:`ascending_products` return the fold as the
ascending, repeat-free tuple a certificate holds; :func:`finite_sums`/
:func:`finite_products` return it as a frozenset.  :class:`FsFpState` folds once.
:func:`ascending_union` lists FS u FP from the two tuples, sorting only the
values of FP that do not lie above all of FS.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import ne, sub

from .errors import InputError, RefusalError, StructuralError

# a fold refuses past this many values, the most a depth-22 certificate holds:
# each term can double the set, so an unbounded fold only ends out of memory.
# A term that could pass the cap grows the set _FOLD_CHUNK source values at a
# time, so a refused fold stops at most one chunk past the cap; the chunk
# size is not a setting, only the grain of that check
FOLD_CAP = 2**22 - 1
_FOLD_CHUNK = 4096


def _check_terms(terms, what: str = "terms") -> None:
    if not terms:
        raise InputError(f"{what} must be non-empty")
    for t in terms:
        if not isinstance(t, int) or isinstance(t, bool):
            raise InputError(f"{what} must be integers, got {t!r}")
        if t < 1:
            raise InputError(f"{what} must be >= 1, got {t}")


def _fold(ys, name: str, grow) -> tuple[int, ...]:
    """Fold ``ys`` into its ascending values: each term adds itself and the
    ascending list ``grow(values, y)`` over the values so far.

    A term at most doubles the values, plus one.  Once that could pass
    ``FOLD_CAP``, the term grows them chunk by chunk and stops as soon as the
    cap is passed, so a refused fold never holds much more than the cap.
    """
    ys = tuple(ys)
    _check_terms(ys)
    values: list[int] = []
    for n, y in enumerate(ys, start=1):
        grown = grow(values, y) if 2 * len(values) + 1 <= FOLD_CAP else _new_to_cap(values, y, grow)
        if grown is None or len(values := _merged(values, y, grown)) > FOLD_CAP:
            raise RefusalError(f"fold refused: {name} of {n} terms exceeds {FOLD_CAP} values")
    return tuple(values)


def _new_to_cap(values: list, y: int, grow) -> list | None:
    """The ascending values ``grow(values, y)`` adds to ``values``, grown
    ``_FOLD_CHUNK`` source values at a time; None once they pass the cap.

    A chunk above the held values is new as a whole; any other is looked up
    in them by bisection, so no set of the held values is built.
    """
    new: list[int] = []
    room = FOLD_CAP - len(values)
    rest = iter(values)
    while len(new) <= room and (chunk := grow(islice(rest, _FOLD_CHUNK), y)):
        if chunk[0] > values[-1]:
            new += chunk
        else:
            # v is held iff the value just below its insertion point is v
            below = map(values.__getitem__, map(sub, map(bisect_right, repeat(values), chunk), repeat(1)))
            new += compress(chunk, map(ne, below, chunk))
    return new if len(new) <= room else None


def _merged(values: list, y: int, grown: list) -> list:
    """The ascending union of the ascending, repeat-free ``values``, ``[y]``
    and ``grown``: concatenated when they follow one another, else merged by
    :func:`distinct_ascending`.  ``values`` is extended in place."""
    follows = (not values or values[-1] < y) and (not grown or y < grown[0])
    values.append(y)
    values += grown
    return values if follows else distinct_ascending(values)


def distinct_ascending(values) -> list:
    """The distinct ``values`` in ascending order: one sort, linear on a few
    ascending runs, then one C-level pass that drops repeats.  ``TypeError``
    if they do not order."""
    ordered = sorted(values)
    unique = list(compress(ordered, map(ne, ordered, islice(ordered, 1, None))))
    unique += ordered[-1:]
    return unique


def ascending_union(fs, fp) -> tuple[list, int]:
    """FS u FP of the ascending, repeat-free ``fs`` and ``fp`` as (head, k):
    ``fp[k:]`` lies above all of ``fs``, and ``head`` is the distinct ascending
    union of ``fs`` and ``fp[:k]``, so ``head + fp[k:]`` lists FS u FP.  Only
    the head is sorted; the rest of ``fp`` is taken as it is."""
    k = bisect_right(fp, fs[-1]) if fs else 0
    return distinct_ascending((*fs, *fp[:k])), k


def ascending_sums(ys) -> tuple[int, ...]:
    """All non-empty subset sums of ``ys``, each once, in ascending order."""
    return _fold(ys, "FS", lambda values, y: [t + y for t in values])


def ascending_products(ys) -> tuple[int, ...]:
    """All non-empty subset products of ``ys``, each once, in ascending order."""
    return _fold(ys, "FP", lambda values, y: [s * y for s in values])


def finite_sums(ys) -> frozenset[int]:
    """All non-empty subset sums of ``ys``, as a value set."""
    return frozenset(ascending_sums(ys))


def finite_products(ys) -> frozenset[int]:
    """All non-empty subset products of ``ys``, as a value set."""
    return frozenset(ascending_products(ys))


def normalize_block(block) -> tuple[int, ...]:
    """Validate one index block: non-empty, all >= 1, duplicate-free; returns it sorted."""
    indices = tuple(block)
    _check_terms(indices, what="block indices")
    if len(set(indices)) != len(indices):
        raise InputError(f"block {indices} contains duplicate indices")
    return tuple(sorted(indices))


def check_block_order(blocks) -> tuple[tuple[int, ...], ...]:
    """Validate a whole block system: consecutive blocks must satisfy max < min."""
    normalized = tuple(normalize_block(b) for b in blocks)
    for i in range(len(normalized) - 1):
        left, right = normalized[i], normalized[i + 1]
        if left[-1] >= right[0]:
            raise StructuralError(
                f"blocks {i + 1} and {i + 2} out of order: "
                f"max {left[-1]} >= min {right[0]}"
            )
    return normalized


def subsystem_sums(x, blocks) -> tuple[int, ...]:
    """Block sums y_n = sum of x over the n-th block of indices (1-based).

    ``blocks`` must be strictly separated: the largest index of each block is
    below the smallest index of the next.
    """
    x = tuple(x)
    _check_terms(x)
    normalized = check_block_order(blocks)
    for block in normalized:
        if block[-1] > len(x):
            raise InputError(
                f"block index {block[-1]} out of range for sequence of length {len(x)}"
            )
    return tuple(sum(x[i - 1] for i in block) for block in normalized)


@dataclass(frozen=True)
class FsFpState:
    """Terms chosen so far together with their finite-sum and finite-product sets.

    ``FsFpState(ys)`` folds ``fs`` and ``fp`` from ``ys`` once.  Sets passed
    in must equal that fold.
    """

    ys: tuple[int, ...]
    fs: frozenset[int] | None = None
    fp: frozenset[int] | None = None

    def __post_init__(self):
        ys = tuple(self.ys)
        fs, fp = (finite_sums(ys), finite_products(ys)) if ys else (frozenset(), frozenset())
        if (self.fs is not None and frozenset(self.fs) != fs) or (
            self.fp is not None and frozenset(self.fp) != fp
        ):
            raise StructuralError(f"incoherent state: fs/fp do not match the enumerations of ys={ys}")
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "fs", fs)
        object.__setattr__(self, "fp", fp)

    @property
    def depth(self) -> int:
        return len(self.ys)


EMPTY_STATE = FsFpState(())


def extend_state(state: FsFpState, y: int) -> FsFpState:
    """Append one term: the state of ``state.ys + (y,)``."""
    if not isinstance(y, int) or isinstance(y, bool) or y < 1:
        raise InputError(f"appended term must be an integer >= 1, got {y!r}")
    return FsFpState(state.ys + (y,))


def state_of(ys) -> FsFpState:
    """The state of the non-empty terms ``ys``."""
    ys = tuple(ys)
    _check_terms(ys)
    return FsFpState(ys)
