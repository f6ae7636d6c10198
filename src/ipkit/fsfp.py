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

Both sets come from one fold, in which each term adds itself and its sums or
products with every value so far; an :class:`FsFpState` folds its terms once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

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


def _fold(ys, name: str, grow) -> frozenset[int]:
    """Fold ``ys`` into a value set: each term adds itself and ``grow(values, y)``
    over the values so far.

    A term at most doubles the set, plus one.  Once that could pass
    ``FOLD_CAP``, the term grows the set chunk by chunk and stops as soon as
    the cap is passed, so a refused fold never holds much more than the cap.
    """
    ys = tuple(ys)
    _check_terms(ys)
    acc: set[int] = set()
    for n, y in enumerate(ys, start=1):
        if 2 * len(acc) + 1 <= FOLD_CAP:
            acc |= grow(acc, y)
        else:
            new: set[int] = set()
            rest = iter(acc)
            while len(acc) + len(new) <= FOLD_CAP and (chunk := grow(islice(rest, _FOLD_CHUNK), y)):
                new |= chunk - acc
            acc |= new
        acc.add(y)
        if len(acc) > FOLD_CAP:
            raise RefusalError(f"fold refused: {name} of {n} terms exceeds {FOLD_CAP} values")
    return frozenset(acc)


def finite_sums(ys) -> frozenset[int]:
    """All non-empty subset sums of ``ys``, as a value set."""
    return _fold(ys, "FS", lambda values, y: {t + y for t in values})


def finite_products(ys) -> frozenset[int]:
    """All non-empty subset products of ``ys``, as a value set."""
    return _fold(ys, "FP", lambda values, y: {s * y for s in values})


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
