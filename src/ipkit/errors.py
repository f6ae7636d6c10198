"""Exception types shared across the package, and how their messages show values."""

import reprlib

# error messages echo at most this many characters of an offending value
SHOWN_CHARS = 80


def shown(value) -> str:
    """A short repr of ``value`` for an error message; a hostile value is never echoed whole."""
    text = reprlib.repr(value)
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


class InputError(ValueError):
    """A value handed to an operation violates its preconditions."""


class StructuralError(ValueError):
    """A composite structure (block system, state, certificate) violates its invariants."""


class DomainBoundError(LookupError):
    """Membership was queried outside a bitmap's declared domain bound.

    Raised instead of silently answering false: a silent default would let a
    search accept values whose membership was never actually decided.
    """


class RefusalError(RuntimeError):
    """An operation refused to run because its cost guard tripped."""


class SpecSyntaxError(InputError):
    """Set-expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AssociativityError(InputError):
    """A Cayley table failed the associativity check; carries the first bad triple."""

    def __init__(self, triple: tuple[int, int, int]):
        a, b, c = triple
        super().__init__(f"not associative at triple ({a},{b},{c}): ({a}*{b})*{c} != {a}*({b}*{c})")
        self.triple = triple
