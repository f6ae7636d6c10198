"""Decidable subsets of the positive integers as immutable expression trees.

A ``SetSpec`` denotes a subset of {1, 2, 3, ...} and supports exact
membership queries, boolean algebra, and two preimage constructions:

* dilation preimage  n^-1 A = {v : n*v in A}
* shift preimage     t^-1 A = {v : t+v in A}

Concrete text syntax (whitespace insignificant, integers ASCII decimal of at
most Python's int->str digit limit, 4300 by default)::

    spec := "mod(" m "," r ")"            residue class  {v : v = r (mod m)}
          | "geq(" n ")"                  half line      {v : v >= n}
          | "range(" lo "," hi ")"        interval       {v : lo <= v <= hi}
          | "bits(" v* ";" bound ")"      explicit finite set on domain [1..bound]
          | "not(" spec ")"
          | "and(" spec ("," spec)+ ")"
          | "or(" spec ("," spec)+ ")"
          | "dil(" n "," spec ")"         dilation preimage
          | "shift(" t "," spec ")"       shift preimage
          | "all" | "none"

Membership of a bitmap outside its declared bound raises
:class:`DomainBoundError` rather than defaulting to false; callers must keep
their queries inside the bound or wrap the bitmap with an explicit tail.

Specs are immutable and safe to share between threads.  Equality of two
specs as sets is extensional (compare by sampling); ``==`` on the dataclasses
is merely structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainBoundError, InputError, SpecSyntaxError, shown


class SetSpec:
    """Base class for set-expression nodes."""

    def contains(self, value: int) -> bool:
        """Exact membership of ``value`` (which must be >= 1)."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"membership query must be an integer, got {value!r}")
        if value < 1:
            raise InputError(f"membership query must be >= 1, got {value}")
        return self._member(value)

    def _member(self, value: int) -> bool:
        raise NotImplementedError

    def predicate(self) -> Callable[[int], bool]:
        """Compile to a plain closure for hot loops.

        Same semantics as :meth:`contains` (including domain-bound errors) but
        skips the argument validation; callers must pass integers >= 1.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Congruence(SetSpec):
    """{v : v = residue (mod modulus)}"""

    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 1:
            raise InputError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise InputError(
                f"residue must satisfy 0 <= r < {self.modulus}, got {self.residue}"
            )

    def _member(self, value: int) -> bool:
        return value % self.modulus == self.residue

    def predicate(self):
        m, r = self.modulus, self.residue
        return lambda v: v % m == r


@dataclass(frozen=True)
class Interval(SetSpec):
    """{v : lo <= v <= hi}; ``hi=None`` means unbounded above."""

    lo: int
    hi: int | None = None

    def __post_init__(self):
        if self.lo < 1:
            raise InputError(f"interval lower bound must be >= 1, got {self.lo}")
        if self.hi is not None and self.hi < self.lo:
            raise InputError(f"interval upper bound {self.hi} below lower bound {self.lo}")

    def _member(self, value: int) -> bool:
        if value < self.lo:
            return False
        return self.hi is None or value <= self.hi

    def predicate(self):
        lo, hi = self.lo, self.hi
        if hi is None:
            return lambda v: v >= lo
        return lambda v: lo <= v <= hi


@dataclass(frozen=True)
class Bitmap(SetSpec):
    """An explicit finite set, decidable only on the domain [1..bound]."""

    values: frozenset[int]
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "values", frozenset(self.values))
        if self.bound < 1:
            raise InputError(f"bitmap domain bound must be >= 1, got {self.bound}")
        for v in self.values:
            if not 1 <= v <= self.bound:
                raise InputError(
                    f"bitmap value {v} outside declared domain [1..{self.bound}]"
                )

    def _member(self, value: int) -> bool:
        if value > self.bound:
            raise DomainBoundError(
                f"membership query {value} exceeds bitmap domain bound {self.bound}"
            )
        return value in self.values

    def predicate(self):
        values, bound = self.values, self.bound

        def pred(v: int) -> bool:
            if v > bound:
                raise DomainBoundError(
                    f"membership query {v} exceeds bitmap domain bound {bound}"
                )
            return v in values

        return pred


@dataclass(frozen=True)
class Complement(SetSpec):
    child: SetSpec

    def _member(self, value: int) -> bool:
        return not self.child._member(value)

    def predicate(self):
        inner = self.child.predicate()
        return lambda v: not inner(v)


@dataclass(frozen=True)
class Union(SetSpec):
    """Children are evaluated left to right with short-circuiting."""

    children: tuple[SetSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise InputError("union needs at least two children")

    def _member(self, value: int) -> bool:
        return any(c._member(value) for c in self.children)

    def predicate(self):
        preds = tuple(c.predicate() for c in self.children)
        return lambda v: any(p(v) for p in preds)


@dataclass(frozen=True)
class Intersection(SetSpec):
    """Children are evaluated left to right with short-circuiting."""

    children: tuple[SetSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise InputError("intersection needs at least two children")

    def _member(self, value: int) -> bool:
        return all(c._member(value) for c in self.children)

    def predicate(self):
        preds = tuple(c.predicate() for c in self.children)
        return lambda v: all(p(v) for p in preds)


@dataclass(frozen=True)
class DilationPreimage(SetSpec):
    """{v : factor*v in child}"""

    factor: int
    child: SetSpec

    def __post_init__(self):
        if self.factor < 1:
            raise InputError(f"dilation factor must be >= 1, got {self.factor}")

    def _member(self, value: int) -> bool:
        return self.child._member(self.factor * value)

    def predicate(self):
        n, inner = self.factor, self.child.predicate()
        return lambda v: inner(n * v)


@dataclass(frozen=True)
class ShiftPreimage(SetSpec):
    """{v : offset+v in child}"""

    offset: int
    child: SetSpec

    def __post_init__(self):
        if self.offset < 1:
            raise InputError(f"shift offset must be >= 1, got {self.offset}")

    def _member(self, value: int) -> bool:
        return self.child._member(self.offset + value)

    def predicate(self):
        t, inner = self.offset, self.child.predicate()
        return lambda v: inner(t + v)


@dataclass(frozen=True)
class Empty(SetSpec):
    def _member(self, value: int) -> bool:
        return False

    def predicate(self):
        return lambda v: False


@dataclass(frozen=True)
class Full(SetSpec):
    def _member(self, value: int) -> bool:
        return True

    def predicate(self):
        return lambda v: True


EMPTY = Empty()
FULL = Full()


def intersect_all(specs) -> SetSpec:
    """Intersection of any number of specs (0 -> all, 1 -> the spec itself)."""
    specs = tuple(specs)
    if not specs:
        return FULL
    if len(specs) == 1:
        return specs[0]
    return Intersection(specs)


def dilation_preimage(spec: SetSpec, factor: int) -> SetSpec:
    """A spec for {v : factor*v in spec}.

    Congruences and intervals are rewritten in closed form; other nodes get a
    lazy wrapper.  Either representation is extensionally the same set.
    """
    if factor < 1:
        raise InputError(f"dilation factor must be >= 1, got {factor}")
    if factor == 1:
        return spec
    if isinstance(spec, (Empty, Full)):
        return spec
    if isinstance(spec, Congruence):
        m, r = spec.modulus, spec.residue
        g = math.gcd(factor, m)
        if r % g != 0:
            return EMPTY
        m2 = m // g
        # factor/g is invertible mod m2, so n*v = r (mod m) has the single
        # residue solution below
        r2 = (r // g) * pow(factor // g, -1, m2) % m2 if m2 > 1 else 0
        return Congruence(m2, r2)
    if isinstance(spec, Interval):
        lo2 = max(1, -(-spec.lo // factor))
        if spec.hi is None:
            return Interval(lo2, None)
        hi2 = spec.hi // factor
        if hi2 < lo2:
            return EMPTY
        return Interval(lo2, hi2)
    return DilationPreimage(factor, spec)


def shift_preimage(spec: SetSpec, offset: int) -> SetSpec:
    """A spec for {v : offset+v in spec}; same rewriting policy as dilation."""
    if offset < 1:
        raise InputError(f"shift offset must be >= 1, got {offset}")
    if isinstance(spec, (Empty, Full)):
        return spec
    if isinstance(spec, Congruence):
        return Congruence(spec.modulus, (spec.residue - offset) % spec.modulus)
    if isinstance(spec, Interval):
        lo2 = max(1, spec.lo - offset)
        if spec.hi is None:
            return Interval(lo2, None)
        hi2 = spec.hi - offset
        if hi2 < lo2:
            return EMPTY
        return Interval(lo2, hi2)
    return ShiftPreimage(offset, spec)


def eventual_period(spec: SetSpec) -> tuple[int, int] | None:
    """A pair (T, L) with v in spec <=> v+L in spec for every v > T.

    Congruences and intervals under boolean operations, shifts and dilations
    are ultimately periodic (the semilinear sets of Ginsburg and Spanier).
    A shift or dilation preimage keeps its child's pair, since t+v > T and
    n*v > T whenever v > T; so does every preimage of ``spec``.  Returns
    None exactly when a ``bits`` node occurs.
    """
    if isinstance(spec, Congruence):
        return 0, spec.modulus
    if isinstance(spec, Interval):
        return (spec.lo if spec.hi is None else spec.hi), 1
    if isinstance(spec, (Complement, DilationPreimage, ShiftPreimage)):
        return eventual_period(spec.child)
    if isinstance(spec, (Intersection, Union)):
        pairs = [eventual_period(c) for c in spec.children]
        if None in pairs:
            return None
        return max(t for t, _ in pairs), math.lcm(*(period for _, period in pairs))
    if isinstance(spec, (Empty, Full)):
        return 0, 1
    return None


def render_spec(spec: SetSpec) -> str:
    """Render a spec in the concrete syntax; ``parse_spec`` inverts this."""
    if isinstance(spec, Congruence):
        return f"mod({spec.modulus},{spec.residue})"
    if isinstance(spec, Interval):
        if spec.hi is None:
            return f"geq({spec.lo})"
        return f"range({spec.lo},{spec.hi})"
    if isinstance(spec, Bitmap):
        body = " ".join(str(v) for v in sorted(spec.values))
        return f"bits({body}; {spec.bound})"
    if isinstance(spec, Complement):
        return f"not({render_spec(spec.child)})"
    if isinstance(spec, Union):
        return "or(" + ",".join(render_spec(c) for c in spec.children) + ")"
    if isinstance(spec, Intersection):
        return "and(" + ",".join(render_spec(c) for c in spec.children) + ")"
    if isinstance(spec, DilationPreimage):
        return f"dil({spec.factor},{render_spec(spec.child)})"
    if isinstance(spec, ShiftPreimage):
        return f"shift({spec.offset},{render_spec(spec.child)})"
    if isinstance(spec, Empty):
        return "none"
    if isinstance(spec, Full):
        return "all"
    raise InputError(f"cannot render {type(spec).__name__}")


# parse_spec refuses deeper nesting: compiled predicates add frames per level,
# and this keeps them far below the interpreter's recursion limit
MAX_SPEC_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise SpecSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a keyword")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # Python's int->str digit limit, kept: it bounds a quadratic conversion
            digits, self.pos = self.pos - start, start
            self.fail(f"integer literal of {digits} digits exceeds the digit limit")

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def spec(self, depth: int = 1) -> SetSpec:
        if depth > MAX_SPEC_DEPTH:
            self.fail(f"spec nests deeper than {MAX_SPEC_DEPTH} levels")
        word = self.word()
        if word == "all":
            return FULL
        if word == "none":
            return EMPTY
        if word == "mod":
            self.expect("(")
            m = self.integer()
            self.expect(",")
            r = self.integer()
            self.expect(")")
            return Congruence(m, r)
        if word == "geq":
            self.expect("(")
            n = self.integer()
            self.expect(")")
            return Interval(n, None)
        if word == "range":
            self.expect("(")
            lo = self.integer()
            self.expect(",")
            hi = self.integer()
            self.expect(")")
            return Interval(lo, hi)
        if word == "bits":
            self.expect("(")
            values = []
            while "0" <= self.peek() <= "9":
                values.append(self.integer())
            self.expect(";")
            bound = self.integer()
            self.expect(")")
            return Bitmap(frozenset(values), bound)
        if word == "not":
            self.expect("(")
            child = self.spec(depth + 1)
            self.expect(")")
            return Complement(child)
        if word in ("and", "or"):
            self.expect("(")
            children = [self.spec(depth + 1)]
            while self.peek() == ",":
                self.expect(",")
                children.append(self.spec(depth + 1))
            self.expect(")")
            if len(children) < 2:
                self.fail(f"{word}(...) needs at least two arguments")
            return Intersection(tuple(children)) if word == "and" else Union(tuple(children))
        if word == "dil":
            self.expect("(")
            n = self.integer()
            self.expect(",")
            child = self.spec(depth + 1)
            self.expect(")")
            return DilationPreimage(n, child)
        if word == "shift":
            self.expect("(")
            t = self.integer()
            self.expect(",")
            child = self.spec(depth + 1)
            self.expect(")")
            return ShiftPreimage(t, child)
        self.fail(f"unknown keyword {shown(word)}")


def parse_spec(text: str) -> SetSpec:
    """Parse the concrete syntax; raises :class:`SpecSyntaxError` with position."""
    parser = _Parser(text)
    spec = parser.spec()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail("trailing input after complete expression")
    return spec
