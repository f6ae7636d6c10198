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

:meth:`SetSpec.predicate` compiles a spec to one flat Python expression, so
a query runs in one frame whatever the spec's width or depth; only ``bits``
nodes, and the parts of a spec past ``MAX_CODE_NODES`` nodes or
``MAX_SPEC_DEPTH`` levels, are calls of their own.

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
        """Compile to one flat Python function for hot loops.

        Same semantics as :meth:`contains` (including domain-bound errors and
        the left-to-right short-circuit order of ``and``/``or``) but skips the
        argument validation; callers must pass integers >= 1.  The whole tree
        becomes one expression, ``v % c0 == c1 and v >= c2`` for
        ``and(mod(6,0),geq(3))`` with c0, c1, c2 bound to 6, 0, 3, so a
        query runs in one frame whatever the spec's width or depth.  A
        ``bits`` node, and any node whose class overrides this method, stays
        a call to its own ``predicate()``.  A spec past ``MAX_CODE_NODES``
        nodes or ``MAX_SPEC_DEPTH`` levels compiles in parts, each called
        from the part above it.  Nothing is cached: every call compiles
        afresh.
        """
        codes: dict = {}
        return _compiled(_lowered(self, codes, root=True)[0], codes)


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


@dataclass(frozen=True)
class Empty(SetSpec):
    def _member(self, value: int) -> bool:
        return False


@dataclass(frozen=True)
class Full(SetSpec):
    def _member(self, value: int) -> bool:
        return True


EMPTY = Empty()
FULL = Full()

# nodes one compiled code object holds at most: a larger subtree, or a run of
# a wide and/or node's children, compiles to a code object of its own, which
# its parent calls, so compile time and memory grow linearly with the spec
MAX_CODE_NODES = 1000

# how loosely each compiled form binds; a child binding more loosely than
# its parent's operands must be parenthesised, and leaves bind tightest
_LOOSENESS = {"or": 0, "and": 1, "bind": 1, "not": 2}
_TIGHTEST = 3


def _lowered(spec: SetSpec, codes: dict, root: bool = False) -> tuple[tuple, int, int]:
    """``spec`` as a code tree for :func:`_compiled`, with the nodes and the
    levels that tree holds inline.

    A subtree that would take its parent past ``MAX_CODE_NODES`` nodes or
    ``MAX_SPEC_DEPTH`` levels is compiled here and held as a call.
    """
    if not root and type(spec).predicate is not SetSpec.predicate:
        return ("call", spec.predicate()), 1, 1
    if isinstance(spec, Congruence):
        return ("mod", spec.modulus, spec.residue), 1, 1
    if isinstance(spec, Interval):
        return ("range", spec.lo, spec.hi), 1, 1
    if isinstance(spec, (Empty, Full)):
        return ("const", isinstance(spec, Full)), 1, 1
    if isinstance(spec, (Complement, ShiftPreimage, DilationPreimage)):
        child, nodes, levels = _lowered(spec.child, codes)
        if nodes >= MAX_CODE_NODES or levels >= MAX_SPEC_DEPTH:
            child, nodes, levels = _called(child, codes)
        if isinstance(spec, Complement):
            return ("not", child), nodes + 1, levels + 1
        if isinstance(spec, ShiftPreimage):
            return ("bind", "+", spec.offset, child), nodes + 1, levels + 1
        return ("bind", "*", spec.factor, child), nodes + 1, levels + 1
    if isinstance(spec, (Union, Intersection)):
        op = "or" if isinstance(spec, Union) else "and"
        parts = [_lowered(c, codes) for c in spec.children]
        parts = [_called(p[0], codes) if p[2] >= MAX_SPEC_DEPTH else p for p in parts]
        # and/or are associative: runs of children compile on their own,
        # grouped again while even their calls do not fit
        while 1 + sum(p[1] for p in parts) > MAX_CODE_NODES:
            parts = [
                _called((op, [p[0] for p in run]) if len(run) > 1 else run[0][0], codes)
                for run in _runs(parts)
            ]
        tree = (op, [p[0] for p in parts])
        return tree, 1 + sum(p[1] for p in parts), 1 + max(p[2] for p in parts)
    raise NotImplementedError(f"cannot compile {type(spec).__name__}")


def _called(tree: tuple, codes: dict) -> tuple[tuple, int, int]:
    """A code tree compiled on its own, as a one-node call."""
    if tree[0] == "call":
        return tree, 1, 1
    return ("call", _compiled(tree, codes)), 1, 1


def _runs(parts: list):
    """Consecutive lowered parts, grouped so that each group and its and/or
    node fit in ``MAX_CODE_NODES``."""
    run, nodes = [], 0
    for part in parts:
        if run and nodes + part[1] >= MAX_CODE_NODES:
            yield run
            run, nodes = [], 0
        run.append(part)
        nodes += part[1]
    yield run


def _compiled(tree: tuple, codes: dict) -> Callable[[int], bool]:
    """A code tree as one ``lambda v: ...`` that evaluates it in one frame.

    Each constant and each called function is bound to a generated global
    name, so the source holds only generated names, operators and keywords:
    no text of a spec reaches ``compile``, and integers of any size stay
    exact with no decimal round trip.  Parts of one shape therefore have one
    source, compiled once into ``codes`` and evaluated with each part's names.
    """
    names: dict = {}
    out: list[str] = []
    binds = 0

    def name(value) -> str:
        key = f"c{len(names)}"
        names[key] = value
        return key

    def emit(tree: tuple, arg: str, floor: int) -> None:
        nonlocal binds
        kind = tree[0]
        looseness = _LOOSENESS.get(kind, _TIGHTEST)
        if looseness < floor:
            out.append("(")
        if kind == "mod":
            out.append(f"{arg} % {name(tree[1])} == {name(tree[2])}")
        elif kind == "range":
            lo, hi = tree[1], tree[2]
            out.append(f"{arg} >= {name(lo)}" if hi is None else f"{name(lo)} <= {arg} <= {name(hi)}")
        elif kind == "const":
            out.append(repr(tree[1]))
        elif kind == "call":
            out.append(f"{name(tree[1])}({arg})")
        elif kind == "not":
            out.append("not ")
            emit(tree[1], arg, looseness)
        elif kind == "bind":
            # the shifted or dilated argument is bound once, not pasted into
            # every leaf below; it is >= 1, so the walrus is true and the
            # value is the child's
            local = f"w{binds}"
            binds += 1
            out.append(f"({local} := {arg} {tree[1]} {name(tree[2])}) and ")
            emit(tree[3], local, looseness)
        else:
            for i, child in enumerate(tree[1]):
                if i:
                    out.append(f" {kind} ")
                emit(child, arg, looseness)
        if looseness < floor:
            out.append(")")

    emit(tree, "v", 0)
    source = "lambda v: " + "".join(out)
    if source not in codes:
        codes[source] = compile(source, "<setspec>", "eval")
    return eval(codes[source], names)


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


# parse_spec refuses deeper nesting, which keeps a parsed spec's compiled
# expression (about one parenthesis per level) inside compile's nesting and
# recursion limits; a spec built deeper in code compiles in parts this deep
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
