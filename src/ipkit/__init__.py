"""Finite-depth combinatorics of sums, products, and semigroup idempotents.

The package searches bounded windows of a sequence for sum subsystems whose
finite sums and finite products all land in a decidable target set, emits
self-contained certificates that third parties can re-check, refutes IP*
claims by exhibiting FS-structured sets in complements, plays the Hindman
partition game on finite colorings, and computes the idempotent/ideal
structure of finite semigroups given as Cayley tables.

The names of the partition and semigroup layers load on first use (PEP 562),
so a process that only searches and verifies never builds those layers.
"""

import importlib

from .errors import (
    AssociativityError,
    DomainBoundError,
    InputError,
    RefusalError,
    SpecSyntaxError,
    StructuralError,
)
from .fsfp import (
    FsFpState,
    extend_state,
    finite_products,
    finite_sums,
    normalize_block,
    state_of,
    subsystem_sums,
)
from .search import (
    Certificate,
    OutcomeKind,
    SearchBudget,
    SearchOutcome,
    brute_force_subsystem,
    search_subsystem,
    stage_constraint,
    verification_failure,
    verify_certificate,
)
from .setspec import (
    Bitmap,
    Complement,
    Congruence,
    DilationPreimage,
    Empty,
    Full,
    Interval,
    Intersection,
    SetSpec,
    ShiftPreimage,
    Union,
    dilation_preimage,
    parse_spec,
    render_spec,
    shift_preimage,
)

__version__ = "0.1.0"

__all__ = [
    "AssociativityError",
    "Bitmap",
    "Certificate",
    "Coloring",
    "Complement",
    "Congruence",
    "DilationPreimage",
    "DomainBoundError",
    "Empty",
    "FiniteSemigroup",
    "FsFpState",
    "FsWitness",
    "Full",
    "IdealStructure",
    "IdempotentOrder",
    "InputError",
    "Intersection",
    "Interval",
    "OutcomeKind",
    "RefusalError",
    "SearchBudget",
    "SearchOutcome",
    "SetSpec",
    "ShiftPreimage",
    "SpecSyntaxError",
    "StructuralError",
    "Union",
    "brute_force_subsystem",
    "dilation_preimage",
    "extend_state",
    "find_fs_witness",
    "finite_products",
    "finite_sums",
    "group_check",
    "hindman_finite",
    "ideal_structure",
    "idempotent_order",
    "idempotents",
    "ip_star_refute",
    "normalize_block",
    "parse_coloring",
    "parse_spec",
    "parse_table",
    "product_formula_check",
    "render_spec",
    "scale_witness",
    "search_subsystem",
    "shift_preimage",
    "stage_constraint",
    "state_of",
    "subsystem_sums",
    "validate_table",
    "verification_failure",
    "verify_certificate",
]

# name -> the submodule that defines it, imported when the name is first read
_LAZY = {
    name: module
    for module, names in (
        ("partition", "Coloring FsWitness find_fs_witness hindman_finite ip_star_refute "
         "parse_coloring scale_witness"),
        ("semigroup", "FiniteSemigroup IdealStructure IdempotentOrder group_check ideal_structure "
         "idempotent_order idempotents parse_table product_formula_check validate_table"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
