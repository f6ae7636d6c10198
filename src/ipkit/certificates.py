"""Deterministic JSON documents for certificates, witnesses, and reports.

One document shape for every artifact, discriminated by a ``kind`` field:

* ``subsystem-search``: a search outcome; when found, the full certificate
  (window, blocks, block sums, FS and FP listings, target spec, budget).
  FS and FP are written ascending, from the certificate's tuples, and read
  back as tuples in their recorded order.  ``verify`` reads them as value
  sets: a tuple equal to the refold, as every written document gives, is
  compared as it is, and only another listing is sorted.
* ``fs-witness`` / ``ip-refutation``: witness terms and their finite sums.
* ``hindman``: a monochromatic witness inside a finite coloring, or absence.
* ``semigroup-report``: structural report on a finite Cayley table.

All unbounded integers (sequence values, block sums, FS/FP elements, witness
terms) are rendered as decimal strings so nothing is lost to floating-point
readers.  Block indices, budgets, and colors are small by construction and
stay JSON numbers.  Serialization is canonical: sorted keys, two-space
indent, trailing newline.  The only non-reproducible field is ``created_at``;
:func:`comparable_form` drops it so byte-level comparisons can be made.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from .errors import InputError, shown
from .search import Certificate, SearchBudget, SearchOutcome

FORMAT_VERSION = 1

KIND_SEARCH = "subsystem-search"
KIND_WITNESS = "fs-witness"
KIND_REFUTATION = "ip-refutation"
KIND_HINDMAN = "hindman"
KIND_SEMIGROUP = "semigroup-report"

_KNOWN_KINDS = (KIND_SEARCH, KIND_WITNESS, KIND_REFUTATION, KIND_HINDMAN, KIND_SEMIGROUP)


@contextmanager
def digit_limit_lifted():
    """Convert ints of any size to decimal inside; Python's int->str digit limit is restored after.

    Only writers lift it.  Readers keep it: it guards parsing against
    quadratic time on hostile documents.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _decimals(values) -> list[str]:
    with digit_limit_lifted():
        return list(map(str, values))


def _sorted_decimals(values) -> list[str]:
    return _decimals(sorted(values))


def make_document(kind: str, payload: dict) -> dict:
    """Stamp a payload with the common envelope fields."""
    if kind not in _KNOWN_KINDS:
        raise InputError(f"unknown document kind {kind!r}")
    doc = dict(payload)
    doc["kind"] = kind
    doc["format_version"] = FORMAT_VERSION
    doc["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return doc


def search_document(
    outcome: SearchOutcome, budget: SearchBudget, spec_text: str, x
) -> dict:
    """Document a search outcome; found outcomes embed the whole certificate."""
    cert = outcome.certificate
    payload = {
        "spec": spec_text,
        "budget": {
            "depth": budget.depth,
            "window": budget.window,
            "max_block": budget.max_block,
            "node_limit": budget.node_limit,
        },
        "outcome": outcome.kind.value,
        "nodes": outcome.nodes,
        "x": _decimals(cert.x if cert is not None else x),
        "blocks": [list(b) for b in cert.blocks] if cert is not None else None,
        "ys": _decimals(cert.ys) if cert is not None else None,
        "fs": _sorted_decimals(cert.fs) if cert is not None else None,
        "fp": _sorted_decimals(cert.fp) if cert is not None else None,
        "verified": bool(cert is not None and cert.verified),
    }
    return make_document(KIND_SEARCH, payload)


def witness_document(
    kind: str, witness: FsWitness | None, spec_text: str, depth: int, bound: int
) -> dict:
    """Document an FS-witness search or an IP* refutation attempt."""
    if kind not in (KIND_WITNESS, KIND_REFUTATION):
        raise InputError(f"witness documents cannot have kind {kind!r}")
    payload = {
        "spec": spec_text,
        "depth": depth,
        "bound": bound,
        "outcome": "found" if witness is not None else "none",
        "terms": _decimals(witness.terms) if witness is not None else None,
        "fs": _sorted_decimals(witness.fs) if witness is not None else None,
    }
    return make_document(kind, payload)


def hindman_document(
    result: tuple[int, FsWitness] | None, depth: int, bound: int, palette: int
) -> dict:
    """Document a finite Hindman search over a concrete coloring."""
    color, witness = result or (None, None)
    payload = {
        "depth": depth,
        "bound": bound,
        "palette": palette,
        "outcome": "found" if witness is not None else "none",
        "color": color,
        "terms": _decimals(witness.terms) if witness is not None else None,
        "fs": _sorted_decimals(witness.fs) if witness is not None else None,
    }
    return make_document(KIND_HINDMAN, payload)


def _digit_strings(values: list) -> bool:
    """Whether ``values`` are strings of ASCII digits only, checked at C level."""
    try:
        return "".join(values).encode("ascii").isdigit()
    except (TypeError, UnicodeEncodeError):  # a non-string or a non-ASCII character
        return False


def dumps_document(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, byte for byte.

    Its ``indent`` runs the pure-Python encoder, so arrays of digit strings are joined.
    """
    if not doc or not all(isinstance(key, str) for key in doc):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    fields = (f"  {json.dumps(key)}: {_field_text(doc[key])}" for key in sorted(doc))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _field_text(value) -> str:
    if isinstance(value, list) and _digit_strings(value):
        return '[\n    "' + '",\n    "'.join(value) + '"\n  ]'
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def write_document(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(doc))


def load_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also undecodable bytes and over-long integers
            raise InputError(f"not a JSON document: {exc}") from None
        except RecursionError:
            raise InputError("not a JSON document: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format_version {shown(version)}")
    return doc


def comparable_form(doc: dict) -> dict:
    """The document minus its timestamp, for byte-level reproducibility checks."""
    return {k: v for k, v in doc.items() if k != "created_at"}


def _parse_decimal(value, what: str) -> int:
    # canonical [1-9][0-9]*; int() keeps the int->str digit limit, so huge
    # decimals are refused rather than parsed in quadratic time
    if isinstance(value, str) and value.isascii() and value.isdigit() and value[0] != "0":
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{what} must be a canonical decimal string, got {shown(value)}")


def _decimal_array(doc: dict, name: str, what: str) -> list[int]:
    """The integers of a JSON array of canonical decimal strings."""
    values = _array(doc, name)
    # C-level passes over the whole array: all strings, ASCII digits only,
    # none empty or with a leading zero (a digit string sorts below "1"
    # exactly then); the value-by-value parse names the first bad one otherwise
    if _digit_strings(values) and min(values) >= "1":
        try:
            return list(map(int, values))
        except ValueError:  # past the digit limit
            pass
    return [_parse_decimal(v, what) for v in values]


def _field(doc: dict, name: str):
    if name not in doc or doc[name] is None:
        raise InputError(f"document is missing field {name!r}")
    return doc[name]


def _array(doc: dict, name: str) -> list:
    value = _field(doc, name)
    if not isinstance(value, list):
        raise InputError(f"field {name!r} must be a JSON array, got {type(value).__name__}")
    return value


def budget_from_document(doc: dict) -> tuple[SearchBudget, int]:
    """The recorded budget and node count; raises only if they are malformed."""
    raw = _field(doc, "budget")
    fields = ("depth", "window", "max_block", "node_limit")
    if not isinstance(raw, dict) or sorted(raw) != sorted(fields):
        raise InputError(f"budget must be an object with fields {', '.join(fields)}, got {shown(raw)}")
    nodes = _field(doc, "nodes")
    if not isinstance(nodes, int) or isinstance(nodes, bool):
        raise InputError(f"nodes must be an integer, got {shown(nodes)}")
    return SearchBudget(**raw), nodes


def certificate_from_document(doc: dict) -> Certificate:
    """Rebuild a :class:`Certificate` from a loaded document for re-verification.

    Only the recorded data crosses, the ``fs`` and ``fp`` arrays as the tuples
    they list, in their recorded order; the ``verified`` flag is dropped so
    the caller's recheck is the one that counts.
    """
    kind = doc.get("kind")
    if kind != KIND_SEARCH:
        raise InputError(f"expected a {KIND_SEARCH} document, got kind {shown(kind)}")
    if doc.get("outcome") != "found":
        raise InputError(
            f"document records outcome {shown(doc.get('outcome'))}, nothing to verify"
        )
    x = tuple(_decimal_array(doc, "x", "sequence value"))
    blocks = []
    for raw in _array(doc, "blocks"):
        if not isinstance(raw, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in raw
        ):
            raise InputError(f"block must be a list of integers, got {shown(raw)}")
        blocks.append(tuple(raw))
    ys = tuple(_decimal_array(doc, "ys", "block sum"))
    fs = tuple(_decimal_array(doc, "fs", "finite sum"))
    fp = tuple(_decimal_array(doc, "fp", "finite product"))
    spec_text = _field(doc, "spec")
    if not isinstance(spec_text, str):
        raise InputError(f"spec field must be a string, got {shown(spec_text)}")
    return Certificate(
        x=x, blocks=tuple(blocks), ys=ys, fs=fs, fp=fp, spec_text=spec_text
    )
