"""From-scratch checks of every job's verdict, independent of ipkit.

Each check recomputes the answer with this package's own code (value sets by
plain folds, spec membership through ``workloads.member``, semigroup ideals
as the minimal principal ideals in O(n^3)) and returns None when the job's
output holds, or a one-line reason when it does not.  Nothing here trusts
the program's own verification.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
import sys

from workloads import (
    fold_products,
    fold_sums,
    member,
    render,
    source_terms,
)


class _NoDigitLimit:
    """Lift Python's int <-> str digit limit while a check renders big values."""

    def __enter__(self):
        self.saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.saved)


def _decimals(values) -> list:
    return [str(v) for v in sorted(values)]


def _listing_line(label: str, values) -> str:
    ordered = _decimals(values)
    return f"{label} ({len(ordered)} values): {' '.join(ordered)}"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- search certificates --------------------------------------------------------


def search_document_failure(doc, truth: dict) -> str | None:
    """None iff ``doc`` is a correct found certificate for the generated search."""
    try:
        with _NoDigitLimit():
            return _search_document_failure(doc, truth)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed document: {exc!r}"


def _search_document_failure(doc, truth: dict) -> str | None:
    if doc.get("kind") != "subsystem-search" or doc.get("format_version") != 1:
        return "not a version-1 subsystem-search document"
    if doc["outcome"] != "found" or doc["verified"] is not True:
        return f"document records outcome {doc['outcome']!r}, verified {doc['verified']!r}"
    if doc["spec"] != render(truth["spec"]):
        return f"spec {doc['spec']!r} differs from the generated {render(truth['spec'])!r}"
    budget = {k: truth[k] for k in ("depth", "window", "max_block", "node_limit")}
    if doc["budget"] != budget:
        return f"budget {doc['budget']!r} differs from the requested {budget!r}"
    nodes = doc["nodes"]
    if type(nodes) is not int or not truth["depth"] <= nodes <= truth["node_limit"]:
        return f"node count {nodes!r} outside [depth, node limit]"
    blocks = doc["blocks"]
    if len(blocks) != truth["depth"]:
        return f"{len(blocks)} blocks, expected {truth['depth']}"
    previous_top = 0
    for block in blocks:
        if not block or len(block) > truth["max_block"] or any(type(i) is not int for i in block):
            return f"block {block!r} is empty, too large or not integers"
        if block != sorted(set(block)) or block[0] <= previous_top:
            return f"block {block!r} is not increasing after index {previous_top}"
        previous_top = block[-1]
    if previous_top > truth["window"]:
        return f"block index {previous_top} outside window {truth['window']}"
    terms = source_terms(truth["source"], {})
    if doc["x"] != [str(v) for v in terms[:previous_top]]:
        return "recorded window x differs from the generated sequence"
    ys = [sum(terms[i - 1] for i in block) for block in blocks]
    if doc["ys"] != [str(y) for y in ys]:
        return "recorded block sums differ from the recomputed ones"
    fs, fp = fold_sums(ys), fold_products(ys)
    if doc["fs"] != _decimals(fs):
        return "recorded finite sums differ from the recomputed ones"
    if doc["fp"] != _decimals(fp):
        return "recorded finite products differ from the recomputed ones"
    for v in sorted(fs | fp):
        if not member(truth["spec"], v):
            return f"{v} in FS u FP lies outside {render(truth['spec'])}"
    return None


TAMPER_PRIME = 11


def tamper(doc: dict, kind: str) -> dict:
    """A copy of a found certificate with one false claim in it.

    ``fs``: the largest finite sum is raised by one; ``ys``: the last block
    sum is raised by one; ``spec``: the target gains a conjunct that excludes
    the smallest finite sum.  Each leaves the document well-formed, so an
    honest verifier answers "does not verify" (exit 1), not "malformed".
    """
    out = copy.deepcopy(doc)
    if kind == "fs":
        out["fs"][-1] = str(int(out["fs"][-1]) + 1)
    elif kind == "ys":
        out["ys"][-1] = str(int(out["ys"][-1]) + 1)
    elif kind == "spec":
        smallest = int(out["fs"][0])
        out["spec"] = f"and({out['spec']},not(mod({TAMPER_PRIME},{smallest % TAMPER_PRIME})))"
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return out


# -- stdout parsing ---------------------------------------------------------------


def _line(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def search_summary(text: str) -> tuple:
    """(outcome, nodes) from the first lines of a search's stdout."""
    outcome = _line(text, "outcome:")
    nodes = _line(text, "nodes:")
    return outcome, int(nodes) if nodes is not None and nodes.isdigit() else None


def _int_list(text: str | None) -> list | None:
    if text is None:
        return None
    parts = text.split()
    if not all(p.isdigit() for p in parts):
        return None
    return [int(p) for p in parts]


def _sets(text: str | None) -> set | None:
    if text is None:
        return None
    found = re.findall(r"\{([0-9,]*)\}", text)
    return {frozenset(int(v) for v in body.split(",") if v) for body in found}


# -- witnesses ---------------------------------------------------------------------


def refute_failure(text: str, code, truth: dict) -> str | None:
    """A refutation of mod(m,0) exists iff depth < m (pigeonhole on prefix sums)."""
    if code == 1:
        return None
    terms = _int_list(_line(text, "refutation witness:"))
    if terms is None:
        return "no witness line in the output"
    m, depth, bound = truth["m"], truth["depth"], truth["bound"]
    if len(terms) != depth or terms != sorted(set(terms)) or not 1 <= terms[0] <= terms[-1] <= bound:
        return f"witness {terms} is not {depth} increasing terms in [1..{bound}]"
    sums = fold_sums(terms)
    if any(v % m == 0 for v in sums):
        return f"a finite sum of {terms} is a multiple of {m}"
    if f"\n{_listing_line('FS', sums)}\n" not in f"\n{text}":
        return "printed finite sums differ from the recomputed ones"
    return None


def _monochromatic_witness_exists(colors: list, depth: int) -> bool:
    bound = len(colors)

    def grow(last: int, sums: list, color: int, size: int) -> bool:
        if size == depth:
            return True
        for nxt in range(last + 1, bound + 1):
            if colors[nxt - 1] != color:
                continue
            new = [s + nxt for s in sums]
            if all(v <= bound and colors[v - 1] == color for v in new):
                if grow(nxt, sums + new + [nxt], color, size + 1):
                    return True
        return False

    return any(grow(v, [v], colors[v - 1], 1) for v in range(1, bound + 1))


def hindman_failure(text: str, code, truth: dict) -> str | None:
    colors, depth = truth["colors"], truth["depth"]
    if code == 1:
        if _monochromatic_witness_exists(colors, depth):
            return "reported no witness, but one exists"
        return None
    head = _line(text, "monochromatic witness (color ")
    if head is None or "):" not in head:
        return "no witness line in the output"
    color_text, _, terms_text = head.partition("):")
    terms = _int_list(terms_text)
    if not color_text.isdigit() or terms is None:
        return f"unreadable witness line {head!r}"
    color = int(color_text)
    sums = fold_sums(terms)
    if len(terms) != depth or terms != sorted(set(terms)):
        return f"witness {terms} is not {depth} increasing terms"
    if max(sums) > len(colors) or any(colors[v - 1] != color for v in sums):
        return f"a finite sum of {terms} leaves [1..{len(colors)}] or color {color}"
    if f"\n{_listing_line('FS', sums)}\n" not in f"\n{text}":
        return "printed finite sums differ from the recomputed ones"
    return None


# -- finite semigroups -------------------------------------------------------------


def semigroup_facts(table: list) -> dict:
    """Idempotents, minimal one-sided ideals and kernel, in O(n^3).

    Every minimal left ideal L equals S^1 a for each a in L, so the minimal
    left ideals are the inclusion-minimal principal left ideals; the same
    holds on the right, and the kernel is their union.
    """
    n = len(table)
    left = {frozenset({a} | {table[s][a] for s in range(n)}) for a in range(n)}
    right = {frozenset({a} | {table[a][s] for s in range(n)}) for a in range(n)}
    min_left = {i for i in left if not any(j < i for j in left)}
    min_right = {i for i in right if not any(j < i for j in right)}
    kernel = frozenset().union(*min_left)
    idempotents = {e for e in range(n) if table[e][e] == e}
    return {
        "order": n,
        "idempotents": idempotents,
        "minimal_left": min_left,
        "minimal_right": min_right,
        "kernel": kernel,
        "kernel_right": frozenset().union(*min_right),
        "minimal_idempotents": idempotents & kernel,
    }


def semigroup_failure(text: str, truth: dict) -> str | None:
    facts = semigroup_facts(truth["table"])
    if facts["kernel"] != facts["kernel_right"]:
        return "generated table has differing left and right kernels"
    printed = {
        "order": _line(text, "order:"),
        "idempotents": _int_list(_line(text, "idempotents:")),
        "minimal_left": _sets(_line(text, "minimal left ideals:")),
        "minimal_right": _sets(_line(text, "minimal right ideals:")),
        "kernel": _sets(_line(text, "kernel K:")),
        "minimal_idempotents": _int_list(_line(text, "minimal idempotents:")),
    }
    if printed["order"] != str(facts["order"]):
        return f"order {printed['order']!r}, expected {facts['order']}"
    for key in ("idempotents", "minimal_idempotents"):
        if printed[key] is None or set(printed[key]) != facts[key]:
            return f"{key} {printed[key]} differ from {sorted(facts[key])}"
    for key in ("minimal_left", "minimal_right"):
        if printed[key] != facts[key]:
            return f"{key} differ from the minimal principal ideals"
    if printed["kernel"] != {facts["kernel"]}:
        return "kernel differs from the union of the minimal left ideals"
    pairs = len(facts["minimal_left"]) * len(facts["minimal_right"])
    # every minimal left ideal meets every minimal right ideal in a group
    if _line(text, "group check:") != f"{pairs} minimal (L,R) pairs, all groups: true":
        return f"group check line {_line(text, 'group check:')!r}, expected {pairs} pairs, all groups"
    formula = _line(text, "product formula:")
    if formula is None or not formula.endswith("all agree: true"):
        return f"product formula line {formula!r}"
    return None


# -- listings ------------------------------------------------------------------------


def listing_failure(stdout_sha: str, family: str, truth: dict) -> str | None:
    """The fs/fp line must list exactly the value set of the generated source."""
    terms = source_terms(truth["source"], {})
    values = fold_sums(terms) if family == "fs" else fold_products(terms)
    with _NoDigitLimit():
        expected = _listing_line(family.upper(), values) + "\n"
    if sha256_text(expected) != stdout_sha:
        return f"{family} listing differs from the {len(values)} recomputed values"
    return None


def is_digit_limit_error(detail: str) -> bool:
    """The ValueError Python raises when an int has too many digits for str()."""
    return detail.startswith("ValueError") and "limit" in detail and "digits" in detail


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
