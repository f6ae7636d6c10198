"""Each CLI job replayed as direct calls into ipkit's public functions.

The traced run times these calls from outside the package: a span is kept
around every call into a layer (name "<module>.<call>", start and end in
ns, parent span, job id).  Nothing inside ``src/ipkit`` is instrumented.

``replay_job`` repeats only the calls the CLI itself makes for the job.
``repeat_search_calls`` then repeats calls that ``search_subsystem`` makes
inside its one span: the stages of one path (enumeration, constraint
compilation and refinement, membership queries, FS/FP extension) and the
self-verification of a found certificate.  Each repeated call is one the
search itself made on the same arguments, so their times give the
per-stage costs the search hides, and a share of its time.
"""

from __future__ import annotations

import dataclasses
import time

from ipkit import (
    FsFpState,
    SearchBudget,
    SetSpec,
    dilation_preimage,
    extend_state,
    finite_products,
    finite_sums,
    group_check,
    hindman_finite,
    idempotent_order,
    idempotents,
    ideal_structure,
    ip_star_refute,
    parse_coloring,
    parse_spec,
    parse_table,
    render_spec,
    search_subsystem,
    shift_preimage,
    verification_failure,
)
from ipkit.certificates import (
    certificate_from_document,
    dumps_document,
    load_document,
    search_document,
)
from ipkit.cli import _product_formula_sweep
from ipkit.search import iter_blocks
from ipkit.setspec import intersect_all

from workloads import SEARCH_FAMILIES, render, source_terms

VERIFY_FAMILIES = ("verify", "tampered")


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, job id, attrs]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.job: str | None = None
        self._stack: list = []
        self._last = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.job, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self._last = self._stack.pop()

    def note(self, **attrs):
        """Attach counts to the most recently closed span."""
        if self.enabled:
            self.spans[self._last][5].update(attrs)


def job_terms(job) -> tuple:
    return source_terms(job.truth["source"], job.files)


def _budget(job) -> SearchBudget:
    argv = job.argv
    value = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    t = job.truth
    return SearchBudget(depth=int(value["--depth"]), window=t["window"],
                        max_block=t["max_block"], node_limit=int(value["--node-limit"]))


def _dump(outcome, budget, spec, terms) -> str:
    return dumps_document(search_document(outcome, budget, render_spec(spec), terms[: budget.window]))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    return certificate_from_document(load_document(path))


def _hindman(text: str, depth: int):
    return hindman_finite(parse_coloring(text), depth)


def _group_checks(sg, structure) -> list:
    return [group_check(sg, left, right)
            for left in structure.minimal_left for right in structure.minimal_right]


def replay_job(job, work: str, tr: Tracer) -> dict:
    """Make the CLI's own layer calls for ``job``; returns what they decided."""
    t, fam = job.truth, job.family
    if fam in SEARCH_FAMILIES:
        terms = job_terms(job)
        spec = tr.call("setspec.parse", parse_spec, render(t["spec"]))
        budget = _budget(job)
        outcome = tr.call("search.search_subsystem", search_subsystem, terms, spec, budget)
        tr.note(nodes=outcome.nodes)
        if fam == "found":
            text = tr.call("certificates.dump", _dump, outcome, budget, spec, terms)
            tr.call("certificates.write", _write, f"{work}/replay_{job.id}.json", text)
            tr.note(bytes=len(text.encode()))
        return {"exit": {"found": 0, "exhausted": 1, "node-limit": 3}[outcome.kind.value],
                "nodes": outcome.nodes, "outcome": outcome}
    if fam in VERIFY_FAMILIES:
        cert = tr.call("certificates.load", _load, f"{work}/{t['doc']}")
        failure = tr.call("search.verify", verification_failure, cert)
        return {"exit": 0 if failure is None else 1}
    if fam == "refute":
        spec = tr.call("setspec.parse", parse_spec, render(("mod", t["m"], 0)))
        witness = tr.call("partition.refute", ip_star_refute, spec, t["depth"], t["bound"])
        return {"exit": 0 if witness is not None else 1}
    if fam == "hindman":
        text = _read(job.resolved_argv(work)[2])
        result = tr.call("partition.hindman", _hindman, text, t["depth"])
        return {"exit": 0 if result is not None else 1}
    if fam == "semigroup":
        text = _read(job.resolved_argv(work)[2])
        cap = len(t["table"])
        sg = tr.call("semigroup.validate", parse_table, text)
        tr.call("semigroup.idempotents", idempotents, sg)
        structure = tr.call("semigroup.ideals", ideal_structure, sg, cap)
        tr.call("semigroup.order", idempotent_order, sg, cap)
        tr.call("semigroup.groups", _group_checks, sg, structure)
        tr.call("semigroup.formula", _product_formula_sweep, sg)
        return {"exit": 0}
    if fam in ("fs", "fp"):
        fold = finite_sums if fam == "fs" else finite_products
        values = tr.call("fsfp.list", fold, job_terms(job))
        tr.note(values=len(values))
        return {"exit": 0}
    raise ValueError(f"no replay for job family {fam!r}")


# -- search stage probe ------------------------------------------------------------


def tree_size(spec, _sizes=None) -> int:
    """Number of nodes in a set-expression tree, a shared subtree counted at each use."""
    sizes = {} if _sizes is None else _sizes
    if id(spec) in sizes:
        return sizes[id(spec)]
    size = 1
    for f in dataclasses.fields(spec) if dataclasses.is_dataclass(spec) else ():
        value = getattr(spec, f.name)
        children = value if isinstance(value, tuple) else (value,)
        size += sum(tree_size(c, sizes) for c in children if isinstance(c, SetSpec))
    sizes[id(spec)] = size
    return size


def _stage_length(pred, terms, lo: int, window: int, max_block: int, last, limit: int) -> int:
    """Candidates the search enumerates at a stage of the probed path: up to the
    path's block ``last`` or, without it, up to the first admissible one; at
    most ``limit``.  Untimed, so the timed calls cover exactly these."""
    n = 0
    for block in iter_blocks(lo, window, max_block):
        if n == limit:
            break
        n += 1
        if block == last if last is not None else pred(sum(terms[i - 1] for i in block)):
            break
    return n


def _candidates(terms, lo: int, window: int, max_block: int, n: int) -> list:
    """The first ``n`` candidate blocks from ``lo`` in the search's order, with their sums."""
    out = []
    for block in iter_blocks(lo, window, max_block):
        if len(out) == n:
            break
        out.append((block, sum(terms[i - 1] for i in block)))
    return out


def _first_admissible(pred, sums):
    """Index of the first admissible sum, or None; the search stops there too."""
    for i, v in enumerate(sums):
        if pred(v):
            return i
    return None


def _refine(constraint, old: FsFpState, new: FsFpState, target):
    """The search's incremental stage refinement, through the public preimages."""
    parts = [constraint]
    parts.extend(shift_preimage(target, t) for t in sorted(new.fs - old.fs))
    parts.extend(dilation_preimage(target, s) for s in sorted(new.fp - old.fp))
    return intersect_all(parts)


def probe_search(job, tr: Tracer, nodes: int, blocks=None) -> dict:
    """Walk the search's stages along ``blocks`` (a found certificate) or, without
    them, along the leftmost admissible path the depth-first search tries first.

    Both paths are stages the search itself went through, and at most
    ``nodes`` (the search's node count) candidates are enumerated, so every
    timed call repeats one the search made.  Returns the deterministic
    counts: stages walked, summed constraint tree sizes, and |FS| + |FP| of
    the last state.
    """
    terms = job_terms(job)
    budget = _budget(job)
    target = parse_spec(render(job.truth["spec"]))
    state = FsFpState((), frozenset(), frozenset())
    constraint, lo, left = target, 1, nodes
    stages = constraint_nodes = 0
    for stage in range(budget.depth):
        last = tuple(blocks[stage]) if blocks is not None else None
        pred = tr.call("setspec.compile", constraint.predicate)
        n = _stage_length(pred, terms, lo, budget.window, budget.max_block, last, left)
        candidates = tr.call("search.enum", _candidates, terms, lo, budget.window, budget.max_block, n)
        tr.note(count=n)
        first = tr.call("setspec.member", _first_admissible, pred, [y for _, y in candidates])
        tr.note(count=n if first is None else first + 1)
        constraint_nodes += tree_size(constraint)
        stages += 1
        left -= n
        if last is not None:
            block, y = last, sum(terms[i - 1] for i in last)
        elif first is None:
            break
        else:
            block, y = candidates[first]
        new_state = tr.call("fsfp.extend", extend_state, state, y)
        if stage + 1 < budget.depth:
            constraint = tr.call("setspec.refine", _refine, constraint, state, new_state, target)
        state, lo = new_state, block[-1] + 1
        if lo > budget.window or left <= 0:
            break
    return {"stages": stages, "constraint_nodes": constraint_nodes,
            "values": len(state.fs) + len(state.fp)}


def repeat_search_calls(job, tr: Tracer, nodes: int, blocks=None, certificate=None) -> dict:
    """The stage probe, then the self-verification a found search runs on its certificate."""
    counts = probe_search(job, tr, nodes, blocks)
    if certificate is not None:
        tr.call("search.verify", verification_failure, certificate)
    return counts
