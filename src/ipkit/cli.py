"""Command-line front end: every capability as a reproducible subcommand.

Exit codes: 0 found/verified/valid, 1 exhausted/none/no-refutation/invalid
certificate, 2 input or domain error, 3 node limit reached.

Sequence sources: ``nat:N`` (1..N), ``pow:b:N`` (b, b^2, ..., b^N),
``fib:N`` (1, 1, 2, 3, ...), ``file:PATH`` (one integer per line).
"""

from __future__ import annotations

import argparse
import sys

from .certificates import (
    KIND_REFUTATION,
    KIND_SEMIGROUP,
    budget_from_document,
    certificate_from_document,
    digit_limit_lifted,
    hindman_document,
    load_document,
    make_document,
    search_document,
    witness_document,
    write_document,
)
from .errors import DomainBoundError, InputError, RefusalError, StructuralError, shown
from .fsfp import ascending_products, ascending_sums, ascending_union
from .search import (
    DEFAULT_MAX_BLOCK,
    DEFAULT_NODE_LIMIT,
    OutcomeKind,
    SearchBudget,
    _refold_check,
    budget_failure,
    search_subsystem,
)
from .setspec import dilation_preimage, parse_spec, render_spec

EXIT_FOUND = 0
EXIT_ABSENT = 1
EXIT_ERROR = 2
EXIT_NODE_LIMIT = 3


def __getattr__(name: str):
    # ``bench/replay.py`` still reads ``_product_formula_sweep`` here; ROADMAP
    # item 2 deletes this re-export.  The semigroup layer loads only on that read.
    if name == "_product_formula_sweep":
        from .semigroup import _product_formula_sweep

        return _product_formula_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int_field(text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {shown(text)}") from None


def _read_text(path: str) -> str:
    """The whole of a UTF-8 input file; other bytes are an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{shown(path)} is not UTF-8 text: byte {exc.start}: {exc.reason}") from None


def parse_sequence_source(source: str, limit: int | None = None) -> tuple[int, ...]:
    """Resolve nat:N, pow:b:N, fib:N, or file:PATH to a concrete sequence.

    With ``limit``, nat, pow and fib build at most their first ``limit``
    terms, so a search window costs what it reads, not N; a file is read
    whole.  A window past N still meets N terms, and is refused as before.
    """
    kind, _, rest = source.partition(":")
    if kind == "nat":
        n = _int_field(rest, "nat count")
        if n < 1:
            raise InputError(f"nat count must be >= 1, got {shown(n)}")
        return tuple(range(1, _built(n, limit) + 1))
    if kind == "pow":
        base_text, _, count_text = rest.partition(":")
        base = _int_field(base_text, "pow base")
        n = _int_field(count_text, "pow count")
        if base < 1 or n < 1:
            raise InputError(f"pow base and count must be >= 1, got {shown(base)}, {shown(n)}")
        return tuple(base**k for k in range(1, _built(n, limit) + 1))
    if kind == "fib":
        n = _int_field(rest, "fib count")
        if n < 1:
            raise InputError(f"fib count must be >= 1, got {shown(n)}")
        n = _built(n, limit)
        terms = [1, 1]
        while len(terms) < n:
            terms.append(terms[-1] + terms[-2])
        return tuple(terms[:n])
    if kind == "file":
        if not rest:
            raise InputError("file source needs a path: file:PATH")
        values = []
        for lineno, line in enumerate(_read_text(rest).splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(_int_field(line, f"sequence file line {lineno}"))
        if not values:
            raise InputError(f"sequence file {shown(rest)} holds no values")
        return tuple(values)
    raise InputError(
        f"unknown sequence source {shown(source)}; use nat:N, pow:b:N, fib:N, or file:PATH"
    )


def _built(n: int, limit: int | None) -> int:
    """How many of a generated source's ``n`` terms to build under ``limit``."""
    return n if limit is None else min(n, limit)


def _print_values(label: str, ordered: list | tuple, rendered: bool = False) -> None:
    # rendered a slice at a time, the last, largest value first: one past the
    # int->str digit limit raises before anything is printed.  With
    # ``rendered``, ``ordered`` holds decimals already, joined as they are
    last = str(ordered[-1]) if ordered else ""
    sys.stdout.write(f"{label} ({len(ordered)} values): ")
    body = len(ordered) - 1
    for start in range(0, body, 4096):
        chunk = ordered[start : min(start + 4096, body)]
        sys.stdout.write(" ".join(chunk if rendered else map(str, chunk)) + " ")
    print(last)


def _cmd_fold(args) -> int:
    fold = ascending_sums if args.command == "fs" else ascending_products
    _print_values(args.command.upper(), fold(parse_sequence_source(args.seq)))
    return EXIT_FOUND


def _cmd_search(args) -> int:
    seq = parse_sequence_source(args.seq, args.window)
    target = parse_spec(args.spec)
    window = len(seq) if args.window is None else args.window
    budget = SearchBudget(
        depth=args.depth,
        window=window,
        max_block=args.max_block,
        node_limit=args.node_limit,
    )
    spec_text = render_spec(target)
    if args.verbose:
        print(f"spec: {spec_text}")
        print(
            f"budget: depth {budget.depth}, window {budget.window}, "
            f"max block {budget.max_block}, node limit {budget.node_limit}"
        )
    outcome = search_subsystem(seq, target, budget)
    print(f"outcome: {outcome.kind.value}")
    print(f"nodes: {outcome.nodes}")
    cert = outcome.certificate
    # a found search is rendered once, by its document, past the int->str digit
    # limit (the fs and fp subcommands keep it); the file is written under --json
    doc = None
    if cert is not None or args.json:
        doc = search_document(outcome, budget, spec_text, seq[: budget.window])
    if cert is not None:
        for i, (block, y) in enumerate(zip(cert.blocks, doc["ys"]), start=1):
            print(f"H{i} = {{{','.join(map(str, block))}}}  y{i} = {y}")
        # FP above all of FS is listed by its document's decimals, the rest rendered here
        head, k = ascending_union(cert.fs, cert.fp)
        with digit_limit_lifted():
            listing = [*map(str, head), *doc["fp"][k:]]
        _print_values("FS u FP", listing, rendered=True)
        print("verified: true")
    elif outcome.kind is OutcomeKind.EXHAUSTED:
        print("no block system within the budget satisfies the spec")
    else:
        print("stopped at the node limit; nothing is claimed")
    if args.json:
        write_document(args.json, doc)
        print(f"certificate written to {args.json}")
    if outcome.kind is OutcomeKind.FOUND:
        return EXIT_FOUND
    if outcome.kind is OutcomeKind.NODE_LIMIT:
        return EXIT_NODE_LIMIT
    return EXIT_ABSENT


def _cmd_verify(args) -> int:
    doc = load_document(args.cert)
    cert = certificate_from_document(doc)
    budget, nodes = budget_from_document(doc)
    failure, fs, fp = _refold_check(cert)
    failure = failure or budget_failure(cert, budget, nodes)
    if failure is None:
        # counted from the refolds, which the recorded arrays list as value sets
        head, k = ascending_union(fs, fp)
        print(
            f"certificate verifies: {len(cert.ys)} blocks, "
            f"{len(head) + len(fp) - k} FS u FP values inside {cert.spec_text}"
        )
        return EXIT_FOUND
    print(f"certificate does not verify: {failure}")
    return EXIT_ABSENT


def _cmd_refute(args) -> int:
    from .partition import ip_star_refute

    target = parse_spec(args.spec)
    spec_text = render_spec(target)
    witness = ip_star_refute(target, args.depth, args.bound)
    if args.json:
        doc = witness_document(KIND_REFUTATION, witness, spec_text, args.depth, args.bound)
        write_document(args.json, doc)
    if witness is None:
        print(f"no refutation within (k={args.depth}, N={args.bound})")
        return EXIT_ABSENT
    print(f"refutation witness: {' '.join(str(t) for t in witness.terms)}")
    _print_values("FS", sorted(witness.fs))
    print(f"every value above avoids: {spec_text}")
    return EXIT_FOUND


def _cmd_hindman(args) -> int:
    from .partition import hindman_finite, parse_coloring

    coloring = parse_coloring(_read_text(args.coloring))
    result = hindman_finite(coloring, args.depth)
    if args.json:
        doc = hindman_document(result, args.depth, coloring.bound, coloring.palette)
        write_document(args.json, doc)
    if result is None:
        print(
            f"no monochromatic witness of depth {args.depth} "
            f"with all sums inside [1..{coloring.bound}]"
        )
        return EXIT_ABSENT
    color, witness = result
    print(f"monochromatic witness (color {color}): {' '.join(str(t) for t in witness.terms)}")
    _print_values("FS", sorted(witness.fs))
    return EXIT_FOUND


def _format_sets(sets) -> str:
    return " ".join("{" + ",".join(str(v) for v in sorted(s)) + "}" for s in sets)


def _cmd_semigroup(args) -> int:
    from .semigroup import (
        _product_formula_sweep,
        group_check,
        ideal_structure,
        idempotent_order,
        idempotents,
        parse_table,
    )

    sg = parse_table(_read_text(args.table))
    ids = idempotents(sg)
    print(f"order: {sg.order}")
    print(f"idempotents: {' '.join(str(e) for e in sorted(ids))}")
    payload = {
        "order": sg.order,
        "idempotents": sorted(ids),
        "report": args.report,
    }
    if args.report == "full":
        structure = ideal_structure(sg, args.order_cap)
        print(f"minimal left ideals: {_format_sets(structure.minimal_left)}")
        print(f"minimal right ideals: {_format_sets(structure.minimal_right)}")
        print(f"kernel K: {{{','.join(str(v) for v in sorted(structure.kernel))}}}")
        order_info = idempotent_order(sg, args.order_cap, structure.kernel)
        print(f"minimal idempotents: {' '.join(str(e) for e in sorted(order_info.minimal))}")
        pairs = 0
        all_groups = True
        for left in structure.minimal_left:
            for right in structure.minimal_right:
                pairs += 1
                if not group_check(sg, left, right):
                    all_groups = False
        print(f"group check: {pairs} minimal (L,R) pairs, all groups: {str(all_groups).lower()}")
        checked, exhaustive, agree = _product_formula_sweep(sg)
        scope = "exhaustive" if exhaustive else "sampled"
        print(f"product formula: {checked} (p,q,A) cases ({scope}), all agree: {str(agree).lower()}")
        payload.update(
            {
                "minimal_left": [sorted(s) for s in structure.minimal_left],
                "minimal_right": [sorted(s) for s in structure.minimal_right],
                "kernel": sorted(structure.kernel),
                "minimal_idempotents": sorted(order_info.minimal),
                "group_check": {"pairs": pairs, "all_groups": all_groups},
                "product_formula": {
                    "checked": checked,
                    "exhaustive": exhaustive,
                    "all_agree": agree,
                },
            }
        )
    if args.json:
        write_document(args.json, make_document(KIND_SEMIGROUP, payload))
    return EXIT_FOUND


def _cmd_dilate(args) -> int:
    spec = parse_spec(args.spec)
    print(render_spec(dilation_preimage(spec, args.n)))
    return EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipkit",
        description="Finite-depth search for sum subsystems, FS witnesses, and finite-semigroup structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq_help = "sequence source: nat:N, pow:b:N, fib:N, or file:PATH"

    for name, what in (("fs", "sums"), ("fp", "products")):
        p = sub.add_parser(name, help=f"finite {what} of a sequence")
        p.add_argument("--seq", required=True, help=seq_help)
        p.set_defaults(func=_cmd_fold)

    p = sub.add_parser(
        "search", help="search for a sum subsystem whose FS u FP stays inside a spec"
    )
    p.add_argument("--seq", required=True, help=seq_help)
    p.add_argument("--spec", required=True, help="target set expression, e.g. 'mod(6,0)'")
    p.add_argument("--depth", required=True, type=int, help="number of blocks")
    p.add_argument("--window", type=int, default=None, help="index window (default: whole sequence)")
    p.add_argument("--max-block", type=int, default=DEFAULT_MAX_BLOCK, help="largest block size")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT, help="candidate-block budget")
    p.add_argument("--json", metavar="PATH", help="write the certificate document here")
    p.add_argument("--verbose", action="store_true", help="echo spec and budget")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="re-check a certificate document from scratch")
    p.add_argument("--cert", required=True, help="certificate JSON path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "refute",
        help="look for an FS witness inside the complement of a spec (IP* refutation)",
    )
    p.add_argument("--spec", required=True, help="the set whose IP* claim is under attack")
    p.add_argument("--depth", required=True, type=int, help="witness depth k")
    p.add_argument("--bound", required=True, type=int, help="witness terms drawn from [1..N]")
    p.add_argument("--json", metavar="PATH", help="write the refutation document here")
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser(
        "hindman",
        help="search a coloring for a monochromatic FS witness; terms and all "
        "their finite sums must stay inside the colored window [1..N]",
    )
    p.add_argument("--coloring", required=True, help="coloring file: one 'value color' per line")
    p.add_argument("--depth", required=True, type=int, help="witness depth k")
    p.add_argument("--json", metavar="PATH", help="write the witness document here")
    p.set_defaults(func=_cmd_hindman)

    p = sub.add_parser("semigroup", help="structural report on a finite Cayley table")
    p.add_argument("--table", required=True, help="table file: first line n, then n rows")
    p.add_argument("--report", choices=("basic", "full"), default="basic")
    p.add_argument(
        "--order-cap",
        type=int,
        default=None,
        help="ideal-enumeration order cap (default 12)",
    )
    p.add_argument("--json", metavar="PATH", help="write the report document here")
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("dilate", help="rewrite a spec to its dilation preimage")
    p.add_argument("--spec", required=True, help="set expression for A")
    p.add_argument("--n", required=True, type=int, help="dilation factor")
    p.set_defaults(func=_cmd_dilate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, StructuralError, DomainBoundError, RefusalError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            # str(exc) would echo a path argument of any length whole
            message = f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
