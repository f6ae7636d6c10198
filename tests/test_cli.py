"""CLI subcommands, exit codes, and document output, driven through main(argv)."""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fp_oracle, fs_oracle
from ipkit import certificates, cli
from ipkit.certificates import (
    certificate_from_document,
    comparable_form,
    load_document,
    search_document,
)
from ipkit.cli import main, parse_sequence_source
from ipkit.errors import InputError
from ipkit.fsfp import ascending_products, ascending_sums
from ipkit.search import DEFAULT_MAX_BLOCK, SearchBudget, search_subsystem, verification_failure
from ipkit.setspec import parse_spec, render_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sequence_sources(tmp_path):
    assert parse_sequence_source("nat:5") == (1, 2, 3, 4, 5)
    assert parse_sequence_source("pow:2:4") == (2, 4, 8, 16)
    assert parse_sequence_source("fib:1") == (1,)
    assert parse_sequence_source("fib:6") == (1, 1, 2, 3, 5, 8)
    path = tmp_path / "seq.txt"
    path.write_text("# sample\n3\n1\n4\n")
    assert parse_sequence_source(f"file:{path}") == (3, 1, 4)
    for bad in ("nat:0", "nat:x", "pow:0:3", "moon:9", "file:", "fib:"):
        with pytest.raises(InputError):
            parse_sequence_source(bad)


def test_parse_sequence_source_builds_at_most_its_limit(tmp_path):
    assert parse_sequence_source("nat:5", 3) == (1, 2, 3)
    assert parse_sequence_source("nat:5", 9) == (1, 2, 3, 4, 5)
    assert parse_sequence_source("pow:2:4", 2) == (2, 4)
    assert parse_sequence_source("fib:6", 1) == (1,)
    assert parse_sequence_source("fib:6", 4) == (1, 1, 2, 3)
    path = tmp_path / "seq.txt"
    path.write_text("3\n1\n4\n")
    assert parse_sequence_source(f"file:{path}", 2) == (3, 1, 4)
    for bad in ("nat:0", "pow:0:3", "fib:x"):
        with pytest.raises(InputError):
            parse_sequence_source(bad, 2)


def _limited_cli(argv, max_bytes):
    """``python -m ipkit`` with its address space capped at ``max_bytes``."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    return subprocess.run(
        [sys.executable, "-m", "ipkit", *argv], capture_output=True, text=True,
        preexec_fn=cap, timeout=60,
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_search_window_builds_only_the_window_of_a_generated_source(tmp_path):
    """Each source holds 10^8 terms, about 3.6 GB as a tuple of ints, and the
    search reads 3 of them: under a 512 MB address space it prints and writes
    what the 3-term source does, where building them all dies of MemoryError.
    The documents are compared byte for byte, but for their timestamps."""
    stamp = re.compile(rb'"created_at": "[^"]*"')
    for kind in ("nat:", "fib:", "pow:3:"):
        runs = []
        for n in (99_999_999, 3):
            doc = tmp_path / f"{kind.replace(':', '')}{n}.json"
            argv = ["search", "--seq", f"{kind}{n}", "--spec", "mod(2,0)", "--depth", "1",
                    "--window", "3", "--json", str(doc)]
            proc = _limited_cli(argv, 512 << 20)
            assert (proc.returncode, proc.stderr) == (0, ""), (kind, n, proc.stderr[-300:])
            runs.append((proc.stdout.replace(str(doc), "DOC"), stamp.sub(b"", doc.read_bytes())))
        assert runs[0] == runs[1], kind
    proc = _limited_cli(["search", "--seq", "nat:2", "--spec", "mod(2,0)", "--depth", "1",
                         "--window", "3"], 512 << 20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: budget window 3 exceeds sequence length 2\n"


def test_fs_fp_output(capsys):
    code, out, _ = run(capsys, "fs", "--seq", "nat:3")
    assert code == 0
    assert "FS (6 values): 1 2 3 4 5 6" in out
    code, out, _ = run(capsys, "fp", "--seq", "nat:3")
    assert code == 0
    assert "FP (4 values): 1 2 3 6" in out


@pytest.mark.parametrize(
    "argv",
    [("fs", "--seq", "nat:100"), ("fp", "--seq", "nat:18"),
     ("fs", "--seq", "pow:2:13"), ("fp", "--seq", "pow:3:91")],
)
def test_fs_fp_listings_have_the_bytes_of_the_one_shot_render(capsys, argv):
    """Listings of several 4,096-value slices print the line rendered whole."""
    code, out, err = run(capsys, *argv)
    fold = ascending_sums if argv[0] == "fs" else ascending_products
    values = fold(parse_sequence_source(argv[2]))
    assert len(values) > 4097
    line = f"{argv[0].upper()} ({len(values)} values): {' '.join(map(str, values))}\n"
    assert (code, out, err) == (0, line, "")


def test_listing_slices_join_to_the_one_shot_render(capsys):
    for n in (0, 1, 2, 4095, 4096, 4097, 4098, 8193, 9000):
        values = range(10**12, 10**12 + n)
        line = f"FS u FP ({n} values): {' '.join(map(str, values))}\n"
        cli._print_values("FS u FP", values)
        assert capsys.readouterr().out == line, n
        cli._print_values("FS u FP", list(map(str, values)), rendered=True)
        assert capsys.readouterr().out == line, n


def test_listing_past_the_digit_limit_prints_nothing(capsys):
    """The largest value is rendered first, so the digit limit's ValueError
    comes before any byte of the listing."""
    with pytest.raises(ValueError):
        cli._print_values("FS", list(range(1, 9000)) + [10**4300])
    with pytest.raises(ValueError):
        main(["fp", "--seq", "pow:10:100"])
    assert capsys.readouterr() == ("", "")


def test_search_found_exit_zero(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, out, _ = run(
        capsys, "search", "--seq", "nat:64", "--spec", "mod(6,0)",
        "--depth", "3", "--window", "64", "--json", str(path),
    )
    assert code == 0
    assert "outcome: found" in out
    assert "H1 = {1,2,3}  y1 = 6" in out
    assert "verified: true" in out
    assert path.exists()


def test_search_exhausted_exit_one(capsys):
    code, out, _ = run(capsys, "search", "--seq", "nat:8", "--spec", "none", "--depth", "1")
    assert code == 1
    assert "outcome: exhausted" in out


def test_search_node_limit_exit_three(capsys):
    code, out, _ = run(
        capsys, "search", "--seq", "nat:20", "--spec", "mod(1000,999)",
        "--depth", "3", "--node-limit", "5",
    )
    assert code == 3
    assert "outcome: node-limit" in out
    assert "nothing is claimed" in out


def test_search_bad_spec_exit_two(capsys):
    code, _, err = run(capsys, "search", "--seq", "nat:8", "--spec", "mod(6,", "--depth", "1")
    assert code == 2
    assert err.startswith("error:")


def test_search_verbose_echoes_budget(capsys):
    code, out, _ = run(
        capsys, "search", "--seq", "nat:8", "--spec", "all", "--depth", "1", "--verbose"
    )
    assert code == 0
    assert "budget: depth 1, window 8" in out


def test_search_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "search", "--seq", "nat:32", "--spec", "mod(6,0)",
        "--depth", "2", "--json", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0
    assert "certificate verifies" in out


def test_verify_tampered_exit_one(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "search", "--seq", "nat:32", "--spec", "mod(6,0)", "--depth", "2",
        "--json", str(path))
    doc = json.loads(path.read_text())
    doc["ys"] = ["6", "7"]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 1
    assert "does not verify" in out


def test_search_depth_past_verify_cap_exit_two(capsys):
    code, _, err = run(
        capsys, "search", "--seq", "nat:60", "--spec", "mod(1,0)",
        "--depth", "23", "--max-block", "1",
    )
    assert code == 2
    assert "verification cap 22" in err


def test_verify_checks_budget(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "search", "--seq", "nat:32", "--spec", "mod(6,0)", "--depth", "2",
        "--json", str(path))
    doc = json.loads(path.read_text())
    assert doc["blocks"][0] == [1, 2, 3]
    broken = [
        {"budget": {**doc["budget"], "max_block": 1, "depth": 99}, "nodes": -5},
        {"budget": {**doc["budget"], "depth": 3}},
        {"budget": {**doc["budget"], "max_block": 2}},
        {"budget": {**doc["budget"], "window": 5}},
        {"nodes": 1},
        {"nodes": doc["budget"]["node_limit"] + 1},
    ]
    for change in broken:
        path.write_text(json.dumps({**doc, **change}))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert (code, out.split(":")[0]) == (1, "certificate does not verify"), change
    malformed = [{"budget": {"depth": 2}}, {"budget": {**doc["budget"], "window": 0}},
                 {"nodes": "7"}, {"x": [" +1"] + doc["x"][1:]}]
    for change in malformed:
        path.write_text(json.dumps({**doc, **change}))
        code, _, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and "error:" in err, change


def test_verify_membership_tamper_prints_element(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "search", "--seq", "nat:32", "--spec", "mod(6,0)", "--depth", "2",
        "--json", str(path))
    doc = json.loads(path.read_text())
    doc["spec"] = "mod(12,0)"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 1
    assert "element 6" in out


def test_verify_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--cert", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


def test_verify_hostile_documents_exit_two(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "search", "--seq", "nat:32", "--spec", "mod(6,0)", "--depth", "2",
        "--json", str(path))
    doc = json.loads(path.read_text())
    deep_spec = "not(" * 1000 + "mod(6,0)" + ")" * 1000
    for field, value in (("x", 7), ("blocks", 5), ("fs", 3), ("x", "123"), ("spec", deep_spec),
                         ("spec", f"mod({'6' * 4301},0)"), ("spec", "mod(\u00b2,0)")):
        path.write_text(json.dumps({**doc, field: value}))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert (code, out, err.startswith("error:")) == (2, "", True), field
    for field in ("x", "spec", "budget"):
        text = json.dumps({**doc, field: "@"}).replace('"@"', "[" * 100_000 + "]" * 100_000)
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert (code, out, err.startswith("error:")) == (2, "", True), field
    # a 1,000-deep array or a 100,000-character string is never echoed whole
    hostile = ("[" * 1000 + "]" * 1000, json.dumps("z" * 100_000))
    fields = [(f, None) for f in sorted(set(doc) - {"created_at", "verified"})]
    for where, value in fields + [("budget", f) for f in sorted(doc["budget"])]:
        for text in hostile:
            hostile_doc = {**doc, where: "@"} if value is None else {
                **doc, where: {**doc[where], value: "@"}}
            path.write_text(json.dumps(hostile_doc).replace('"@"', text))
            code, out, err = run(capsys, "verify", "--cert", str(path))
            assert (code, out) == (2, ""), (where, value)
            assert err.startswith("error:") and err.count("\n") == 1, (where, value)
            assert len(err) < 200, (where, value, err[:300])


@pytest.mark.parametrize(
    "seq, spec, depth, window, max_block, fs_only",
    [
        ("nat:3", "all", 2, None, 1, "after"),
        ("nat:40", "mod(2,0)", 4, None, DEFAULT_MAX_BLOCK, "between"),
        ("nat:320", "and(mod(6,0),geq(3))", 18, 300, DEFAULT_MAX_BLOCK, "between"),
    ],
)
def test_search_listing_and_document_match_the_old_renderer(
    capsys, monkeypatch, tmp_path, seq, spec, depth, window, max_block, fs_only
):
    """The FS u FP line, merged from the document's sorted fs and fp arrays,
    equals the union set sorted and rendered whole, and the document equals
    the one ``search_document`` builds from the four-argument call.  The
    document is rendered once: its four value arrays are the only decimal
    conversions ``certificates`` makes."""
    rendered = []
    decimals = certificates._decimals
    monkeypatch.setattr(certificates, "_decimals", lambda v: rendered.append(decimals(v)) or rendered[-1])
    path = tmp_path / "cert.json"
    argv = ["search", "--seq", seq, "--spec", spec, "--depth", str(depth),
            "--max-block", str(max_block), "--json", str(path)]
    code, out, err = run(capsys, *argv + (["--window", str(window)] if window else []))
    assert (code, err) == (0, "")
    doc = load_document(path)
    assert rendered == [doc[field] for field in ("x", "ys", "fs", "fp")]
    x = parse_sequence_source(seq)
    budget = SearchBudget(depth=depth, window=window or len(x), max_block=max_block)
    target = parse_spec(spec)
    outcome = search_subsystem(x, target, budget)
    fs, fp = outcome.certificate.fs, outcome.certificate.fp
    assert fs == tuple(sorted(set(fs))) and fp == tuple(sorted(set(fp)))
    only = set(fs) - set(fp)
    if fs_only == "after":
        assert only and min(only) > max(fp)
    else:
        assert any(min(fp) < v < max(fp) for v in only)
    listing = [line for line in out.splitlines() if line.startswith("FS u FP")]
    union = sorted({*fs, *fp})
    assert listing == [f"FS u FP ({len(union)} values): " + " ".join(map(str, union))]
    expected = search_document(outcome, budget, render_spec(target), x[: budget.window])
    assert comparable_form(doc) == comparable_form(expected)


def test_search_output_past_int_str_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "cert.json"
    code, out, err = run(capsys, "search", "--seq", "pow:10:4301", "--spec", f"geq({'9' * 4300})",
                         "--depth", "1", "--max-block", "1", "--json", str(path))
    assert (code, err) == (0, "")
    big = "1" + "0" * 4300
    assert f"H1 = {{4300}}  y1 = {big}\n" in out
    assert f"FS u FP (1 values): {big}\n" in out
    doc = json.loads(path.read_text())
    assert doc["ys"] == doc["fs"] == doc["fp"] == [big] and doc["x"][-1] == big
    # the reader keeps the limit: such decimals are refused with one short error line
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    assert len(err) < 200
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        str(10**limit)


def test_deeply_nested_spec_exit_two(capsys):
    hostile = (
        ("not(" * 1000 + "mod(6,0)" + ")" * 1000, "deeper than 100 levels"),
        # a literal past the int->str digit limit, and a digit that is not ASCII
        (f"mod({'9' * 4301},0)", "literal of 4301 digits exceeds the digit limit (at position 4)"),
        ("mod(\u00b2,0)", "expected an integer (at position 4)"),
        ("bits(1 \u0663; 9)", "expected ';' (at position 7)"),
    )
    for spec, message in hostile:
        for argv in (
            ("dilate", "--spec", spec, "--n", "2"),
            ("search", "--seq", "nat:8", "--spec", spec, "--depth", "1"),
            ("refute", "--spec", spec, "--depth", "2", "--bound", "10"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv[0], message)
            assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200
            assert message in err, (argv[0], err)


SEARCH_FIELDS = ("blocks", "budget", "created_at", "format_version", "fp", "fs", "kind",
                 "nodes", "outcome", "spec", "verified", "x", "ys")
DROP = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def found_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    with redirect_stdout(io.StringIO()):
        assert main(["search", "--seq", "nat:32", "--spec", "mod(6,0)", "--depth", "2",
                     "--json", str(path)]) == 0
    return path, json.loads(path.read_text())


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(SEARCH_FIELDS),
    value=st.one_of(
        st.integers(), st.text(), st.none(), st.booleans(), st.just(DROP),
        st.lists(json_values, max_size=4),
        st.dictionaries(st.text(max_size=6), json_values, max_size=3),
    ),
)
def test_verify_fuzzed_documents_keep_the_exit_contract(found_document, field, value):
    path, doc = found_document
    assert sorted(doc) == list(SEARCH_FIELDS)
    mutated = {k: v for k, v in doc.items() if k != field}
    if value is not DROP:
        mutated[field] = value
    path.write_text(json.dumps(mutated))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--cert", str(path)])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error:")


BUDGET_FIELDS = ("depth", "max_block", "node_limit", "window")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_fuzzed_budgets_keep_the_exit_contract(found_document, data):
    """A budget is refused (exit 2) exactly when it is not four integer fields >= 1."""
    path, doc = found_document
    budget = dict(doc["budget"])
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from(BUDGET_FIELDS) | st.text(max_size=6))
        if data.draw(st.booleans()):
            budget.pop(key, None)
        else:
            budget[key] = data.draw(json_values | st.integers(1, 10**7))
    path.write_text(json.dumps({**doc, "budget": budget}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--cert", str(path)])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error:")
    valid = sorted(budget) == list(BUDGET_FIELDS) and all(type(v) is int and v >= 1 for v in budget.values())
    assert (code == 2) is not valid


@pytest.fixture(scope="module")
def four_block_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    with redirect_stdout(io.StringIO()):
        assert main(["search", "--seq", "nat:60", "--spec", "mod(6,0)", "--depth", "4",
                     "--json", str(path)]) == 0
    return path, json.loads(path.read_text())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_fuzzed_value_arrays_get_the_set_comparison_verdict(four_block_document, data):
    """Unchanged, permuted, duplicated, dropped, added and replaced fs/fp
    values get the verdict and message of comparing the recorded values, as a
    set, with FS and FP of the recorded terms; so do the same values handed
    to verification_failure as a tuple and as a list."""
    path, doc = four_block_document
    name = data.draw(st.sampled_from(("fs", "fp")))
    values = list(doc[name])
    decimals = st.integers(1, 20000).map(str) | st.sampled_from(doc["fs"] + doc["fp"])
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(("permute", "duplicate", "drop", "add", "replace")))
        if kind == "permute":
            values = data.draw(st.permutations(values))
        elif kind == "add" or not values:
            values.insert(data.draw(st.integers(0, len(values))), data.draw(decimals))
        elif kind == "duplicate":
            values.insert(data.draw(st.integers(0, len(values))), data.draw(st.sampled_from(values)))
        elif kind == "drop":
            values.pop(data.draw(st.integers(0, len(values) - 1)))
        else:
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(decimals)
    mutated = {**doc, name: values}
    path.write_text(json.dumps(mutated))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--cert", str(path)])
    ys = [int(y) for y in doc["ys"]]
    fs, fp = (frozenset(map(int, mutated[k])) for k in ("fs", "fp"))
    if fs != fs_oracle(ys):
        expected = 1, "certificate does not verify: recorded finite-sum set does not match recomputation\n"
    elif fp != fp_oracle(ys):
        expected = 1, "certificate does not verify: recorded finite-product set does not match recomputation\n"
    else:
        expected = 0, f"certificate verifies: 4 blocks, {len(fs | fp)} FS u FP values inside mod(6,0)\n"
    assert (code, out.getvalue(), err.getvalue()) == (*expected, "")
    cert = certificate_from_document(mutated)
    recorded = getattr(cert, name)
    for form in (recorded, list(recorded)):
        failure = verification_failure(replace(cert, **{name: form}))
        assert (failure is None) is (code == 0), form


@pytest.fixture(scope="module")
def deep_searches(tmp_path_factory):
    """The found search over nat:320 for and(mod(6,0),geq(3)), window 300, at a
    given depth: its stdout, its document, and a path to write copies to."""
    folder = tmp_path_factory.mktemp("deep")
    runs = {}

    def at(depth):
        if depth not in runs:
            path = folder / f"d{depth}.json"
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["search", "--seq", "nat:320", "--spec", "and(mod(6,0),geq(3))",
                             "--depth", str(depth), "--window", "300", "--json", str(path)]) == 0
            runs[depth] = out.getvalue(), json.loads(path.read_text()), folder / "copy.json"
        return runs[depth]

    return at


ARRAY_FORMS = ("honest", "reversed", "shuffled", "duplicated")


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 12), forms=st.tuples(st.sampled_from(ARRAY_FORMS), st.sampled_from(ARRAY_FORMS)),
       rng=st.randoms(use_true_random=False))
def test_search_lists_and_verify_counts_the_union_of_any_listing(deep_searches, depth, forms, rng):
    """The search line lists sorted FS u FP, and verify counts |FS u FP| for
    fs/fp arrays as written, reversed, shuffled, or with values repeated."""
    out, doc, path = deep_searches(depth)
    union = sorted({*map(int, doc["fs"]), *map(int, doc["fp"])})
    listing = [line for line in out.splitlines() if line.startswith("FS u FP")]
    assert listing == [f"FS u FP ({len(union)} values): {' '.join(map(str, union))}"]
    copy = dict(doc)
    for name, form in zip(("fs", "fp"), forms):
        values = list(doc[name])
        if form == "reversed":
            values.reverse()
        elif form == "shuffled":
            rng.shuffle(values)
        elif form == "duplicated":
            values += rng.choices(values, k=rng.randint(1, len(values)))
        copy[name] = values
    path.write_text(json.dumps(copy))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--cert", str(path)])
    count = len(set(copy["fs"]) | set(copy["fp"]))
    assert count == len(union)
    line = f"certificate verifies: {depth} blocks, {count} FS u FP values inside and(mod(6,0),geq(3))\n"
    assert (code, out.getvalue(), err.getvalue()) == (0, line, "")


def test_refute_found_and_absent(capsys, tmp_path):
    code, out, _ = run(capsys, "refute", "--spec", "mod(6,0)", "--depth", "3", "--bound", "10")
    assert code == 0
    assert "refutation witness: 1 2 7" in out
    path = tmp_path / "ref.json"
    code, out, _ = run(
        capsys, "refute", "--spec", "mod(6,0)", "--depth", "6", "--bound", "60",
        "--json", str(path),
    )
    assert code == 1
    assert "no refutation within (k=6, N=60)" in out
    doc = load_document(path)
    assert doc["kind"] == "ip-refutation"
    assert doc["outcome"] == "none"


def test_hindman_round_trip(capsys, tmp_path):
    coloring = tmp_path / "col.txt"
    coloring.write_text("".join(f"{v} 0\n" for v in range(1, 6)))
    out_path = tmp_path / "h.json"
    code, out, _ = run(
        capsys, "hindman", "--coloring", str(coloring), "--depth", "2",
        "--json", str(out_path),
    )
    assert code == 0
    assert "monochromatic witness (color 0): 1 2" in out
    assert load_document(out_path)["outcome"] == "found"

    parity = tmp_path / "parity.txt"
    parity.write_text("".join(f"{v} {v % 2}\n" for v in range(1, 5)))
    code, out, _ = run(capsys, "hindman", "--coloring", str(parity), "--depth", "2")
    assert code == 1
    assert "no monochromatic witness" in out


def test_witness_searches_past_the_recursion_limit_exit_two(tmp_path):
    """A refute or hindman depth the recursive search cannot reach under the
    recursion limit is refused with one error line, not a traceback."""
    coloring = tmp_path / "one-colour.txt"
    # 1..300 has sums up to 45,150, all coloured alike: the search goes straight down
    coloring.write_text("".join(f"{v} 0\n" for v in range(1, 45151)))
    script = "import sys; from ipkit import cli; sys.setrecursionlimit(200); sys.exit(cli.main(sys.argv[1:]))"
    for argv in (["refute", "--spec", "none", "--depth", "300", "--bound", "300"],
                 ["hindman", "--coloring", str(coloring), "--depth", "300"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-300:]
        assert proc.stderr == "error: witness search refused: depth 300 passes Python's recursion limit (200)\n"


def test_hindman_bad_coloring_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n3 0\n")
    code, _, err = run(capsys, "hindman", "--coloring", str(bad), "--depth", "2")
    assert code == 2
    assert "missing" in err
    # the gaps are read between sorted values, never listed up to the largest one
    bad.write_text(f"1 0\n{10**12} 0\n")
    code, out, err = run(capsys, "hindman", "--coloring", str(bad), "--depth", "2")
    assert (code, out) == (2, "")
    assert err == "error: coloring is not total on [1..1000000000000]: missing [2, 3, 4, 5, 6]\n"


def test_hindman_coloring_value_below_one_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n2 0\n-5 3\n0 1\n")
    code, out, err = run(capsys, "hindman", "--coloring", str(bad), "--depth", "1")
    assert (code, out) == (2, "")
    assert err == "error: coloring line 3: value -5 is below 1\n"
    bad.write_text("0 1\n1 0\n2 0\n")
    assert one_short_error(capsys, "hindman", "--coloring", str(bad), "--depth", "1") == (
        "error: coloring line 1: value 0 is below 1\n"
    )


def one_short_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), argv[:3]
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200, err[:300]
    return err


def test_non_utf8_input_files_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    for argv in (
        ("fs", "--seq", f"file:{bad}"),
        ("hindman", "--coloring", str(bad), "--depth", "2"),
        ("semigroup", "--table", str(bad)),
    ):
        assert "is not UTF-8 text" in one_short_error(capsys, *argv), argv[0]


def test_long_arguments_and_input_lines_print_short_errors(capsys, tmp_path):
    """A 100,000-character argument or file line is never echoed whole."""
    long_text = "z" * 100_000
    seq, coloring, table = (tmp_path / name for name in ("seq.txt", "coloring.txt", "table.txt"))
    cases = [
        (("fs", "--seq", f"nat:{long_text}"), "nat count must be an integer"),
        (("fs", "--seq", f"nat:-{'9' * 4000}"), "nat count must be >= 1"),
        (("fs", "--seq", f"moon:{long_text}"), "unknown sequence source"),
        (("fs", "--seq", f"file:{seq}"), "sequence file line 2 must be an integer"),
        (("fs", "--seq", f"file:{tmp_path / long_text}"), "File name too long"),
        (("hindman", "--coloring", str(coloring), "--depth", "2"), "coloring line 1"),
        (("semigroup", "--table", str(table)), "first line must be the order"),
    ]
    seq.write_text(f"1\n{long_text}\n")
    coloring.write_text(f"1 {long_text}\n")
    table.write_text(f"{long_text}\n0\n")
    for argv, message in cases:
        assert message in one_short_error(capsys, *argv), argv[:2]
    for text, message in (
        (f"1 0\n1 {long_text} 0\n", "expected 'value color'"),
        (f"{'9' * 4000} 0\n{'9' * 4000} 0\n", "colored twice"),
    ):
        coloring.write_text(text)
        assert message in one_short_error(capsys, "hindman", "--coloring", str(coloring), "--depth", "2")
    for text, message in (
        (f"-{'9' * 4000}\n", "order must be >= 1"),
        (f"{'9' * 4000}\n0\n", "table rows after the order line"),
        (f"1\n0 {long_text}\n", "row 0 has 2 entries"),
        (f"1\n{long_text}\n", "row 0 contains a non-integer entry"),
        (f"1\n{'9' * 4000}\n", "outside 0..0"),
    ):
        table.write_text(text)
        assert message in one_short_error(capsys, "semigroup", "--table", str(table))


def test_fs_fp_past_the_fold_cap_exit_two(capsys, monkeypatch):
    from ipkit import fsfp

    monkeypatch.setattr(fsfp, "FOLD_CAP", 6)
    # the cap counts values, not subsets: nat:3 has 7 subsets and 6 sums
    assert run(capsys, "fs", "--seq", "nat:3")[:2] == (0, "FS (6 values): 1 2 3 4 5 6\n")
    for argv, message in (
        (("fs", "--seq", "pow:2:8"), "fold refused: FS of 3 terms exceeds 6 values"),
        # products of powers of 2 collide: 2, 4, 8 give 6 values
        (("fp", "--seq", "pow:2:8"), "fold refused: FP of 4 terms exceeds 6 values"),
    ):
        assert message in one_short_error(capsys, *argv), argv


def test_semigroup_reports(capsys, tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("2\n0 0\n1 1\n")  # left zero
    code, out, _ = run(capsys, "semigroup", "--table", str(table))
    assert code == 0
    assert "order: 2" in out and "idempotents: 0 1" in out

    json_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "semigroup", "--table", str(table), "--report", "full",
        "--json", str(json_path),
    )
    assert code == 0
    assert "minimal left ideals: {0,1}" in out
    assert "minimal right ideals: {0} {1}" in out
    assert "kernel K: {0,1}" in out
    assert "all groups: true" in out
    doc = load_document(json_path)
    assert doc["kind"] == "semigroup-report"
    assert doc["kernel"] == [0, 1]
    assert doc["group_check"]["all_groups"] is True
    assert doc["product_formula"]["all_agree"] is True


# Two transformation semigroups (sampled_transformation_semigroups(1, degree=4)):
# order 8 takes the exhaustive product-formula sweep, order 13 the sampled one.
# The reports and the documents' product_formula fields are golden bytes; the
# sweep's sample stream may change, these may not.
SWEEP_GOLDENS = (
    (
        "8\n"
        "0 0 0 0 0 0 0 0\n0 0 1 0 0 1 0 0\n0 1 2 0 1 5 6 7\n0 0 0 3 3 0 0 0\n"
        "0 0 1 3 3 1 0 0\n7 6 5 7 6 2 1 0\n7 7 6 7 7 6 7 7\n7 7 7 7 7 7 7 7\n",
        "order: 8\n"
        "idempotents: 0 2 3 7\n"
        "minimal left ideals: {0,7}\n"
        "minimal right ideals: {0} {7}\n"
        "kernel K: {0,7}\n"
        "minimal idempotents: 0 7\n"
        "group check: 2 minimal (L,R) pairs, all groups: true\n"
        "product formula: 16384 (p,q,A) cases (exhaustive), all agree: true\n",
        '"product_formula": {\n'
        '    "all_agree": true,\n'
        '    "checked": 16384,\n'
        '    "exhaustive": true\n'
        "  }",
    ),
    (
        "13\n"
        "0 0 2 3 4 4 4 4 4 4 3 2 4\n0 1 2 3 4 5 6 7 8 9 10 11 12\n"
        "4 2 4 4 4 3 4 2 4 0 0 3 4\n4 3 4 4 4 4 3 4 2 4 2 0 0\n"
        "4 4 4 4 4 4 4 4 4 4 4 4 4\n4 5 4 4 4 4 5 4 7 4 7 9 9\n"
        "4 6 4 4 4 4 6 4 8 4 8 12 12\n4 7 4 4 4 5 4 7 4 9 9 5 4\n"
        "4 8 4 4 4 6 4 8 4 12 12 6 4\n9 9 7 5 4 4 4 4 4 4 5 7 4\n"
        "9 10 7 5 4 6 3 8 2 12 11 1 0\n12 11 8 6 4 3 5 2 7 0 1 10 9\n"
        "12 12 8 6 4 4 4 4 4 4 6 8 4\n",
        "order: 13\n"
        "idempotents: 0 1 4 6 7\n"
        "minimal left ideals: {4}\n"
        "minimal right ideals: {4}\n"
        "kernel K: {4}\n"
        "minimal idempotents: 4\n"
        "group check: 1 minimal (L,R) pairs, all groups: true\n"
        "product formula: 2000 (p,q,A) cases (sampled), all agree: true\n",
        '"product_formula": {\n'
        '    "all_agree": true,\n'
        '    "checked": 2000,\n'
        '    "exhaustive": false\n'
        "  }",
    ),
)


@pytest.mark.parametrize("table_text, report, field", SWEEP_GOLDENS)
def test_semigroup_full_report_bytes(capsys, tmp_path, table_text, report, field):
    table = tmp_path / "t.txt"
    table.write_text(table_text)
    json_path = tmp_path / "report.json"
    order = table_text.split("\n", 1)[0]
    code, out, err = run(
        capsys, "semigroup", "--table", str(table), "--report", "full",
        "--order-cap", order, "--json", str(json_path),
    )
    assert (code, out, err) == (0, report, "")
    text = json_path.read_text()
    start = text.index('"product_formula": {')
    assert text[start:text.index("}", start) + 1] == field


def test_semigroup_full_report_computes_ideals_once(capsys, tmp_path, monkeypatch):
    from ipkit import cli, semigroup

    calls = []

    def counted(sg, order_cap=None, ideals=semigroup.ideal_structure):
        calls.append(sg.order)
        return ideals(sg, order_cap)

    monkeypatch.setattr(semigroup, "ideal_structure", counted)
    table = tmp_path / "t.txt"
    # multiplication mod 6
    table.write_text("6\n" + "".join(" ".join(str(a * b % 6) for b in range(6)) + "\n" for a in range(6)))
    code, out, _ = run(capsys, "semigroup", "--table", str(table), "--report", "full")
    assert code == 0
    assert "kernel K: {0}" in out and "minimal idempotents: 0" in out
    assert calls == [6]


def test_semigroup_non_associative_exit_two(capsys, tmp_path):
    table = tmp_path / "bad.txt"
    table.write_text("2\n1 0\n0 0\n")
    code, _, err = run(capsys, "semigroup", "--table", str(table), "--report", "full")
    assert code == 2
    assert "not associative at triple (0,0,1)" in err


def test_semigroup_order_cap_env_and_flag(capsys, tmp_path, monkeypatch):
    table = tmp_path / "z5.txt"
    table.write_text("5\n" + "\n".join(" ".join(str((a + b) % 5) for b in range(5)) for a in range(5)) + "\n")
    # the cap is set by the flag alone: the IPKIT_ORDER_CAP variable is ignored
    monkeypatch.setenv("IPKIT_ORDER_CAP", "5")
    code, _, err = run(
        capsys, "semigroup", "--table", str(table), "--report", "full", "--order-cap", "4"
    )
    assert code == 2
    assert "refused at order 5" in err
    monkeypatch.setenv("IPKIT_ORDER_CAP", "4")
    for cap in (("--order-cap", "5"), ()):
        code, out, _ = run(capsys, "semigroup", "--table", str(table), "--report", "full", *cap)
        assert code == 0
        assert "kernel K: {0,1,2,3,4}" in out


def test_dilate_output(capsys):
    code, out, _ = run(capsys, "dilate", "--spec", "mod(6,0)", "--n", "2")
    assert code == 0
    assert out.strip() == "mod(3,0)"
    code, _, err = run(capsys, "dilate", "--spec", "mod(6,0)", "--n", "0")
    assert code == 2
    assert "factor" in err


def test_certificate_documents_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["search", "--seq", "nat:64", "--spec", "mod(6,0)", "--depth", "4"]
    run(capsys, *argv, "--json", str(a))
    run(capsys, *argv, "--json", str(b))
    assert comparable_form(load_document(a)) == comparable_form(load_document(b))


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["search", "--frobnicate"])
    assert err.value.code == 2


def test_no_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "ipkit", "fs", "--seq", "nat:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "FS (6 values)" in proc.stdout


def test_created_at_is_the_utc_time_now(capsys, tmp_path):
    """The stamp is ISO 8601 UTC to the second, within a few seconds of now."""
    import calendar
    import time

    doc = tmp_path / "c.json"
    before = time.time()
    code, _, _ = run(capsys, "search", "--seq", "nat:12", "--spec", "mod(2,0)", "--depth", "2",
                     "--json", str(doc))
    after = time.time()
    assert code == 0
    stamp = json.loads(doc.read_text())["created_at"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp), stamp
    seconds = calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ"))
    assert before - 5 <= seconds <= after + 5


def test_refute_of_an_empty_complement_answers_at_once():
    """Every first term up to 10^12 would be tried one at a time; the
    complement's eventual period settles it before the search starts."""
    proc = subprocess.run(
        [sys.executable, "-m", "ipkit", "refute", "--spec", "all", "--depth", "2",
         "--bound", "1000000000000"],
        capture_output=True, text=True, timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "no refutation within (k=2, N=1000000000000)\n", "",
    )
