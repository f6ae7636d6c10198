"""CLI subcommands, exit codes, and document output, driven through main(argv)."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipkit.certificates import comparable_form, load_document
from ipkit.cli import main, parse_sequence_source
from ipkit.errors import InputError


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


def test_fs_fp_output(capsys):
    code, out, _ = run(capsys, "fs", "--seq", "nat:3")
    assert code == 0
    assert "FS (6 values): 1 2 3 4 5 6" in out
    code, out, _ = run(capsys, "fp", "--seq", "nat:3")
    assert code == 0
    assert "FP (4 values): 1 2 3 6" in out


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


def test_semigroup_full_report_computes_ideals_once(capsys, tmp_path, monkeypatch):
    from ipkit import cli, semigroup

    calls = []

    def counted(sg, order_cap=None, ideals=semigroup.ideal_structure):
        calls.append(sg.order)
        return ideals(sg, order_cap)

    monkeypatch.setattr(cli, "ideal_structure", counted)
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
    monkeypatch.setenv("IPKIT_ORDER_CAP", "4")
    code, _, err = run(capsys, "semigroup", "--table", str(table), "--report", "full")
    assert code == 2
    assert "refused at order 5" in err
    # explicit flag beats the environment
    code, out, _ = run(
        capsys, "semigroup", "--table", str(table), "--report", "full", "--order-cap", "5"
    )
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
