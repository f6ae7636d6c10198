"""Certificate documents: serialization, round trips, tamper detection."""

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipkit import cli
from ipkit.certificates import (
    FORMAT_VERSION,
    KIND_HINDMAN,
    KIND_REFUTATION,
    KIND_SEARCH,
    KIND_SEMIGROUP,
    KIND_WITNESS,
    _decimal_array,
    _parse_decimal,
    budget_from_document,
    certificate_from_document,
    comparable_form,
    digit_limit_lifted,
    dumps_document,
    hindman_document,
    load_document,
    make_document,
    search_document,
    witness_document,
    write_document,
)
from ipkit.errors import SHOWN_CHARS, InputError, shown
from ipkit.partition import FsWitness
from ipkit.search import (
    OutcomeKind,
    SearchBudget,
    SearchOutcome,
    search_subsystem,
    verification_failure,
    verify_certificate,
)
from ipkit.semigroup import multiplication_mod, render_table
from ipkit.setspec import Congruence

BUDGET = SearchBudget(depth=2, window=32)


def _search_doc():
    outcome = search_subsystem(tuple(range(1, 33)), Congruence(6, 0), BUDGET)
    return search_document(outcome, BUDGET, "mod(6,0)", tuple(range(1, 33)))


def test_search_document_shape():
    doc = _search_doc()
    assert doc["kind"] == KIND_SEARCH
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["outcome"] == "found"
    assert doc["verified"] is True
    assert doc["spec"] == "mod(6,0)"
    assert doc["budget"] == {"depth": 2, "window": 32, "max_block": 4, "node_limit": 1_000_000}
    assert doc["blocks"] == [[1, 2, 3], [6]]
    assert doc["ys"] == ["6", "6"]
    assert doc["fs"] == ["6", "12"]
    assert doc["fp"] == ["6", "36"]
    assert doc["x"] == [str(v) for v in range(1, 7)]
    assert "created_at" in doc


def test_decimal_strings_sorted_numerically():
    outcome = search_subsystem(
        tuple(range(1, 65)), Congruence(6, 0), SearchBudget(depth=5, window=64)
    )
    doc = search_document(outcome, SearchBudget(depth=5, window=64), "mod(6,0)", ())
    as_ints = [int(s) for s in doc["fs"]]
    assert as_ints == sorted(as_ints)
    assert all(isinstance(s, str) for s in doc["fs"] + doc["fp"] + doc["ys"] + doc["x"])


def test_a_replaced_fold_is_still_written_sorted():
    """A found certificate's ``fs`` and ``fp`` are ascending tuples; ones
    replaced out of order are written as sorted document arrays too."""
    budget = SearchBudget(depth=5, window=64)
    outcome = search_subsystem(tuple(range(1, 65)), Congruence(6, 0), budget)
    cert = outcome.certificate
    assert cert.fs == tuple(sorted(set(cert.fs))) and cert.fp == tuple(sorted(set(cert.fp)))
    replaced = replace(cert, fs=(10**30, *cert.fs, 13), fp=(*cert.fp, 7))
    doc = search_document(replace(outcome, certificate=replaced), budget, "mod(6,0)", ())
    assert doc["fs"] == [str(v) for v in sorted({*cert.fs, 13, 10**30})]
    assert doc["fp"] == [str(v) for v in sorted({*cert.fp, 7})]


def test_not_found_document():
    doc = search_document(
        SearchOutcome(OutcomeKind.EXHAUSTED, None, 42), BUDGET, "none", (1, 2, 3)
    )
    assert doc["outcome"] == "exhausted"
    assert doc["blocks"] is None and doc["ys"] is None
    assert doc["x"] == ["1", "2", "3"]
    assert doc["verified"] is False


def test_dumps_is_canonical():
    doc = _search_doc()
    text = dumps_document(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == doc
    # keys sorted at every level
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_comparable_form_drops_timestamp_only():
    a = comparable_form(_search_doc())
    b = comparable_form(_search_doc())
    assert "created_at" not in a
    assert a == b


def test_write_load_round_trip(tmp_path):
    path = tmp_path / "cert.json"
    doc = _search_doc()
    write_document(path, doc)
    loaded = load_document(path)
    assert loaded == doc
    cert = certificate_from_document(loaded)
    assert verify_certificate(cert)
    assert cert.verified is False  # the flag does not survive the round trip


def test_load_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputError, match="not a JSON document"):
        load_document(bad)
    bad.write_text('["list"]')
    with pytest.raises(InputError, match="JSON object"):
        load_document(bad)
    bad.write_text('{"format_version": 99}')
    with pytest.raises(InputError, match="format_version"):
        load_document(bad)
    bad.write_text('{"format_version": 1, "x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(InputError, match="nested too deeply"):
        load_document(bad)


def test_certificate_from_document_errors():
    doc = _search_doc()
    with pytest.raises(InputError, match="kind"):
        certificate_from_document({**doc, "kind": KIND_HINDMAN})
    with pytest.raises(InputError, match="nothing to verify"):
        certificate_from_document({**doc, "outcome": "exhausted"})
    with pytest.raises(InputError, match="missing field"):
        certificate_from_document({k: v for k, v in doc.items() if k != "ys"})
    with pytest.raises(InputError, match="decimal string"):
        certificate_from_document({**doc, "ys": [6, 6]})
    with pytest.raises(InputError, match="decimal string"):
        certificate_from_document({**doc, "ys": ["6", "six"]})
    for loose in (" +1", "2_0", "007"):
        with pytest.raises(InputError, match="canonical decimal string"):
            certificate_from_document({**doc, "x": [loose] + doc["x"][1:]})
    with pytest.raises(InputError, match="list of integers"):
        certificate_from_document({**doc, "blocks": [[1, 2, 3], "6"]})
    with pytest.raises(InputError, match="spec field"):
        certificate_from_document({**doc, "spec": 6})
    for field, value in (("x", 7), ("blocks", 5), ("fs", 3), ("x", "123"), ("ys", {"0": "6"})):
        with pytest.raises(InputError, match=f"field '{field}' must be a JSON array"):
            certificate_from_document({**doc, field: value})
    # an array is checked in one pass, then value by value only when that
    # fails: the error names the first bad value, exactly
    bad_values = ("", "0", "007", "-6", "6.0", "\u0663", "\u00b2", "9" * 4301, 6, None, True, ["6"])
    for bad in bad_values:
        for field, what in (("fs", "finite sum"), ("fp", "finite product")):
            values = list(doc[field])
            values[1:1] = [bad, "x"]
            with pytest.raises(InputError) as raised:
                certificate_from_document({**doc, field: values})
            assert str(raised.value) == f"{what} must be a canonical decimal string, got {shown(bad)}"
    assert certificate_from_document({**doc, "fp": []}).fp == ()
    # the arrays cross as tuples, in their recorded order, repeats kept
    recorded = doc["fs"][::-1] + doc["fs"][:1]
    assert certificate_from_document({**doc, "fs": recorded}).fs == tuple(map(int, recorded))


def test_budget_from_document():
    doc = _search_doc()
    budget, nodes = budget_from_document(doc)
    assert budget == BUDGET
    assert nodes == doc["nodes"]
    malformed = [
        {**doc, "budget": None},
        {**doc, "budget": [2, 32, 4, 1_000_000]},
        {**doc, "budget": {"depth": 2, "window": 32, "max_block": 4}},
        {**doc, "budget": {**doc["budget"], "extra": 1}},
        {**doc, "budget": {**doc["budget"], "depth": "2"}},
        {**doc, "budget": {**doc["budget"], "max_block": 0}},
        {**doc, "nodes": "7"},
        {**doc, "nodes": True},
    ]
    for bad in malformed:
        with pytest.raises(InputError):
            budget_from_document(bad)


def test_load_document_rejects_over_long_integers(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"format_version": 1, "nodes": ' + "9" * 5000 + "}")
    with pytest.raises(InputError, match="not a JSON document"):
        load_document(path)
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(InputError, match="not a JSON document"):
        load_document(path)


def test_tampered_document_fails_verification():
    doc = _search_doc()
    tampered = {**doc, "ys": ["6", "7"]}
    cert = certificate_from_document(tampered)
    assert verification_failure(cert) is not None


def test_witness_document_shapes():
    w = FsWitness((1, 2, 7))
    doc = witness_document(KIND_REFUTATION, w, "mod(6,0)", 3, 10)
    assert doc["kind"] == KIND_REFUTATION
    assert doc["outcome"] == "found"
    assert doc["terms"] == ["1", "2", "7"]
    assert doc["fs"] == ["1", "2", "3", "7", "8", "9", "10"]
    absent = witness_document(KIND_WITNESS, None, "none", 2, 5)
    assert absent["outcome"] == "none" and absent["terms"] is None
    with pytest.raises(InputError):
        witness_document(KIND_SEARCH, w, "all", 1, 1)


def test_hindman_document_shapes():
    w = FsWitness((1, 2))
    doc = hindman_document((0, w), 2, 5, 2)
    assert doc["kind"] == KIND_HINDMAN
    assert doc["color"] == 0 and doc["terms"] == ["1", "2"]
    assert doc["bound"] == 5 and doc["palette"] == 2
    none_doc = hindman_document(None, 2, 4, 2)
    assert none_doc["outcome"] == "none" and none_doc["color"] is None


def test_make_document_rejects_unknown_kind():
    with pytest.raises(InputError, match="unknown document kind"):
        make_document("mystery", {})


def test_digit_limit_lifted_only_inside():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(RuntimeError):
        with digit_limit_lifted():
            assert len(str(10**limit)) == limit + 1
            raise RuntimeError
    assert sys.get_int_max_str_digits() == limit


def test_shown_cuts_hostile_values():
    assert shown("007") == "'007'" and shown(7) == "7" and shown(None) == "None"
    deep = []
    for _ in range(1000):
        deep = [deep]
    for value in (deep, "z" * 100_000, {str(i): list(range(50)) for i in range(50)}):
        assert len(shown(value)) <= SHOWN_CHARS


def _oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# digit strings the joined writer takes, and strings it must leave to json.dumps
digit_texts = st.sampled_from(["1", "6", "007", "0", "", "\u00b2", "\u0663", "9" * 50])
digit_texts |= st.from_regex(r"[0-9]{1,12}", fullmatch=True)
odd_texts = st.sampled_from(['"', "\\", "\x00", "\n", "caf\u00e9", "\U0001f600", "a\tb"]) | st.text(max_size=8)
json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | digit_texts | odd_texts
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(digit_texts, min_size=1, max_size=6)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
fields = st.lists(digit_texts, min_size=1, max_size=6) | json_values
# string keys, keys of one other kind, or mixed keys, which may not sort together
documents = (
    st.dictionaries(st.text(max_size=6) | digit_texts, fields, max_size=6)
    | st.dictionaries(st.integers(-3, 3) | st.booleans(), fields, max_size=4)
    | st.dictionaries(st.text(max_size=2) | st.integers(-3, 3) | st.none(), fields, max_size=3)
)


@given(documents)
def test_dumps_document_matches_json_dumps_on_any_dict(doc):
    try:
        expected = _oracle(doc)
    except TypeError as exc:  # keys of kinds that do not sort together
        with pytest.raises(TypeError) as raised:
            dumps_document(doc)
        assert str(raised.value) == str(exc)
    else:
        assert dumps_document(doc) == expected


def test_dumps_document_matches_json_dumps_on_edge_documents():
    for doc in (
        {},
        {"fp": []},
        {"fp": [""]},
        {"fp": ["", "1"]},
        {"fp": ["01", "1"], "fs": ["1", "\u00b2"], "x": ["1", 2], "ys": [["1"]]},
        {"a": {}, "b": [[]], "c": {"d": ["1", "2"]}, "e": "12"},
        {1: ["1"], 2: "x"},
        {"\u00e9\x00": ["7" * 5000]},
    ):
        assert dumps_document(doc) == _oracle(doc)


def _written(tmp_path, *argv):
    path = tmp_path / "doc.json"
    with redirect_stdout(io.StringIO()):
        cli.main([*argv, "--json", str(path)])
    return path.read_text(encoding="utf-8")


def test_every_written_document_is_json_dumps_of_itself(tmp_path):
    table = tmp_path / "table.txt"
    table.write_text(render_table(multiplication_mod(6)))
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("".join(f"{v} {v % 2}\n" for v in range(1, 41)))
    texts = [
        _written(tmp_path, "search", "--seq", "nat:64", "--spec", "mod(6,0)", "--depth", "5"),
        _written(tmp_path, "search", "--seq", "nat:8", "--spec", "none", "--depth", "2"),
        _written(tmp_path, "refute", "--spec", "not(mod(2,0))", "--depth", "4", "--bound", "30"),
        _written(tmp_path, "refute", "--spec", "all", "--depth", "2", "--bound", "5"),
        _written(tmp_path, "hindman", "--coloring", str(coloring), "--depth", "2"),
        _written(tmp_path, "semigroup", "--table", str(table), "--report", "basic"),
        _written(tmp_path, "semigroup", "--table", str(table), "--report", "full"),
    ]
    docs = [json.loads(text) for text in texts]
    kinds = [KIND_SEARCH] * 2 + [KIND_REFUTATION] * 2 + [KIND_HINDMAN] + [KIND_SEMIGROUP] * 2
    assert [d["kind"] for d in docs] == kinds
    assert [d["outcome"] for d in docs[:5]] == ["found", "exhausted", "found", "none", "found"]
    witness = witness_document(KIND_WITNESS, FsWitness((3, 5, 11)), "all", 3, 20)
    for text, doc in zip(texts + [dumps_document(witness)], docs + [witness]):
        assert text == _oracle(doc)


decimal_candidates = ["1", "6", "12", "\u00b2", "\u0663", "0", "01", "", "+1", "1_000", " 1", "9" * 4301]
decimal_candidates += [1, True, None, ["6"]]


def _parsed(values):
    """``_decimal_array``'s verdict and the value-by-value parse's, each a list or an error line."""

    def outcome(parse):
        try:
            return parse()
        except InputError as exc:
            return f"error: {exc}"

    return (
        outcome(lambda: _decimal_array({"f": values}, "f", "finite sum")),
        outcome(lambda: [_parse_decimal(v, "finite sum") for v in values]),
    )


def test_decimal_array_accepts_exactly_what_parse_decimal_accepts():
    assert _parsed([]) == ([], [])
    assert _parsed(["12", "6"]) == ([12, 6], [12, 6])
    for value in decimal_candidates:
        for values in ([value], ["1", value, "2"], [value, "\u00b2"]):
            joined, one_by_one = _parsed(values)
            assert joined == one_by_one
