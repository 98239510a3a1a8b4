"""JSON documents: every artifact kind round-trips, loaders reject junk."""

import copy
import json
import re

import pytest

from cycind import FormatError, check_proof, proof_size
from cycind.builders import geq_refl, inst
from cycind.formats import (
    CALLSYSTEM,
    MAX_FORMULA_DEPTH,
    PROOF,
    call_system_from_doc,
    call_system_to_doc,
    derivation_from_doc,
    derivation_to_doc,
    dumps,
    loads,
    proof_from_doc,
    proof_to_doc,
)
from cycind.logic import distinct_nodes

import systems


@pytest.mark.parametrize("name", ["plus", "ack", "dist", "treedist", "fg", "crossing"])
def test_call_system_round_trip(name):
    cs = systems.load(name)
    assert call_system_from_doc(call_system_to_doc(cs)) == cs


def test_derivation_round_trip(pipelines):
    p = pipelines["ack"]
    sys2, deriv2 = derivation_from_doc(derivation_to_doc(p.deriv, p.system))
    assert sys2 == p.system
    assert deriv2 == p.deriv


def test_proof_round_trip_small(pipelines):
    for name in ("plus", "fg"):
        p = pipelines[name]
        doc = proof_to_doc(p.proof, p.system)
        sys2, proof2 = proof_from_doc(doc)
        assert sys2 == p.system
        assert proof_to_doc(proof2, sys2) == doc


def test_proof_round_trip_large(pipelines):
    # proofs compare by identity; equality by value shows through the
    # checker and through a byte-identical second dump
    p = pipelines["ack"]
    doc = proof_to_doc(p.proof, p.system)
    sys2, proof2 = proof_from_doc(doc)
    assert proof_size(proof2) == proof_size(p.proof)
    check_proof(sys2, proof2)
    assert proof_to_doc(proof2, sys2) == doc


def test_proofs_compare_by_identity_and_by_documents(pipelines):
    # two equal chains of 2,000 nodes: by value, == and hash would recurse
    # down the whole chain (a RecursionError); their documents are equal
    def chain():
        d = geq_refl((("x", "Nat"),), (), "Nat", "x")
        for _ in range(2000):
            d = inst(d, (), [])
        return d
    a, b = chain(), chain()
    assert a == a and a != b and len({a, b, a}) == 2
    system = pipelines["plus"].system
    assert proof_to_doc(a, system) == proof_to_doc(b, system)


def test_shared_subproofs_are_emitted_once(pipelines):
    p = pipelines["ack"]
    doc = proof_to_doc(p.proof, p.system)
    assert len(doc["nodes"]) == proof_size(p.proof)


def test_dumps_and_loads(pipelines):
    p = pipelines["plus"]
    text = dumps(call_system_to_doc(p.cs))
    assert text.endswith("}\n")
    kind, cs = loads(text)
    assert kind == "callsystem" and cs == p.cs
    doc = proof_to_doc(p.proof, p.system)
    kind, (sys2, proof2) = loads(dumps(doc))
    assert kind == "proof" and proof_to_doc(proof2, sys2) == doc
    kind, (sys3, deriv3) = loads(dumps(derivation_to_doc(p.deriv, p.system)))
    assert kind == "derivation" and deriv3 == p.deriv


def test_loads_rejects_non_json():
    with pytest.raises(FormatError, match="not valid JSON"):
        loads("{]")


def test_loads_rejects_non_object():
    with pytest.raises(FormatError, match="document is not a JSON object"):
        loads("[1, 2]")


def test_loads_rejects_unknown_tag():
    with pytest.raises(FormatError, match="unknown format tag 'nope'"):
        loads('{"format": "nope"}')


def test_loader_checks_its_own_tag(pipelines):
    p = pipelines["plus"]
    doc = proof_to_doc(p.proof, p.system)
    with pytest.raises(
        FormatError,
        match=r"expected format 'cycind/callsystem@1', found 'cycind/proof@1'",
    ):
        call_system_from_doc(doc)
    assert doc["format"] == PROOF and CALLSYSTEM != PROOF


def test_call_doc_with_undeclared_function():
    doc = call_system_to_doc(systems.load("plus"))
    doc = copy.deepcopy(doc)
    doc["calls"][0]["dom"] = "nosuch"
    with pytest.raises(FormatError, match="call 'plus.0' refers to an undeclared function"):
        call_system_from_doc(doc)


def test_proof_doc_with_bad_term_tag(pipelines):
    p = pipelines["plus"]
    doc = copy.deepcopy(proof_to_doc(p.proof, p.system))
    doc["nodes"][0]["seq"]["concl"] = ["atom", "plus", [["q", "x"]]]
    with pytest.raises(FormatError, match="unknown term tag 'q'"):
        proof_from_doc(doc)


def test_proof_doc_with_forward_reference(pipelines):
    p = pipelines["plus"]
    doc = proof_to_doc(p.proof, p.system)
    last = len(doc["nodes"]) - 1
    # only a forward reference is called a later node
    for child, message in ((last, f"refers to a later node {last}"), (-1, "child -1 is not a node index"),
                           ("x", "child 'x' is not a node index"), (1.5, "child 1.5 is not a node index"),
                           (True, "child True is not a node index")):
        bad = copy.deepcopy(doc)
        bad["nodes"][0]["children"] = [child]
        with pytest.raises(FormatError, match=f"^node 0: {re.escape(message)}$"):
            proof_from_doc(bad)


# ---------------------------------------------------------------------------
# formula and variable tables
# ---------------------------------------------------------------------------

def _inline_layout(doc):
    """The same proof in the layout without tables: every formula written out
    in full, every context entry as a [name, sort] pair."""
    formulas = []
    for row in doc["formulas"]:
        if row[0] == "imp":
            row = ["imp", formulas[row[1]], formulas[row[2]]]
        elif row[0] == "all":
            row = ["all", row[1], row[2], formulas[row[3]]]
        formulas.append(row)
    nodes = []
    for row in doc["nodes"]:
        seq = row["seq"]
        nodes.append({
            **row,
            "seq": {
                "ctx": [doc["variables"][v] for v in seq["ctx"]],
                "hyps": [formulas[h] for h in seq["hyps"]],
                "concl": formulas[seq["concl"]],
            },
        })
    return {"format": PROOF, "system": doc["system"], "nodes": nodes, "root": doc["root"]}


def test_inline_layout_still_loads(pipelines):
    p = pipelines["plus"]
    old = copy.deepcopy(_inline_layout(proof_to_doc(p.proof, p.system)))
    assert "formulas" not in old and isinstance(old["nodes"][0]["seq"]["concl"], list)
    kind, (sys2, proof2) = loads(dumps(old))
    assert kind == "proof" and sys2 == p.system
    assert proof_to_doc(proof2, sys2) == proof_to_doc(p.proof, p.system)
    check_proof(sys2, proof2)


def test_formulas_are_shared_after_loading(pipelines):
    p = pipelines["ack"]
    doc = proof_to_doc(p.proof, p.system)
    _sys, proof2 = proof_from_doc(doc)
    objects = {
        id(phi)
        for d in distinct_nodes(proof2)
        for phi in (*d.seq.hyps, d.seq.concl)
    }
    assert len(objects) <= len(doc["formulas"])


def test_tables_have_no_duplicate_rows(pipelines):
    for name in ("ack", "fg"):
        p = pipelines[name]
        doc = proof_to_doc(p.proof, p.system)
        for table in ("formulas", "variables"):
            rows = [json.dumps(r) for r in doc[table]]
            assert len(set(rows)) == len(rows), (name, table)


def test_dist_document_stays_small(pipelines):
    # 130,023 bytes: a shared formula, context entry or subproof is written once
    p = pipelines["dist"]
    assert len(dumps(proof_to_doc(p.proof, p.system))) < 135_000


def test_written_documents_are_one_line(pipelines):
    p = pipelines["plus"]
    text = dumps(proof_to_doc(p.proof, p.system))
    assert text.count("\n") == 1 and text.endswith("\n")


def test_equal_hypothesis_lists_share_one_tuple_after_loading(pipelines):
    p = pipelines["dist"]
    doc = proof_to_doc(p.proof, p.system)
    _sys, proof2 = proof_from_doc(doc)
    lists = {tuple(row["seq"]["hyps"]) for row in doc["nodes"]}
    assert len({id(d.seq.hyps) for d in distinct_nodes(proof2)}) == len(lists)


def _plus_doc(pipelines):
    p = pipelines["plus"]
    return copy.deepcopy(proof_to_doc(p.proof, p.system))


@pytest.mark.parametrize(
    "ref, message",
    [
        ("0", "expected a formula index or array, found a string"),
        (1.0, "expected a formula index or array, found a number"),
        (True, "expected a formula index or array, found a boolean"),
        (None, "expected a formula index or array, found null"),
        (-1, "formula index -1 out of range"),
        (10**6, "formula index 1000000 out of range"),
    ],
)
def test_bad_formula_index_in_a_sequent(pipelines, ref, message):
    doc = _plus_doc(pipelines)
    doc["nodes"][0]["seq"]["concl"] = ref
    with pytest.raises(FormatError, match=f"^node 0: {re.escape(message)}"):
        proof_from_doc(doc)


@pytest.mark.parametrize("ref", ["0", -1, 10**6, 2.5])
def test_bad_hypothesis_index(pipelines, ref):
    doc = _plus_doc(pipelines)
    i, row = next((i, r) for i, r in enumerate(doc["nodes"]) if r["seq"]["hyps"])
    row["seq"]["hyps"][-1] = ref
    with pytest.raises(FormatError, match=f"^node {i}: "):
        proof_from_doc(doc)


@pytest.mark.parametrize("ref", ["0", -1, 10**6, ["x"], None])
def test_bad_variable_index(pipelines, ref):
    doc = _plus_doc(pipelines)
    i, row = next((i, r) for i, r in enumerate(doc["nodes"]) if r["seq"]["ctx"])
    row["seq"]["ctx"][0] = ref
    with pytest.raises(FormatError, match=f"^node {i}: .*variable"):
        proof_from_doc(doc)


@pytest.mark.parametrize("field", ["hyps", "ctx"])
@pytest.mark.parametrize("value", [None, "0", {"0": 0}, 3])
def test_sequent_lists_must_be_arrays(pipelines, field, value):
    doc = _plus_doc(pipelines)
    doc["nodes"][0]["seq"][field] = value
    with pytest.raises(FormatError, match=f"^node 0: {field} must be an array"):
        proof_from_doc(doc)


def test_null_sequent(pipelines):
    doc = _plus_doc(pipelines)
    doc["nodes"][0]["seq"] = None
    with pytest.raises(FormatError, match="^node 0: sequent must be an object, found null"):
        proof_from_doc(doc)


def test_formula_table_must_point_backwards(pipelines):
    doc = _plus_doc(pipelines)
    i = next(i for i, r in enumerate(doc["formulas"]) if r[0] == "imp")
    doc["formulas"][i][1] = i
    with pytest.raises(FormatError, match=f"^formula row {i}: formula index {i} is not an earlier row"):
        proof_from_doc(doc)
    doc["formulas"][i][1] = len(doc["formulas"])
    with pytest.raises(FormatError, match=f"^formula row {i}: formula index .* out of range"):
        proof_from_doc(doc)
    doc["formulas"][i][1] = "0"
    with pytest.raises(FormatError, match=f"^formula row {i}: expected a formula index"):
        proof_from_doc(doc)


def test_variable_table_rows_are_pairs(pipelines):
    doc = _plus_doc(pipelines)
    doc["variables"][0] = ["x"]
    with pytest.raises(FormatError, match="variable row 0 is not a \\[name, sort\\] pair"):
        proof_from_doc(doc)


def test_deep_formulas_are_refused(pipelines):
    # through the table: a few bytes a level, no nesting in the JSON
    doc = _plus_doc(pipelines)
    n = len(doc["formulas"])
    doc["formulas"] += [["imp", n + k - 1, n + k - 1] for k in range(MAX_FORMULA_DEPTH)]
    doc["nodes"][0]["seq"]["concl"] = len(doc["formulas"]) - 1
    with pytest.raises(FormatError, match=f"nests deeper than {MAX_FORMULA_DEPTH} levels"):
        proof_from_doc(doc)
    # inline, deep enough to exhaust the recursion limit if it were followed
    doc = _plus_doc(pipelines)
    deep = 0
    for _ in range(5000):
        deep = ["imp", deep, 0]
    doc["nodes"][0]["seq"]["concl"] = deep
    with pytest.raises(FormatError, match=f"^node 0: formula nests deeper than {MAX_FORMULA_DEPTH}"):
        proof_from_doc(doc)


def test_loads_refuses_json_nested_past_the_recursion_limit():
    text = '{"format": "cycind/proof@1", "x": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(FormatError, match="not valid JSON: nested too deeply"):
        loads(text)
