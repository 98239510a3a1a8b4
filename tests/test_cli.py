"""The command line, run in process through main()."""

import json
from pathlib import Path

import pytest

from cycind import formats
from cycind.cli import main
from cycind.sct import closure

import systems

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_sct_terminating(capsys):
    code, out, err = run(capsys, "sct", DATA / "plus.fun")
    assert (code, out, err) == (0, "terminating (closure size 3)\n", "")


def test_sct_non_terminating(capsys):
    code, out, err = run(capsys, "sct", DATA / "loop.fun")
    assert code == 1
    assert out == (
        "non-terminating: cycle with no progressing trace\n"
        "  prefix: (empty)\n"
        "  cycle:  f.0\n"
        "  (closure size 1)\n"
    )


def test_sct_json(capsys):
    code, out, err = run(capsys, "sct", DATA / "ack.fun", "--json")
    assert code == 0
    assert json.loads(out) == {
        "terminating": True,
        "closure_size": 2,
        "counterexample": None,
    }


def test_sct_json_counterexample(capsys):
    code, out, err = run(capsys, "sct", DATA / "loop.fun", "--json")
    assert code == 1
    assert json.loads(out)["counterexample"] == {"prefix": [], "cycle": ["f.0"]}


def test_sct_unknown_roots(capsys):
    code, out, err = run(capsys, "sct", DATA / "plus.fun", "--roots", "nosuch")
    assert (code, err) == (2, "error: unknown roots: nosuch\n")


def test_sct_on_derivation_document(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    path = tmp_path / "deriv.json"
    path.write_text(formats.dumps(formats.derivation_to_doc(p.deriv, p.system)))
    code, out, err = run(capsys, "sct", path)
    assert (code, out) == (0, "terminating (closure size 3)\n")


def test_sct_refuses_proof_documents(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    path = tmp_path / "proof.json"
    path.write_text(formats.dumps(formats.proof_to_doc(p.proof, p.system)))
    code, out, err = run(capsys, "sct", path)
    assert code == 2
    assert err == "error: cannot run termination analysis on a proof document\n"


def test_unravel_writes_a_checkable_proof(capsys, tmp_path):
    out_path = tmp_path / "proof.json"
    code, out, err = run(capsys, "unravel", DATA / "plus.fun", "--out", out_path)
    assert code == 0
    assert out == f"wrote proof: 25 nodes, 1 induction applications -> {out_path}\n"
    kind, _ = formats.loads(out_path.read_text())
    assert kind == "proof"
    code, out, err = run(capsys, "verify", out_path)
    assert code == 0
    assert out == (
        "ok: 25 nodes, conclusion [x0_0:Nat, x0_1:Nat]  |- plus(x0_0, x0_1)\n"
    )


def test_unravel_to_stdout(capsys):
    code, out, err = run(capsys, "unravel", DATA / "plus.fun")
    assert code == 0
    kind, (sysm, proof) = formats.loads(out)
    assert kind == "proof"


def test_unravel_trace_and_dot(capsys, tmp_path):
    dot_path = tmp_path / "rep.dot"
    code, out, err = run(
        capsys, "unravel", DATA / "plus.fun",
        "--out", tmp_path / "p.json", "--trace", "--dot", dot_path,
    )
    assert code == 0
    assert out.startswith((GOLDEN / "plus.trace").read_text())
    assert out.endswith("induction applications -> " + str(tmp_path / "p.json") + "\n")
    assert dot_path.read_text().startswith("digraph")


def test_unravel_trace_without_out_keeps_stdout_a_document(capsys, tmp_path):
    code, out, err = run(capsys, "unravel", DATA / "plus.fun", "--trace")
    assert code == 0
    assert err == (GOLDEN / "plus.trace").read_text()
    run(capsys, "unravel", DATA / "plus.fun", "--out", tmp_path / "p.json")
    assert json.loads(out) == json.loads((tmp_path / "p.json").read_text())


def test_unravel_unsound_input(capsys):
    code, out, err = run(capsys, "unravel", DATA / "loop.fun")
    assert code == 1
    assert err == (
        "input is not sound: cycle with no progressing trace\n"
        "  prefix: (empty)\n"
        "  cycle:  f.0\n"
    )
    assert out == ""


def test_unravel_lasso_starts_at_the_chosen_function(capsys, tmp_path):
    src = tmp_path / "gf.fun"
    src.write_text("sort Nat = 0 | suc(Nat)\nfun g(Nat)\nfun f(Nat)\n"
                   "g(x0) := f(x0)\nf(x0) := f(x0)\n")
    code, out, err = run(capsys, "unravel", src, "--fun", "g")
    assert (code, out) == (1, "")
    assert err == (
        "input is not sound: cycle with no progressing trace\n"
        "  prefix: g.0\n"
        "  cycle:  f.0\n"
    )
    # sct reports over all roots
    code, out, err = run(capsys, "sct", src)
    assert code == 1 and "  prefix: (empty)\n  cycle:  f.0\n" in out


@pytest.mark.parametrize("calls, cycle", [
    # the two functions of the lasso each make one call
    ([("c", "f", "g", []), ("d", "g", "f", [])], "c d"),
    # "over" is f's second call in the source's order, f.1 in the derivation
    ([("down", "f", "f", [[0, 0, ">"]]), ("back", "g", "f", []), ("over", "f", "g", [])],
     "over back"),
])
def test_unravel_lasso_names_the_source_calls(capsys, tmp_path, calls, cycle):
    src = tmp_path / "lasso.json"
    src.write_text(json.dumps({
        "format": "cycind/callsystem@1", "functions": {"f": ["*"], "g": ["*"]},
        "ind_sorts": ["*"],
        "calls": [{"id": i, "dom": f, "codom": g, "edges": e} for i, f, g, e in calls]}))
    code, out, err = run(capsys, "unravel", src)
    assert (code, out) == (1, "")
    assert err == (
        "input is not sound: cycle with no progressing trace\n"
        "  prefix: (empty)\n"
        f"  cycle:  {cycle}\n"
    )
    # sct names the same calls, though it may start the cycle elsewhere
    code, out, _err = run(capsys, "sct", src, "--json")
    assert code == 1 and sorted(json.loads(out)["counterexample"]["cycle"]) == sorted(cycle.split())


def test_unravel_an_argument_of_a_non_inductive_sort(capsys, tmp_path):
    # no size-change edge touches B, so no order fact may speak of it
    src, proof = tmp_path / "fb.json", tmp_path / "fb.proof.json"
    src.write_text(json.dumps({
        "format": "cycind/callsystem@1", "functions": {"f": ["Nat", "B"]},
        "ind_sorts": ["Nat"],
        "calls": [{"id": "c", "dom": "f", "codom": "f", "edges": [[0, 0, ">"]]}]}))
    assert run(capsys, "sct", src) == (0, "terminating (closure size 1)\n", "")
    assert run(capsys, "unravel", src, "--out", proof) == (
        0, f"wrote proof: 21 nodes, 1 induction applications -> {proof}\n", "")
    assert run(capsys, "verify", proof, "--source", src) == (
        0, "ok: 21 nodes, conclusion [x0_0:Nat, x0_1:B]  |- f(x0_0, x0_1)\n", "")


def test_unravel_a_call_system_without_functions(capsys, tmp_path):
    src = tmp_path / "empty.fun"
    src.write_text("sort Nat = 0\n")
    code, out, err = run(capsys, "unravel", src)
    assert (code, out) == (2, "")
    assert err == f"error: {src}: the call system has no function to unravel\n"
    assert run(capsys, "sct", src) == (0, "terminating (closure size 0)\n", "")


@pytest.mark.parametrize("value", ["abc", "-1", "0", "1.5"])
def test_unravel_refuses_a_malformed_unfold_cap(capsys, monkeypatch, value):
    monkeypatch.setenv("CYCIND_UNFOLD_CAP", value)
    code, out, err = run(capsys, "unravel", DATA / "plus.fun")
    assert (code, out) == (2, "")
    assert err == f"error: CYCIND_UNFOLD_CAP must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("name, fun, cap, verb", [("dist", "d", 10, "unfolding"),
                                                  ("drawn_crossing", "f0", 100, "re-unfolding")])
def test_unravel_reports_a_tripped_unfold_cap(capsys, monkeypatch, tmp_path, name, fun, cap, verb):
    # phase one trips on dist; drawn_crossing unfolds in 10 nodes and trips in the replay
    src = tmp_path / f"{name}.json"
    src.write_text(formats.dumps(formats.call_system_to_doc(systems.load(name))))
    monkeypatch.setenv("CYCIND_UNFOLD_CAP", str(cap))
    code, out, err = run(capsys, "unravel", src, "--fun", fun, "--out", tmp_path / "p.json")
    assert (code, out) == (2, "")
    assert err == f"error: {verb} exceeded {cap} nodes; set CYCIND_UNFOLD_CAP to raise the limit\n"
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("name", ["plus", "fg", "ack", "dist"])
def test_unravel_decides_soundness_once(capsys, tmp_path, calls_to, name):
    src = tmp_path / f"{name}.json"
    src.write_text(formats.dumps(formats.call_system_to_doc(systems.load(name))))
    argv = ["unravel", str(src), "--fun", systems.ROOT_FUN[name], "--out", str(tmp_path / "p.json")]
    calls, code = calls_to(closure, lambda: main(argv))
    assert (len(calls), code) == (1, 0)
    capsys.readouterr()


def test_unravel_fun_selects_and_rejects(capsys, tmp_path, pipelines):
    code, out, err = run(capsys, "unravel", DATA / "plus.fun", "--fun", "nosuch")
    assert (code, err) == (2, "error: no function 'nosuch' in the input\n")
    p = pipelines["plus"]
    path = tmp_path / "deriv.json"
    path.write_text(formats.dumps(formats.derivation_to_doc(p.deriv, p.system)))
    code, out, err = run(capsys, "unravel", path, "--fun", "plus")
    assert (code, err) == (2, "error: --fun only applies to call-system inputs\n")


def test_verify_flags_a_broken_proof(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    doc = formats.proof_to_doc(p.proof, p.system)
    doc["nodes"][doc["root"]]["rule"] = "bogus"
    path = tmp_path / "bad.json"
    path.write_text(formats.dumps(doc))
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (1, "invalid proof: at root: unknown rule 'bogus'\n")


def test_unravel_reports_a_rejected_translation(capsys, monkeypatch, tmp_path):
    # the kernel's verdict on a translated proof exits 2 like any other error
    import cycind.translate

    real = cycind.translate.translate
    monkeypatch.setattr(cycind.translate, "translate", lambda rep: real(rep).replace(rule="bogus"))
    out_path = tmp_path / "P"
    code, out, err = run(capsys, "unravel", DATA / "plus.fun", "--out", out_path)
    assert (code, out, err) == (2, "", "error: at root: unknown rule 'bogus'\n")
    assert not out_path.exists()


def test_unravel_refuses_a_proof_document(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    path = tmp_path / "proof.json"
    path.write_text(formats.dumps(formats.proof_to_doc(p.proof, p.system)))
    code, out, err = run(capsys, "unravel", path)
    assert (code, out, err) == (2, "", "error: cannot unravel a proof document\n")


def test_verify_wants_proofs(capsys):
    code, out, err = run(capsys, "verify", DATA / "plus.fun")
    assert (code, err) == (2, "error: verify expects a proof document, found callsystem\n")


def _source(tmp_path, name):
    """The source of a worked system: its ``.fun`` text, or a call-system
    document for ``fg``, which has none."""
    if name in systems.TEXTS:
        path = tmp_path / f"{name}.fun"
        path.write_text(systems.TEXTS[name])
    else:
        path = tmp_path / f"{name}.cs.json"
        path.write_text(formats.dumps(formats.call_system_to_doc(systems.load(name))))
    return path


def _proof_file(tmp_path, p, name="proof.json"):
    path = tmp_path / name
    path.write_text(formats.dumps(formats.proof_to_doc(p.proof, p.system)))
    return path


@pytest.mark.parametrize("name", ["plus", "fg", "ack", "dist", "treedist"])
def test_verify_against_the_source(capsys, tmp_path, pipelines, name):
    path = _proof_file(tmp_path, pipelines[name])
    code, out, err = run(capsys, "verify", path)
    assert code == 0 and err == ""
    src = _source(tmp_path, name)
    assert run(capsys, "verify", path, "--source", src, "--fun", systems.ROOT_FUN[name]) == (0, out, "")


def test_verify_against_a_derivation_source(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    deriv = tmp_path / "deriv.json"
    deriv.write_text(formats.dumps(formats.derivation_to_doc(p.deriv, p.system)))
    code, out, err = run(capsys, "verify", _proof_file(tmp_path, p), "--source", deriv)
    assert (code, err) == (0, "")
    assert out.startswith("ok: 25 nodes")


def _forged_axiom(pipelines):
    """The ``plus`` document with a premise-less rule for ``plus`` added to its
    system, and a one-node proof by that rule of the real statement."""
    p = pipelines["plus"]
    doc = formats.proof_to_doc(p.proof, p.system)
    doc["system"]["rules"].append({"id": "axiom", "conclusion": "plus", "premises": [], "graphs": []})
    root = doc["nodes"][doc["root"]]
    doc["nodes"] = [{"rule": "c_rule", "seq": root["seq"], "children": [], "data": ["axiom"]}]
    doc["root"] = 0
    return doc


def test_verify_source_refuses_a_forged_system(capsys, tmp_path, pipelines):
    path = tmp_path / "forged.json"
    path.write_text(formats.dumps(_forged_axiom(pipelines)))
    # the kernel alone accepts it: the rule is in the document's own system
    statement = "conclusion [x0_0:Nat, x0_1:Nat]  |- plus(x0_0, x0_1)\n"
    assert run(capsys, "verify", path) == (0, f"ok: 1 nodes, {statement}", "")
    src = _source(tmp_path, "plus")
    assert run(capsys, "verify", path, "--source", src) == (
        1, "", f"invalid proof: the document's system is not the one {src} induces\n")


def test_verify_source_refuses_another_statement(capsys, tmp_path, pipelines):
    # fg's proof is of f; g's statement is another judgment of the same system
    path = _proof_file(tmp_path, pipelines["fg"])
    src = _source(tmp_path, "fg")
    assert run(capsys, "verify", path, "--source", src, "--fun", "g") == (
        1, "", "invalid proof: the conclusion is not g at its context variables with no hypotheses\n")


@pytest.mark.parametrize("argv, message", [
    (["--fun", "plus"], "--fun only applies with --source"),
    (["--source", "{proof}"], "--source expects a call system or a derivation, found proof"),
    (["--source", "{src}", "--fun", "nosuch"], "no function 'nosuch' in the input"),
], ids=["fun_alone", "proof_source", "unknown_fun"])
def test_verify_source_usage_errors(capsys, tmp_path, pipelines, argv, message):
    proof = _proof_file(tmp_path, pipelines["plus"])
    src = _source(tmp_path, "plus")
    argv = [a.format(proof=proof, src=src) for a in argv]
    assert run(capsys, "verify", proof, *argv) == (2, "", f"error: {message}\n")


def test_show_call_system(capsys):
    code, out, err = run(capsys, "show", DATA / "plus.fun")
    assert code == 0
    assert out == (
        "call system: 1 functions, 1 calls\n"
        "  fun plus(Nat, Nat)\n"
        "  plus.0: plus -> plus  {0>1, 1>=0}\n"
    )


def test_show_derivation(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    path = tmp_path / "deriv.json"
    path.write_text(formats.dumps(formats.derivation_to_doc(p.deriv, p.system)))
    code, out, err = run(capsys, "show", path)
    assert (code, out) == (0, "derivation: 1 nodes, root plus\n  plus: plus [plus]\n")


def test_show_dot_of_a_derivation(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    path = tmp_path / "deriv.json"
    path.write_text(formats.dumps(formats.derivation_to_doc(p.deriv, p.system)))
    code, out, err = run(capsys, "show", path, "--dot")
    assert (code, err) == (0, "")
    assert out == (
        "digraph derivation {\n"
        "  node [shape=box];\n"
        '  "plus" [label="plus: plus : plus"];\n'
        '  "plus" -> "plus" [label="0"];\n'
        '  "plus" [penwidth=2];\n'
        "}\n"
    )


def test_show_proof_histogram(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    path = tmp_path / "proof.json"
    path.write_text(formats.dumps(formats.proof_to_doc(p.proof, p.system)))
    code, out, err = run(capsys, "show", path)
    assert code == 0
    assert out == (
        "proof: 25 nodes\n"
        "  conclusion: [x0_0:Nat, x0_1:Nat]  |- plus(x0_0, x0_1)\n"
        "  assumption: 11\n"
        "  c_rule: 2\n"
        "  forall_elim: 3\n"
        "  forall_intro: 1\n"
        "  gt_ind: 1\n"
        "  imp_elim: 1\n"
        "  inst: 3\n"
        "  trans: 3\n"
    )


def test_show_dot(capsys, tmp_path, pipelines):
    code, out, err = run(capsys, "show", DATA / "plus.fun", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    path = tmp_path / "proof.json"
    p = pipelines["plus"]
    path.write_text(formats.dumps(formats.proof_to_doc(p.proof, p.system)))
    code, out, err = run(capsys, "show", path, "--dot")
    assert (code, err) == (2, "error: no dot rendering for proof documents\n")


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "sct", tmp_path / "nosuch.fun")
    assert code == 2
    assert err.startswith("error: ")
    assert "nosuch.fun" in err


@pytest.mark.parametrize("cmd, name", [("sct", "latin1.fun"), ("verify", "latin1.json")])
def test_input_that_is_not_utf8(capsys, tmp_path, cmd, name):
    path = tmp_path / name
    path.write_bytes("fun f(Nat) # café\n".encode("latin-1"))
    code, out, err = run(capsys, cmd, path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8 text (")


@pytest.mark.parametrize("flag", ["--out", "--dot"])
def test_unwritable_output(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "unravel", DATA / "plus.fun", flag, target)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert str(target) in err


def test_parse_error_in_fun_source(capsys, tmp_path):
    path = tmp_path / "broken.fun"
    path.write_text("sort Nat = 0\nfun f(Nat)\nf(x) := x ? x\n")
    code, out, err = run(capsys, "sct", path)
    assert code == 2
    assert err == f"error: {path}: line 3: unexpected character '?'\n"


@pytest.mark.parametrize("cmd", ["sct", "unravel", "show"])
@pytest.mark.parametrize("clause", [
    "f(suc(x)) := " + "suc(" * 600 + "x" + ")" * 600,
    "f(" + "suc(" * 600 + "x" + ")" * 600 + ") := f(x)",
    "f(suc(x)) := " + " + ".join(["x"] * 2000),
], ids=["body", "pattern", "operators"])
def test_deep_term_in_fun_source(capsys, tmp_path, cmd, clause):
    path = tmp_path / "deep.fun"
    path.write_text(f"sort Nat = 0 | suc(Nat)\nfun f(Nat)\n{clause}\n")
    code, out, err = run(capsys, cmd, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 3: term nests deeper than 128 levels\n"


@pytest.mark.parametrize("cmd", ["verify", "show"])
@pytest.mark.parametrize("depth", [20, 60])
def test_formula_tables_that_double_exit_2(capsys, tmp_path, pipelines, cmd, depth):
    # a few hundred bytes whose formula table doubles the tree at each row;
    # the reader refuses it, so neither the kernel nor the renderer walks it
    # (the reader is asked first, so that one which accepts it fails there)
    p = pipelines["plus"]
    doc = formats.proof_to_doc(p.proof, p.system)
    n = len(doc["formulas"])
    doc["formulas"] += [[">=", "Nat", ["v", "x0_0"], ["v", "x0_0"]]]
    doc["formulas"] += [["imp", n + k, n + k] for k in range(depth)]
    doc["nodes"][0]["seq"]["concl"] = n + depth
    message = f"formula row {n + 16}: formula has more than 100000 nodes as a tree"
    with pytest.raises(formats.FormatError, match=f"^{message}$"):
        formats.proof_from_doc(doc)
    path = tmp_path / "doubling.json"
    path.write_text(formats.dumps(doc))
    assert run(capsys, cmd, path) == (2, "", f"error: {path}: {message}\n")


def test_bad_json_document(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert err.startswith(f"error: {path}: not valid JSON")


def test_verify_refuses_a_deeply_nested_formula(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    doc = formats.proof_to_doc(p.proof, p.system)
    doc["nodes"][doc["root"]]["seq"]["concl"] = "DEEP"
    deep = '["imp", ' * 3000 + "0" + ", 0]" * 3000
    path = tmp_path / "deep.json"
    path.write_text(formats.dumps(doc).replace('"DEEP"', deep))
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not valid JSON: nested too deeply\n"


def test_verify_refuses_null_hypotheses(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    doc = formats.proof_to_doc(p.proof, p.system)
    doc["nodes"][0]["seq"]["hyps"] = None
    path = tmp_path / "null.json"
    path.write_text(formats.dumps(doc))
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: node 0: hyps must be an array, found null\n"


def test_verify_refuses_a_document_without_a_system(capsys, tmp_path):
    path = tmp_path / "nosystem.json"
    path.write_text('{"format": "cycind/proof@1"}')
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: document: missing 'system'\n"


@pytest.mark.parametrize("damage, message", [
    (lambda s: s.pop("rules"), "system: missing 'rules'"),
    (lambda s: s.update(judgments=None), "system: judgments must be an array, found null"),
    (lambda s: s["judgments"][0].update(ob="2"), "system judgment 0: ob must be an integer, found a string"),
    (lambda s: s["judgments"][0].update(ob=3), "system judgment plus: 2 sorts for 3 objects"),
    (lambda s: s["rules"][0]["graphs"].append([]), "system rule 'plus': 2 graphs for 1 premises"),
    (lambda s: s["rules"][0]["graphs"][0].append([0, 7, ">"]), "system rule 'plus' graph 0: edge (0,7) out of range"),
    (lambda s: s["rules"][0]["graphs"][0].append(None), "system rule 'plus' graph 0: malformed edge None"),
    (lambda s: s.update(ind_sorts=[1]), "system: ind_sorts must be an array of strings"),
])
def test_verify_refuses_a_malformed_system(capsys, tmp_path, pipelines, damage, message):
    p = pipelines["plus"]
    doc = formats.proof_to_doc(p.proof, p.system)
    damage(doc["system"])
    path = tmp_path / "badsystem.json"
    path.write_text(formats.dumps(doc))
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {message}")


def _node_without_rule(doc):
    del doc["nodes"][0]["rule"]
    return doc


def _changed(doc, *path_and_value):
    """``doc`` with the value at ``path`` (keys and indices) replaced."""
    *path, key, value = path_and_value
    at = doc
    for k in path:
        at = at[k]
    at[key] = value
    return doc


def _twice(doc, *path):
    """``doc`` with the first row of the table at ``path`` (keys) repeated."""
    at = doc
    for k in path:
        at = at[k]
    at.append(at[0])
    return doc


NAT_EDGES = ("call system: call plus.0: edge 0->1 touches non-inductive sort 'Nat'; "
             "call plus.0: edge 1->0 touches non-inductive sort 'Nat'")
RULE_NAT_EDGES = ("system: rule plus premise 0: edge 0->1 touches non-inductive sort 'Nat'; "
                  "rule plus premise 0: edge 1->0 touches non-inductive sort 'Nat'")


@pytest.mark.parametrize("cmd, make, message", [
    ("sct", lambda p: {"format": formats.CALLSYSTEM}, "document: missing 'functions'"),
    ("sct", lambda p: _node_without_rule(formats.derivation_to_doc(p.deriv, p.system)),
     "derivation node 0: missing 'rule'"),
    ("sct", lambda p: {"format": formats.CALLSYSTEM, "functions": {"f": ["Nat"]}, "ind_sorts": ["Nat"],
                       "calls": [{"id": "c", "dom": "f", "codom": "f", "edges": [[0, 5, ">"]]}]},
     "call 'c': edge (0,5) out of range for 1->1"),
    ("sct", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "nodes", 0, "children", 0, "nosuch"),
     "derivation: node plus: child 'nosuch' missing"),
    ("unravel", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "nodes", 0, "children", 0, "nosuch"),
     "derivation: node plus: child 'nosuch' missing"),
    ("sct", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "root", "nosuch"),
     "derivation: root 'nosuch' is not a node"),
    ("unravel", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "root", "nosuch"),
     "derivation: root 'nosuch' is not a node"),
    ("sct", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "nodes", 0, "children", ["plus", "plus"]),
     "derivation: node plus: 2 children for 1 premises"),
    ("unravel", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "nodes", 0, "children", ["plus", "plus"]),
     "derivation: node plus: 2 children for 1 premises"),
    ("sct", lambda p: _twice(formats.call_system_to_doc(p.cs), "calls"),
     "call system: duplicate call id 'plus.0'"),
    ("unravel", lambda p: _twice(formats.call_system_to_doc(p.cs), "calls"),
     "call system: duplicate call id 'plus.0'"),
    ("sct", lambda p: _changed(formats.call_system_to_doc(p.cs), "ind_sorts", []), NAT_EDGES),
    ("unravel", lambda p: _changed(formats.call_system_to_doc(p.cs), "ind_sorts", []), NAT_EDGES),
    ("sct", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "system", "ind_sorts", []),
     RULE_NAT_EDGES),
    ("unravel", lambda p: _changed(formats.derivation_to_doc(p.deriv, p.system), "system", "ind_sorts", []),
     RULE_NAT_EDGES),
    ("sct", lambda p: _twice(formats.derivation_to_doc(p.deriv, p.system), "system", "judgments"),
     "system judgment 'plus' declared twice"),
    ("sct", lambda p: _twice(formats.derivation_to_doc(p.deriv, p.system), "system", "rules"),
     "system rule 'plus' declared twice"),
])
def test_readers_refuse_malformed_documents(capsys, tmp_path, pipelines, cmd, make, message):
    path = tmp_path / "bad.json"
    path.write_text(formats.dumps(make(pipelines["plus"])))
    code, out, err = run(capsys, cmd, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("cmd", ["sct", "unravel", "verify", "show"])
@pytest.mark.parametrize("tag, shown", [
    ([], "[]"),
    ({}, "{}"),
    ("cycind/resetrep@1", "'cycind/resetrep@1'"),  # no longer a document kind
])
def test_readers_refuse_unknown_format_tags(capsys, tmp_path, cmd, tag, shown):
    # an array or object tag used to crash the kind lookup with a TypeError
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": tag}))
    code, out, err = run(capsys, cmd, path)
    assert (code, out, err) == (2, "", f"error: {path}: unknown format tag {shown}\n")


# proof node rows have no id to repeat: a row's id is its position
@pytest.mark.parametrize("cmd, make, message", [
    ("sct", lambda p: _twice(formats.derivation_to_doc(p.deriv, p.system), "nodes"),
     "derivation node 1: repeated id 'plus'"),
])
def test_readers_refuse_repeated_node_ids(capsys, tmp_path, pipelines, cmd, make, message):
    # a repeated row used to replace the earlier one silently
    path = tmp_path / "bad.json"
    path.write_text(formats.dumps(make(pipelines["plus"])))
    code, out, err = run(capsys, cmd, path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
