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
    assert out == f"wrote proof: 53 nodes, 1 induction applications -> {out_path}\n"
    kind, _ = formats.loads(out_path.read_text())
    assert kind == "proof"
    code, out, err = run(capsys, "verify", out_path)
    assert code == 0
    assert out == (
        "ok: 53 nodes, conclusion [x0_0:Nat, x0_1:Nat]  |- plus(x0_0, x0_1)\n"
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


def test_unravel_a_call_system_without_functions(capsys, tmp_path):
    src = tmp_path / "empty.fun"
    src.write_text("sort Nat = 0\n")
    code, out, err = run(capsys, "unravel", src)
    assert (code, out) == (2, "")
    assert err == f"error: {src}: the call system has no function to unravel\n"
    assert run(capsys, "sct", src) == (0, "terminating (closure size 0)\n", "")


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


def test_unravel_refuses_reps(capsys, tmp_path, pipelines):
    path = tmp_path / "rep.json"
    path.write_text(formats.dumps(formats.rep_to_doc(pipelines["plus"].rep)))
    code, out, err = run(capsys, "unravel", path)
    assert (code, err) == (2, "error: cannot unravel a resetrep document\n")


def test_verify_flags_a_broken_proof(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    doc = formats.proof_to_doc(p.proof, p.system)
    doc["nodes"][doc["root"]]["rule"] = "bogus"
    path = tmp_path / "bad.json"
    path.write_text(formats.dumps(doc))
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (1, "invalid proof: at root: unknown rule 'bogus'\n")


def test_verify_wants_proofs(capsys):
    code, out, err = run(capsys, "verify", DATA / "plus.fun")
    assert (code, err) == (2, "error: verify expects a proof document, found callsystem\n")


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


def test_show_rep_renders_the_trace(capsys, tmp_path, pipelines):
    path = tmp_path / "rep.json"
    path.write_text(formats.dumps(formats.rep_to_doc(pipelines["plus"].rep)))
    code, out, err = run(capsys, "show", path)
    assert code == 0
    assert out == (GOLDEN / "plus.trace").read_text()


def test_show_proof_histogram(capsys, tmp_path, pipelines):
    p = pipelines["plus"]
    path = tmp_path / "proof.json"
    path.write_text(formats.dumps(formats.proof_to_doc(p.proof, p.system)))
    code, out, err = run(capsys, "show", path)
    assert code == 0
    assert out == (
        "proof: 53 nodes\n"
        "  conclusion: [x0_0:Nat, x0_1:Nat]  |- plus(x0_0, x0_1)\n"
        "  assumption: 19\n"
        "  c_rule: 2\n"
        "  forall_elim: 6\n"
        "  forall_intro: 3\n"
        "  geq_refl: 4\n"
        "  geq_subsum: 2\n"
        "  gt_ind: 1\n"
        "  imp_elim: 6\n"
        "  imp_intro: 3\n"
        "  inst: 4\n"
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
    ("show", lambda p: {k: v for k, v in formats.rep_to_doc(p.rep).items() if k != "deriv"},
     "document: missing 'deriv'"),
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
    ("show", lambda p: _changed(formats.rep_to_doc(p.rep), "nodes", 0, "children", 0, "nosuch"),
     "node 'n0': child 'nosuch' is not a node"),
    ("show", lambda p: _changed(formats.rep_to_doc(p.rep), "root", "nosuch"),
     "document: root 'nosuch' is not a node"),
    ("show", lambda p: _changed(formats.rep_to_doc(p.rep), "nodes", 1, "parent", "nosuch"),
     "node 'n1': parent 'nosuch' is not a node"),
    ("show", lambda p: _changed(formats.rep_to_doc(p.rep), "nodes", 2, "sprout", "nosuch"),
     "node 'n2': sprout 'nosuch' is not a node"),
    ("show", lambda p: _changed(formats.rep_to_doc(p.rep), "deriv", "nodes", 0, "children", 0, "nosuch"),
     "deriv: node plus: child 'nosuch' missing"),
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


@pytest.mark.parametrize("cmd, make, message", [
    ("sct", lambda p: _twice(formats.derivation_to_doc(p.deriv, p.system), "nodes"),
     "derivation node 1: repeated id 'plus'"),
    ("show", lambda p: _twice(formats.rep_to_doc(p.rep), "nodes"), "node 3: repeated id 'n0'"),
    ("show", lambda p: _twice(formats.rep_to_doc(p.rep), "deriv", "nodes"), "deriv node 1: repeated id 'plus'"),
    ("verify", lambda p: _twice(formats.proof_to_doc(p.proof, p.system), "nodes"),
     "node row 53: repeated id 0"),
])
def test_readers_refuse_repeated_node_ids(capsys, tmp_path, pipelines, cmd, make, message):
    # a repeated row used to replace the earlier one silently
    path = tmp_path / "bad.json"
    path.write_text(formats.dumps(make(pipelines["plus"])))
    code, out, err = run(capsys, cmd, path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
