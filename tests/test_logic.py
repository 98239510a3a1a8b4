"""Direct exercises of the proof kernel: constructors build, check_proof judges."""

import pytest

from cycind import (
    Call,
    CallSystem,
    GEQ,
    GT,
    LogicError,
    SizeChangeGraph,
    check_proof,
    count_rule,
    induced_proof_system,
    proof_size,
)
from cycind.logic import (
    Atom,
    BoundV,
    Forall,
    FreeV,
    Geq,
    Gt,
    Imp,
    Sequent,
    assumption,
    c_apply,
    close_free,
    cut,
    distinct_nodes,
    expand_ind_prime,
    forall_elim,
    forall_intro,
    fold_imp,
    free_vars,
    geq_refl,
    geq_trans,
    gt_ind,
    imp_intro,
    ind_hypothesis,
    open_bound,
    rename,
    render_formula,
    subst_free,
)

import systems

NAT = "Nat"


@pytest.fixture(scope="module")
def plus_system():
    sysm, _ = induced_proof_system(systems.load("plus"))
    return sysm


def x(name):
    return FreeV(name)


def test_render_and_free_vars():
    f = Forall(NAT, Imp(Geq(NAT, BoundV(0), x("x")), Atom("plus", (BoundV(0), x("x")))),
               hint="z")
    assert render_formula(f) == "all z:Nat. z >= x -> plus(z, x)"
    assert free_vars(f) == {"x"}


def test_open_close_round_trip():
    body = Imp(Geq(NAT, BoundV(0), x("x")), Atom("plus", (BoundV(0), x("x"))))
    opened = open_bound(body, "w")
    assert render_formula(opened) == "w >= x -> plus(w, x)"
    assert close_free(opened, "w") == body


def test_subst_free_renames():
    phi = Imp(Gt(NAT, x("a"), x("b")), Atom("plus", (x("a"), x("b"))))
    assert render_formula(subst_free(phi, {"a": "q"})) == "q > b -> plus(q, b)"


def test_fold_imp():
    phi = fold_imp([Gt(NAT, x("a"), x("b"))], Atom("plus", (x("a"), x("b"))))
    assert render_formula(phi) == "a > b -> plus(a, b)"


# three distinct hypotheses over [x:Nat, y:Nat] for the assumption rule
ASSUMPTION_CTX = (("x", NAT), ("y", NAT))
ASSUMPTION_HYPS = (Atom("plus", (x("x"), x("y"))), Gt(NAT, x("x"), x("y")), Geq(NAT, x("y"), x("x")))


def test_assumption(plus_system):
    for k in range(3):
        d = assumption(ASSUMPTION_CTX, ASSUMPTION_HYPS, k)
        assert d.rule == "assumption" and d.data == (k,) and d.children == ()
        assert d.seq.concl == ASSUMPTION_HYPS[k]
        check_proof(plus_system, d)


@pytest.mark.parametrize("change, message", [
    ({"data": (3,)}, "assumption position 3 out of range for 3 hypotheses"),
    ({"data": (-1,)}, "assumption position -1 out of range for 3 hypotheses"),
    ({"data": ()}, "assumption needs one integer hypothesis position"),
    ({"data": (0, 0)}, "assumption needs one integer hypothesis position"),
    ({"data": ("0",)}, "assumption needs one integer hypothesis position"),
    ({"data": (True,)}, "assumption needs one integer hypothesis position"),
    ({"data": (1,)}, "assumption conclusion is not hypothesis 1"),
    ({"children": (assumption(ASSUMPTION_CTX, ASSUMPTION_HYPS, 0),)}, "assumption expects 0 premises, got 1"),
])
def test_assumption_rejects_a_bad_node(plus_system, change, message):
    bad = assumption(ASSUMPTION_CTX, ASSUMPTION_HYPS, 0).replace(**change)
    with pytest.raises(LogicError, match=message) as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()


def test_identity_rows_no_longer_check(pipelines):
    from cycind import formats
    p = pipelines["plus"]
    # rows of the layouts before the assumption and cut rules; the sequent
    # stays as it is, so no rule above the row objects before the kernel
    # reaches it, and the rule name is judged before its data
    for rule, data in (("identity", []), ("exchange", [3]), ("weakening", [])):
        doc = formats.proof_to_doc(p.proof, p.system)
        row = next(r for r in doc["nodes"] if r["rule"] == "assumption")
        row.update(rule=rule, data=data)
        system, proof = formats.proof_from_doc(doc)
        with pytest.raises(LogicError, match=f"unknown rule '{rule}'") as exc:
            check_proof(system, proof)
        assert exc.value.path


def test_quantifier_round_trip(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    phi = Atom("plus", (x("x"), x("y")))
    d = forall_intro(imp_intro(assumption(ctx, (phi,), 0)))
    assert d.seq.render() == "[x:Nat]  |- all y:Nat. plus(x, y) -> plus(x, y)"
    check_proof(plus_system, d)
    d2 = forall_elim(d, "x")
    assert d2.seq.concl == Imp(Atom("plus", (x("x"), x("x"))),
                               Atom("plus", (x("x"), x("x"))))
    check_proof(plus_system, d2)


def test_inequality_rules(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    r = geq_refl(ctx, (), NAT, "x")
    check_proof(plus_system, r)
    t = geq_trans(r, r)
    assert t.seq.concl == Geq(NAT, x("x"), x("x"))
    check_proof(plus_system, t)


def test_minimal_induction(plus_system):
    target = Sequent((("x", NAT),), (), Geq(NAT, x("x"), x("x")))
    ih = ind_hypothesis(target, "x")
    assert render_formula(ih) == "all x':Nat. x > x' -> x' >= x'"
    prem = geq_refl((("x", NAT),), (ih,), NAT, "x")
    d = gt_ind(prem)
    assert d.seq.render() == "[]  |- all x:Nat. x >= x"
    check_proof(plus_system, d)


def test_c_apply_base_and_step():
    cs = CallSystem({"f": ("*",), "g": ("*",)},
                    (Call("c", "g", "f", SizeChangeGraph(1, 1, frozenset({(0, 0, GT)}))),))
    sys2, _ = induced_proof_system(cs)
    base = c_apply(sys2, "f", (("x", "*"),), (), ("x",), ())
    check_proof(sys2, base)
    inner = c_apply(sys2, "f", (("x", "*"), ("u", "*")),
                    (Gt("*", x("x"), x("u")),), ("u",), ())
    outer = c_apply(sys2, "g", (("x", "*"),), (), ("x",), (inner,))
    assert outer.seq.render() == "[x:*]  |- g(x)"
    check_proof(sys2, outer)


def test_c_apply_needs_the_edge_facts():
    cs = CallSystem({"f": ("*",), "g": ("*",)},
                    (Call("c", "g", "f", SizeChangeGraph(1, 1, frozenset({(0, 0, GT)}))),))
    sys2, _ = induced_proof_system(cs)
    # the premise claims only a weak drop where the call graph demands > on 0->0
    inner = c_apply(sys2, "f", (("x", "*"), ("u", "*")),
                    (Geq("*", x("x"), x("u")),), ("u",), ())
    outer = c_apply(sys2, "g", (("x", "*"),), (), ("x",), (inner,))
    with pytest.raises(LogicError, match="edge facts"):
        check_proof(sys2, outer)


def test_escaped_variable_is_caught(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    phi = Atom("plus", (x("x"), x("y")))
    bad = forall_intro(imp_intro(assumption(ctx, (Geq(NAT, x("x"), x("y")), phi), 1)))
    with pytest.raises(LogicError, match="variable 'y' not in context") as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()
    assert str(exc.value).startswith("at root:")


def test_error_paths_point_into_the_proof(plus_system, pipelines):
    proof = pipelines["plus"].proof
    # damage one grandchild and watch the path name it
    kid = proof.children[0]
    bad_kid = kid.replace(rule="identity")
    bad = proof.replace(children=(bad_kid,) + proof.children[1:])
    with pytest.raises(LogicError) as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == (0,)
    assert str(exc.value).startswith("at 0:")


def test_proof_size_and_count_shared_nodes(plus_system):
    ctx = (("x", NAT),)
    r = geq_refl(ctx, (), NAT, "x")
    t = geq_trans(r, r)  # both children are literally the same object
    assert proof_size(t) == 2
    assert count_rule(t, "geq_refl") == 1
    assert count_rule(t, "geq_trans") == 1


def test_stray_rule_data_is_rejected(plus_system):
    ctx = (("x", NAT),)
    phi = Atom("plus", (x("x"), x("x")))
    a = assumption(ctx, (phi,), 0)
    bad = cut(a, (phi,), [a]).replace(data=("x",))
    with pytest.raises(LogicError, match="cut takes no rule data") as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()
    bad = cut(geq_refl(ctx, (), NAT, "x").replace(data=(0,)), (phi,), [])
    with pytest.raises(LogicError, match="geq_refl takes no rule data") as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == (0,)


# a premise [x:Nat, y:Nat] x >= x, y >= y |- x >= x for the cut rule, and
# minors deriving its two hypotheses from none
CUT_CTX = (("x", NAT), ("y", NAT))
CUT_HYPS = (Geq(NAT, x("x"), x("x")), Geq(NAT, x("y"), x("y")))


def _cut_parts():
    return assumption(CUT_CTX, CUT_HYPS, 0), [geq_refl(CUT_CTX, (), NAT, v) for v in ("x", "y")]


def test_cut_discharges_every_hypothesis(plus_system):
    premise, minors = _cut_parts()
    d = cut(premise, (), minors)
    assert d.rule == "cut" and d.data == () and d.children == (premise, *minors)
    assert d.seq == Sequent(CUT_CTX, (), CUT_HYPS[0])
    check_proof(plus_system, d)


def test_cut_with_no_minors_adds_hypotheses(plus_system):
    hyps = (Atom("plus", (x("x"), x("y"))), CUT_HYPS[1])
    d = cut(geq_refl(CUT_CTX, (), NAT, "x"), hyps, [])
    assert d.seq == Sequent(CUT_CTX, hyps, CUT_HYPS[0]) and len(d.children) == 1
    check_proof(plus_system, d)


def test_cut_shares_one_minor_between_hypotheses(plus_system):
    refl = geq_refl(CUT_CTX, (), NAT, "x")
    d = cut(assumption(CUT_CTX, (CUT_HYPS[0], CUT_HYPS[0]), 1), (), [refl, refl])
    check_proof(plus_system, d)
    assert proof_size(d) == 3


def _shared_minors(r):
    # r is used under two parents: m1 and m2 (and m1 under the cut and m2)
    m1 = geq_trans(r, r)
    m2 = geq_trans(m1, r)
    return cut(assumption(CUT_CTX, (CUT_HYPS[0], CUT_HYPS[0]), 1), (), [m1, m2])


def test_shared_subproof_is_checked_once(plus_system, monkeypatch):
    import cycind.logic as logic
    checked = []
    real = logic._check_node
    monkeypatch.setattr(logic, "_check_node", lambda s, d: checked.append(id(d)) or real(s, d))
    d = _shared_minors(geq_refl(CUT_CTX, (), NAT, "x"))
    check_proof(plus_system, d)
    assert sorted(checked) == sorted(id(n) for n in distinct_nodes(d))
    assert len(checked) == proof_size(d) == 5


def test_invalid_shared_node_is_reported_at_its_first_path(plus_system):
    bad = geq_refl(CUT_CTX, (), NAT, "x").replace(data=(0,))
    with pytest.raises(LogicError, match="geq_refl takes no rule data") as exc:
        check_proof(plus_system, _shared_minors(bad))
    assert exc.value.path == (1, 0)


def _other_ctx(d):
    return d.replace(seq=d.seq.replace(ctx=CUT_CTX[::-1]))


@pytest.mark.parametrize("build, message", [
    (lambda p, m: cut(p, (), m[:1]), "cut expects 2 minor premises, got 1"),
    (lambda p, m: cut(p, (), m + m[:1]), "cut expects 2 minor premises, got 3"),
    (lambda p, m: cut(p, (), m[::-1]), "cut minor 0 must conclude premise hypothesis 0"),
    (lambda p, m: cut(p, (), [m[0], geq_refl(CUT_CTX, CUT_HYPS, NAT, "y")]),
     "cut minor 1 must share the sequent context and hypotheses"),
    (lambda p, m: cut(p, (), [_other_ctx(m[0]), m[1]]),
     "cut minor 0 must share the sequent context and hypotheses"),
    (lambda p, m: _other_ctx(cut(p, (), m)), "cut premise must share the context and conclusion"),
    (lambda p, m: cut(p, (), m).replace(seq=Sequent(CUT_CTX, (), CUT_HYPS[1])),
     "cut premise must share the context and conclusion"),
    (lambda p, m: cut(p, (), m).replace(data=(0,)), "cut takes no rule data"),
    (lambda p, m: cut(p, (), m).replace(children=()), "cut expects a premise"),
], ids=["too_few", "too_many", "wrong_conclusion", "other_hyps", "minor_other_ctx",
        "premise_other_ctx", "premise_other_conclusion", "stray_data", "no_premise"])
def test_cut_rejects_a_bad_node(plus_system, build, message):
    bad = build(*_cut_parts())
    with pytest.raises(LogicError, match=message) as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()


# a premise [x:Nat, y:Nat] plus(x, y), x > y |- plus(x, y) for the subst rule
SUBST_PREMISE_CTX = (("x", NAT), ("y", NAT))


def _subst_premise():
    gt, phi = Gt(NAT, x("x"), x("y")), Atom("plus", (x("x"), x("y")))
    return cut(assumption(SUBST_PREMISE_CTX, (phi,), 0), (phi, gt), [assumption(SUBST_PREMISE_CTX, (phi, gt), 0)])


@pytest.mark.parametrize("sub", [{"x": "b", "y": "a"}, {"x": "a", "y": "a"}, {"x": "y", "y": "x"}])
def test_subst_renames_context_variables(plus_system, sub):
    dp = _subst_premise()
    check_proof(plus_system, dp)
    d = rename(dp, sub, (("a", NAT), ("b", NAT), ("x", NAT), ("y", NAT)))
    check_proof(plus_system, d)
    assert d.rule == "subst" and d.children[0] is dp
    assert d.seq.concl == Atom("plus", (x(sub["x"]), x(sub["y"])))


def _bad_subst(**change):
    dp = _subst_premise()
    # x and y stay in context, so a formula left unrenamed is still well formed
    d = rename(dp, {"x": "b", "y": "a"}, (("a", NAT), ("b", NAT), ("c", "Other")) + SUBST_PREMISE_CTX)
    if "seq" in change:
        change["seq"] = d.seq.replace(**change["seq"])
    return d.replace(**change)


@pytest.mark.parametrize("change, message", [
    ({"data": ("b", "z")}, "subst target 'z' for 'y' not in context"),
    ({"data": ("b", "c")}, "subst target 'c' has sort 'Other', expected 'Nat'"),
    ({"data": ("b",)}, "subst needs one target variable per premise context entry"),
    ({"data": ("b", "a", "a")}, "subst needs one target variable per premise context entry"),
    ({"data": ("b", 1)}, "subst needs one target variable per premise context entry"),
    ({"seq": {"hyps": (Atom("plus", (x("b"), x("a"))), Gt(NAT, x("x"), x("y")))}},
     "subst hypotheses are not the renamed premise hypotheses"),
    ({"seq": {"concl": Atom("plus", (x("a"), x("b")))}},
     "subst conclusion is not the renamed premise conclusion"),
])
def test_subst_rejects_a_bad_renaming(plus_system, change, message):
    bad = _bad_subst(**change)
    with pytest.raises(LogicError, match=message) as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()


def test_induction_completion_keeps_the_premise_derivation(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    target = Sequent(ctx, (Atom("plus", (x("x"), x("y"))),), Atom("plus", (x("x"), x("y"))))
    ip = expand_ind_prime(target, "x")
    dp = assumption(ip.premise.ctx, ip.premise.hyps, 0)
    d = ip.complete(dp)
    assert d.seq == target
    check_proof(plus_system, d)
    # the premise derivation is shared as it is, never copied
    assert any(n is dp for n in distinct_nodes(d))
    assert count_rule(d, "subst") == 1 and count_rule(d, "gt_ind") == 1
