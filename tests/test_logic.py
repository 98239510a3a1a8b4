"""Direct exercises of the proof kernel: constructors build, check_proof judges."""

import re
import sys
import time
from collections import Counter
from itertools import islice

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
from cycind import logic
from cycind.core import CyclicSystem, Judgment, RuleScheme
from cycind.builders import (
    assumption,
    _map_terms,
    c_apply,
    close_free,
    edge_facts,
    forall_elim,
    forall_intro,
    fold_imp,
    geq_refl,
    gt_ind,
    gt_ind_hypothesis,
    imp_intro,
    ind_hypothesis,
    ind_prime,
    inst,
    open_bound,
    subst_free,
    trans,
)
from cycind.logic import (
    Atom,
    BoundV,
    Deriv,
    Forall,
    FreeV,
    Geq,
    Gt,
    Imp,
    Sequent,
    distinct_nodes,
    fresh_name,
    render_formula,
)

import oracles
import systems

NAT = "Nat"


@pytest.fixture(scope="module")
def plus_system():
    sysm, _ = induced_proof_system(systems.load("plus"))
    return sysm


def x(name):
    return FreeV(name)


def test_render_names_bound_variables_by_hint():
    f = Forall(NAT, Imp(Geq(NAT, BoundV(0), x("x")), Atom("plus", (BoundV(0), x("x")))),
               hint="z")
    assert render_formula(f) == "all z:Nat. z >= x -> plus(z, x)"


def test_open_close_round_trip():
    body = Imp(Geq(NAT, BoundV(0), x("x")), Atom("plus", (BoundV(0), x("x"))))
    opened = open_bound(body, ("w",))
    assert render_formula(opened) == "w >= x -> plus(w, x)"
    assert close_free(opened, ("w",)) == body
    # a block: the first name takes the outermost binder, the last index 0
    body = Imp(Gt(NAT, BoundV(1), BoundV(0)), Atom("plus", (BoundV(2), BoundV(0))))
    opened = open_bound(body, ("a", "b"))
    assert render_formula(opened) == "a > b -> plus(^0, b)"
    assert close_free(opened, ("a", "b")) == body


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
    # rows of the layouts before the assumption, cut, inst and trans rules;
    # the sequent stays as it is, so no rule above the row objects before the
    # kernel reaches it, and the rule name is judged before its data
    for rule, data in (("identity", []), ("exchange", [3]), ("weakening", []), ("cut", []),
                       ("subst", ["x0_0", "x0_1"]), ("geq_trans", []), ("gt_extend0", []),
                       ("gt_extend1", [])):
        doc = formats.proof_to_doc(p.proof, p.system)
        row = next(r for r in doc["nodes"] if r["rule"] == "assumption")
        row.update(rule=rule, data=data)
        system, proof = formats.proof_from_doc(doc)
        with pytest.raises(LogicError, match=f"unknown rule '{rule}'") as exc:
            check_proof(system, proof)
        assert exc.value.path


KERNEL_RULES = ("assumption", "inst", "imp_intro", "imp_elim", "forall_intro", "forall_elim",
                "geq_refl", "trans", "geq_subsum", "gt_ind", "c_rule")
# the premise whose conclusion brings in a formula the conclusion below does not fix
ENTERING_PREMISE = {"inst": 0, "imp_elim": 1, "trans": 0}
# the premise count of each rule but inst and c_rule, which count theirs from their data
PREMISE_COUNT = {"assumption": 0, "imp_intro": 1, "imp_elim": 2, "forall_intro": 1,
                 "forall_elim": 1, "geq_refl": 0, "trans": 2, "geq_subsum": 1, "gt_ind": 1}


@pytest.mark.parametrize("data", [(), ("x",)])
def test_kernel_knows_exactly_its_rules(plus_system, data):
    # the kernel's rule table names exactly its rules, so a name left behind
    # by a rule merge, or a rule missing from the table, shows here
    assert set(logic._RULES) == set(KERNEL_RULES)
    seq = Sequent(ASSUMPTION_CTX, ASSUMPTION_HYPS, ASSUMPTION_HYPS[0])
    for rule in KERNEL_RULES:
        err = logic._check_node(plus_system, Deriv(rule, seq, (), data), dict(ASSUMPTION_CTX), {})
        assert err != f"unknown rule {rule!r}", rule
    for rule in ("cut", "subst", "geq_trans", "gt_extend0", "gt_extend1", "weakening"):
        err = logic._check_node(plus_system, Deriv(rule, seq, (), data), dict(ASSUMPTION_CTX), {})
        assert err == f"unknown rule {rule!r}"


@pytest.mark.parametrize("rule", sorted(PREMISE_COUNT))
def test_fixed_arity_rules_count_their_premises(plus_system, rule):
    assert set(PREMISE_COUNT) | {"inst", "c_rule"} == set(KERNEL_RULES)
    n = PREMISE_COUNT[rule]
    seq = Sequent(ASSUMPTION_CTX, ASSUMPTION_HYPS, ASSUMPTION_HYPS[0])
    kid = assumption(ASSUMPTION_CTX, ASSUMPTION_HYPS, 0)
    for k in [k for k in (n - 1, n + 1) if k >= 0]:
        with pytest.raises(LogicError, match=f"^at root: {rule} expects {n} premises, got {k}$"):
            check_proof(plus_system, Deriv(rule, seq, (kid,) * k))


def test_quantifier_round_trip(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    phi = Atom("plus", (x("x"), x("y")))
    d = forall_intro(imp_intro(assumption(ctx, (phi,), 0)), 1)
    assert d.seq.render() == "[x:Nat]  |- all y:Nat. plus(x, y) -> plus(x, y)"
    check_proof(plus_system, d)
    d2 = forall_elim(d, ("x",))
    assert d2.seq.concl == Imp(Atom("plus", (x("x"), x("x"))),
                               Atom("plus", (x("x"), x("x"))))
    check_proof(plus_system, d2)
    # a block: one node closes, and one node opens, both binders
    d = forall_intro(imp_intro(assumption(ctx, (phi,), 0)), 2)
    assert d.seq.render() == "[]  |- all x:Nat. all y:Nat. plus(x, y) -> plus(x, y)"
    check_proof(plus_system, d)
    d2 = forall_elim(inst(d, (), [], ctx=ctx), ("y", "x"))
    assert d2.seq.concl == Imp(Atom("plus", (x("y"), x("x"))), Atom("plus", (x("y"), x("x"))))
    check_proof(plus_system, d2)


def test_inequality_rules(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    r = geq_refl(ctx, (), NAT, "x")
    check_proof(plus_system, r)
    t = trans(r, r)
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


@pytest.mark.parametrize("change", [
    {"graphs": (SizeChangeGraph(3, 2, frozenset({(2, 0, GT)})),)},
    {"conclusion": "nosuch"},
    {"premises": ("nosuch",)},
], ids=["graph_arity", "conclusion", "premise"])
def test_c_rule_rejects_a_scheme_that_does_not_fit_the_judgments(plus_system, pipelines, change):
    # the kernel does not rely on the document reader having checked the system
    bad = plus_system.replace(rules={"plus": plus_system.rules["plus"].replace(**change)})
    proof = pipelines["plus"].proof
    path, node = (), proof
    while node.rule != "c_rule":
        path, node = path + (0,), node.children[0]
    with pytest.raises(LogicError, match="rule scheme 'plus' does not fit the judgments") as exc:
        check_proof(bad, proof)
    assert exc.value.path == path


def test_escaped_variable_is_caught(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    phi = Atom("plus", (x("x"), x("y")))
    bad = forall_intro(imp_intro(assumption(ctx, (Geq(NAT, x("x"), x("y")), phi), 1)), 1)
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


def test_deep_error_path_names_every_step(plus_system):
    # a valid chain of inst nodes over a leaf with stray data: the path of the
    # failure is rebuilt from the chain, one step per level
    depth = 5000
    d = geq_refl((("x", NAT),), (), NAT, "x").replace(data=(0,))
    for _ in range(depth):
        d = inst(d, (), [])
    with pytest.raises(LogicError, match="geq_refl takes no rule data") as exc:
        check_proof(plus_system, d)
    assert exc.value.path == (0,) * depth
    assert str(exc.value).startswith("at 0/0/")


@pytest.mark.parametrize("rule", [r for r in KERNEL_RULES if r not in ("assumption", "geq_refl")])
def test_conclusions_are_checked_where_they_enter(plus_system, monkeypatch, rule):
    # With every rule check passing, a bad conclusion is caught at the root
    # and at the premise where it enters (inst 0, imp_elim 1, trans 0) and
    # nowhere else.  A bad hypothesis is caught only where the pair enters
    # (the root and inst 0), whether a premise adds it to the sequent below
    # or has it in the place of one of that sequent's: elsewhere the real
    # rule compares it, by value, with one it builds from checked parts
    # (test_a_rule_rejects_an_ill_formed_hypothesis_it_adds).
    monkeypatch.setattr(logic, "_check_node", lambda s, d, *a: None)
    ctx = (("x", NAT),)
    refl = Geq(NAT, x("x"), x("x"))
    good = Deriv("geq_refl", Sequent(ctx, (), refl))
    escaped = Geq(NAT, x("x"), x("z"))
    bad_concl = Deriv("geq_refl", Sequent(ctx, (), escaped))
    bad_hyp = Deriv("geq_refl", Sequent(ctx, (escaped,), refl))
    with pytest.raises(LogicError, match="^at root: conclusion: variable 'z' not in context"):
        check_proof(plus_system, Deriv(rule, bad_concl.seq, (good,) * 3))
    with pytest.raises(LogicError, match="^at root: hypothesis 0: variable 'z'"):
        check_proof(plus_system, Deriv(rule, bad_hyp.seq, (good,) * 3))
    entering = ENTERING_PREMISE.get(rule)
    # below, the bad hypothesis is added; below_one, it replaces refl
    below, below_one = good.seq, Sequent(ctx, (refl,), refl)
    for i in range(3):
        kids = [good] * 3
        kids[i] = bad_concl
        if i == entering:
            with pytest.raises(LogicError, match=f"^at {i}: conclusion: variable 'z'"):
                check_proof(plus_system, Deriv(rule, good.seq, tuple(kids)))
        else:
            check_proof(plus_system, Deriv(rule, good.seq, tuple(kids)))
        kids[i] = bad_hyp
        for seq in (below, below_one):
            if rule == "inst" and i == 0:
                with pytest.raises(LogicError, match="^at 0: hypothesis 0: variable 'z'"):
                    check_proof(plus_system, Deriv(rule, seq, tuple(kids)))
            else:
                check_proof(plus_system, Deriv(rule, seq, tuple(kids)))


def _edge_system(edge, sorts):
    """Judgments ``g`` and ``f`` over ``sorts``, ``Nat`` the one inductive
    sort, and a rule for ``g`` with one premise ``f`` along ``edge``, whose
    conclusion is a premise-less rule for ``f``."""
    judgments = {j: Judgment(j, len(sorts), sorts) for j in ("f", "g")}
    graph = SizeChangeGraph.of(len(sorts), len(sorts), [edge])
    return CyclicSystem(judgments, {"g": RuleScheme("g", "g", ("f",), (graph,)),
                                    "f": RuleScheme("f", "f", (), ())}, frozenset({NAT}))


def _premise_adding(rule):
    """A system (None for ``plus``), a node of ``rule`` with a well-formed
    conclusion whose premise adds a hypothesis with the escaped variable
    ``z`` in the place of the one the rule builds, and that premise's
    context."""
    escaped = Gt(NAT, x("x"), x("z"))
    refl = Geq(NAT, x("x"), x("x"))
    if rule == "imp_intro":
        ctx = (("x", NAT),)
        return None, Deriv(rule, Sequent(ctx, (), Imp(refl, refl)),
                           (Deriv("geq_refl", Sequent(ctx, (escaped,), refl)),)), ctx
    if rule == "gt_ind":
        # the body is x >= x; the hypothesis all x'. x > x' -> x' >= x' would fit
        ctx = (("x", NAT),)
        ih = Forall(NAT, Imp(escaped, Geq(NAT, BoundV(0), BoundV(0))), hint="x'")
        return None, Deriv(rule, Sequent((), (), Forall(NAT, Geq(NAT, BoundV(0), BoundV(0)))),
                           (Deriv("geq_refl", Sequent(ctx, (ih,), refl)),)), ctx
    # c_rule: g(x) calls f(y) with x > y; the premise has x > z for that fact
    system = _edge_system((0, 0, GT), (NAT,))
    ctx = (("x", NAT), ("y", NAT))
    inner = Deriv("c_rule", Sequent(ctx, (escaped,), Atom("f", (x("y"),))), (), ("f",))
    return system, Deriv("c_rule", Sequent(ctx[:1], (), Atom("g", (x("x"),))), (inner,), ("g",)), ctx


@pytest.mark.parametrize("rule, message", [
    ("imp_intro", "imp_intro premise must move the antecedent into the hypotheses"),
    ("gt_ind", "gt_ind premise must carry the induction hypothesis"),
    ("c_rule", "premise 0 must extend the hypotheses by the edge facts"),
], ids=["imp_intro", "gt_ind", "c_rule"])
def test_a_rule_rejects_an_ill_formed_hypothesis_it_adds(plus_system, rule, message):
    # the kernel checks no hypothesis that a rule adds, so the rule itself
    # must reject one that is not the formula it builds from checked parts
    system, d, ctx = _premise_adding(rule)
    system = system or plus_system
    (added,) = d.children[0].seq.hyps
    assert oracles.formula_defect(system, added, dict(ctx))
    with pytest.raises(LogicError, match=f"^at root: {message}$") as exc:
        check_proof(system, d)
    assert exc.value.path == ()


@pytest.mark.parametrize("edge, ok", [((0, 0, GEQ), True), ((1, 1, GEQ), False), ((0, 1, GT), False)],
                         ids=["inductive", "non_inductive", "two_sorts"])
def test_c_rule_rejects_an_edge_it_cannot_order(edge, ok):
    # the edge facts are compared with the premise's hypotheses but never
    # checked, so an edge must join two positions of one inductive sort: at
    # the parameter sort P, or from Nat to P, its fact would be ill formed
    system = _edge_system(edge, (NAT, "P"))
    ctx = (("x", NAT), ("p", "P"))
    wide = ctx + (("y", NAT), ("q", "P"))
    facts = edge_facts((NAT, "P"), system.rules["g"].graphs[0], ("x", "p"), ("y", "q"))
    assert bool(oracles.formula_defect(system, facts[0], dict(wide))) is not ok
    inner = c_apply(system, "f", wide, facts, ("y", "q"), ())
    d = c_apply(system, "g", ctx, (), ("x", "p"), (inner,))
    if ok:
        check_proof(system, d)
        return
    with pytest.raises(LogicError, match="^at root: rule scheme 'g' does not fit the judgments of the system"):
        check_proof(system, d)


def _ill_formed_conclusions(system, seq):
    """Conclusions that are not well formed over ``seq``'s context: an order
    on a variable outside it, an unbound index, an atom of the wrong arity,
    and a quantifier whose body has an unbound index (so that a rule that
    wants a quantified premise has to look inside)."""
    sort = sorted(system.ind_sorts)[0]
    outside = FreeV("out" + "".join(v for v, _s in seq.ctx))
    judg = system.judgments[sorted(system.judgments)[0]]
    return {
        "outside": Gt(sort, outside, outside),
        "unbound": Geq(sort, BoundV(0), BoundV(0)),
        "arity": Atom(judg.id, (outside,) * (judg.ob - 1 if judg.ob else 1)),
        "quantified": Forall(sort, Gt(sort, BoundV(0), BoundV(1))),
    }


def _replace_node(root, old, new):
    """``root`` with the node object ``old`` replaced by ``new`` under every
    parent, as when one row of a proof document is edited."""
    memo = {id(old): new}

    def rebuild(d):
        if id(d) not in memo:
            kids = tuple(rebuild(k) for k in d.children)
            same = all(a is b for a, b in zip(kids, d.children))
            memo[id(d)] = d if same else d.replace(children=kids)
        return memo[id(d)]

    return rebuild(root)


@pytest.mark.parametrize("name", ["plus", "fg", "ack"])
def test_ill_formed_conclusions_are_rejected_at_every_node(pipelines, name):
    # A conclusion is checked only where it enters the proof; anywhere else a
    # bad one must fail its parent's rule.  The proof is read back from its
    # document, so its nodes are the document's rows, and each mutation
    # replaces one row's conclusion under every parent of the row.
    from cycind import formats
    p = pipelines[name]
    system, proof = formats.proof_from_doc(formats.proof_to_doc(p.proof, p.system))
    located = 0
    for node in distinct_nodes(proof):
        for kind, concl in _ill_formed_conclusions(system, node.seq).items():
            assert oracles.formula_defect(system, concl, dict(node.seq.ctx)), kind
            bad = _replace_node(proof, node, node.replace(seq=node.seq.replace(concl=concl)))
            with pytest.raises(LogicError) as exc:
                check_proof(system, bad)
            assert str(exc.value).startswith("at "), (node.rule, kind, str(exc.value))
            located += 1
    assert located == 4 * proof_size(p.proof)


@pytest.mark.parametrize("name", ["plus", "fg", "ack"])
def test_parent_rule_pins_every_built_premise(pipelines, monkeypatch, name):
    # The sharper form of the test above: only the parent's own rule is
    # checked, so a bad conclusion at any premise other than the entering
    # one must fail that rule, at the parent.
    real = logic._check_node
    p = pipelines[name]
    pinned = 0
    for parent in distinct_nodes(p.proof):
        for i, kid in enumerate(parent.children):
            if i == ENTERING_PREMISE.get(parent.rule):
                continue
            for kind, concl in _ill_formed_conclusions(p.system, kid.seq).items():
                kids = list(parent.children)
                kids[i] = kid.replace(seq=kid.seq.replace(concl=concl))
                bad = parent.replace(children=tuple(kids))
                monkeypatch.setattr(logic, "_check_node", lambda s, d, *a: real(s, d, *a) if d is bad else None)
                with pytest.raises(LogicError) as exc:
                    check_proof(p.system, bad)
                assert exc.value.path == (), (parent.rule, i, kind, str(exc.value))
                pinned += 1
    assert pinned


def _ill_formed_pairs(system, below, seq):
    """``seq`` with its context or hypotheses made ill formed, by kind: a
    context variable repeated or of an unknown sort, appended or, where
    ``seq`` extends the context ``below``, in place of its last new variable;
    and each of :func:`_ill_formed_conclusions` as a new last hypothesis."""
    ctx = seq.ctx
    first = ctx[0][0] if ctx else "v"
    out = {"repeated": seq.replace(ctx=ctx + ((first, ctx[0][1] if ctx else NAT),)),
           "bogus": seq.replace(ctx=ctx + (("bogus~", "Bogus"),))}
    if len(ctx) > len(below.ctx):
        (last, sort) = ctx[-1]
        out["repeated_new"] = seq.replace(ctx=ctx[:-1] + ((first, sort),))
        out["bogus_new"] = seq.replace(ctx=ctx[:-1] + ((last, "Bogus"),))
    for kind, phi in _ill_formed_conclusions(system, seq).items():
        out[f"hypothesis_{kind}"] = seq.replace(hyps=seq.hyps + (phi,))
    return out


@pytest.mark.parametrize("name", ["plus", "fg", "ack"])
def test_parent_rule_pins_every_built_pair(pipelines, monkeypatch, name):
    # The pair analogue of the test above: a sequent's context and hypotheses
    # are checked in full only where they enter (the root and inst's premise
    # 0), so at any other premise an ill-formed pair must fail the parent's
    # rule or the premise's check of what it adds, at the parent or there.
    real = logic._check_node
    p = pipelines[name]
    pinned = 0
    for parent in distinct_nodes(p.proof):
        for i, kid in enumerate(parent.children):
            if parent.rule == "inst" and i == 0:
                continue
            for kind, seq in _ill_formed_pairs(p.system, parent.seq, kid.seq).items():
                kids = list(parent.children)
                kids[i] = kid.replace(seq=seq)
                bad = parent.replace(children=tuple(kids))
                monkeypatch.setattr(logic, "_check_node", lambda s, d, *a: real(s, d, *a) if d is bad else None)
                with pytest.raises(LogicError) as exc:
                    check_proof(p.system, bad)
                assert exc.value.path in ((), (i,)), (parent.rule, i, kind, str(exc.value))
                pinned += 1
    assert pinned


def test_a_new_variable_must_be_fresh(plus_system):
    # The body ignores its bound variable, so the rule's own comparison
    # passes whatever the variable is called, and the premise's check of its
    # new context variable finds the repeat
    refl = Geq(NAT, x("x"), x("x"))
    premise = geq_refl((("x", NAT), ("x", NAT)), (), NAT, "x")
    d = Deriv("forall_intro", Sequent((("x", NAT),), (), Forall(NAT, refl)), (premise,))
    with pytest.raises(LogicError, match="^at 0: repeated context variable"):
        check_proof(plus_system, d)
    check_proof(plus_system, forall_intro(geq_refl((("x", NAT), ("y", NAT)), (), NAT, "x"), 1))


def test_every_sequent_of_a_checked_proof_is_well_formed(pipelines, fuzz_proofs):
    # The kernel checks a conclusion only where it enters the proof; the
    # reference walk checks every sequent of the proofs that
    # test_acceptance::test_every_translated_proof_checks has the kernel accept.
    proofs = [(p.system, p.proof) for p in pipelines.values()]
    proofs += [(case.system, proof) for case, proof in fuzz_proofs]
    assert len(proofs) == 205
    for system, proof in proofs:
        assert oracles.sequent_defects(system, proof) == []


def _with_term(phi, k, change):
    """``phi`` with the term ``t`` that comes ``k``-th in preorder, counted
    modulo the number of terms, replaced by ``change(t)``."""
    n = 0

    def f(t, _d):
        nonlocal n
        n += 1
        return change(t) if n - 1 == k else t
    out = _map_terms(phi, f)
    return out if k < n else _with_term(phi, k % n, change)


def _under(phi, k):
    """The body of ``phi`` under its ``k`` outermost binders."""
    for _ in range(k):
        phi = phi.body
    return phi


def _instances(node):
    """Each ``(pattern, target, map, build)`` that ``node``'s rule matches,
    the map being the block of variables an opening puts in or a renaming's
    dict; ``build(pattern, target)`` is the check made with the builders'
    term maps and ``==``."""
    seq, kids = node.seq, node.children
    if node.rule == "forall_elim":
        ys = node.data
        yield _under(kids[0].seq.concl, len(ys)), seq.concl, ys, lambda pat, tgt: open_bound(pat, ys) == tgt
    elif node.rule in ("forall_intro", "gt_ind"):
        vs = tuple(v for v, _s in kids[0].seq.ctx[len(seq.ctx):])
        build = ((lambda pat, tgt: close_free(tgt, vs) == pat) if node.rule == "forall_intro"
                 else (lambda pat, tgt: open_bound(pat, vs) == tgt))
        yield _under(seq.concl, len(vs)), kids[0].seq.concl, vs, build
    elif node.rule == "inst":
        # a node that renames nothing compares its formulas with ==
        p = kids[0].seq
        sub = {v: y for (v, _s), y in zip(p.ctx, node.data) if v != y}
        pairs = [(p.concl, seq.concl)] + [(h, m.seq.concl) for h, m in zip(p.hyps, kids[1:])]
        for pat, tgt in pairs if sub else ():
            yield pat, tgt, sub, lambda pat, tgt: subst_free(pat, sub) == tgt


def _with_changed_parts_shared(pat, img):
    """Copies of ``img``, an instance of ``pat``, one for each part of
    ``img`` that is not ``pat``'s own object, with that part put back as
    ``pat``'s (the builders share only the parts that they leave as they
    are, so most of these put back a part that the map changes)."""
    if img is pat:
        return
    yield pat
    if isinstance(pat, Imp):
        yield from (Imp(lhs, img.rhs) for lhs in _with_changed_parts_shared(pat.lhs, img.lhs))
        yield from (Imp(img.lhs, rhs) for rhs in _with_changed_parts_shared(pat.rhs, img.rhs))
    elif isinstance(pat, Forall):
        yield from (Forall(img.sort, body, hint=img.hint)
                    for body in _with_changed_parts_shared(pat.body, img.body))


def _renamed_term(t):
    return FreeV(t.name + "~") if isinstance(t, FreeV) else FreeV("v~")


def _index_for_variable(t):
    return BoundV(0) if isinstance(t, FreeV) else FreeV("v~")


def test_the_matcher_agrees_with_building(pipelines, fuzz_proofs):
    # _matches answers as building the instance with the builders' term maps
    # and comparing with == does, on every instance the kernel compares in
    # the fixture and fuzz proofs, blocks of one to three binders among them;
    # on a copy of each target with one term
    # changed: to a variable of another name, or a variable to an index; on
    # the pattern itself, where every part is shared; and on targets that
    # share a part holding the opened index or a renamed name, where the
    # shortcut for shared parts must not answer
    proofs = [(p.system, p.proof) for p in pipelines.values()]
    proofs += [(case.system, proof) for case, proof in fuzz_proofs]
    compared = differ = shared = 0
    blocks = Counter()
    for system, proof in proofs:
        sums = logic._Summaries(system)  # one memo per proof, as in check_proof
        for node in distinct_nodes(proof):
            for pat, tgt, m, build in _instances(node):
                blocks[len(m)] += isinstance(m, tuple)
                assert logic._matches(pat, tgt, m, sums) and build(pat, tgt), node.rule
                other = _with_term(tgt, compared % 7, _index_for_variable if compared % 2 else _renamed_term)
                built = build(pat, other)
                assert logic._matches(pat, other, m, sums) == built, (node.rule, other)
                assert logic._matches(pat, pat, m, sums) == build(pat, pat), (node.rule, pat)
                spliced = next(islice(_with_changed_parts_shared(pat, tgt), compared % 5, None), None)
                if spliced is not None:
                    spliced_built = build(pat, spliced)
                    assert logic._matches(pat, spliced, m, sums) == spliced_built, (node.rule, spliced)
                    shared += not spliced_built
                compared += 1
                differ += not built
    assert compared > 4_000 and differ and shared > 3_000
    assert all(blocks[k] for k in (1, 2, 3)), blocks


def test_the_matcher_makes_no_call_per_term(pipelines):
    # a timing-free guard on the matcher's work: on dist, the kernel enters
    # _matches once for each of its 85 instances (the walk keeps an
    # implication's right-hand side on its own stack, never re-entering
    # itself), and from there calls only _summary, for a shared part that no
    # check has summarised yet; every term left as it is is the target's own
    # object, so no == runs
    p = pipelines["dist"]
    code = logic._matches.__code__
    entries, callees = 0, Counter()

    def profile(frame, event, _arg):
        nonlocal entries
        if event == "call":
            entries += frame.f_code is code
            if frame.f_back.f_code is code:
                callees[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        check_proof(p.system, p.proof)
    finally:
        sys.setprofile(None)
    assert entries == 85 and callees == {"_summary": 17}


def test_each_formula_object_is_summarised_once(pipelines, monkeypatch):
    # a timing-free guard on the formula checks: on dist, the kernel stores
    # the summary of each formula object at most once, however many sequents
    # and larger formulas share it, and whether a caller or the summary walk
    # itself reaches it
    stored = Counter()

    class Counting(logic._Summaries):
        __slots__ = ()

        def __setitem__(self, key, value):
            stored[key] += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(logic, "_Summaries", Counting)
    p = pipelines["dist"]
    check_proof(p.system, p.proof)
    assert len(stored) > 200 and max(stored.values()) == 1


def test_a_deep_shared_formula_checks_in_linear_time(plus_system):
    # level i + 1 is phi_i -> phi_i, one object on both sides: 61 objects,
    # but 2^60 leaves as a tree, so a walk that does not keep its parts'
    # summaries never ends
    phi = Geq(NAT, x("x"), x("x"))
    for _ in range(60):
        phi = Imp(phi, phi)
    d = Deriv("assumption", Sequent((("x", NAT),), (phi,), phi), (), (0,))
    start = time.perf_counter()
    check_proof(plus_system, d)
    assert time.perf_counter() - start < 1.0


def _chain(depth, inner, leaf, left):
    """``depth`` implications nested on the left or on the right, with
    ``inner`` innermost and ``leaf`` on every other side."""
    phi = inner
    for _ in range(depth):
        phi = Imp(phi, leaf) if left else Imp(leaf, phi)
    return phi


@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_a_deeply_nested_formula_never_exhausts_the_stack(plus_system, left):
    # a 5,000-level chain, far past the interpreter's recursion limit: the
    # kernel summarises and matches it on explicit stacks, so it checks or
    # fails with a located error, never with RecursionError
    ctx = (("x", NAT), ("y", NAT))
    xx, xy, bb = Geq(NAT, x("x"), x("x")), Geq(NAT, x("x"), x("y")), Geq(NAT, BoundV(0), BoundV(0))
    phi = _chain(5_000, xx, xx, left)
    check_proof(plus_system, Deriv("assumption", Sequent(ctx, (phi,), phi), (), (0,)))
    bad = _chain(5_000, Geq(NAT, x("x"), x("z")), xx, left)
    with pytest.raises(LogicError, match="^at root: hypothesis 0: variable 'z' not in context$"):
        check_proof(plus_system, Deriv("assumption", Sequent(ctx, (bad,), bad), (), (0,)))
    # an instance built apart from its pattern, so the matcher walks all of it
    quantified = Forall(NAT, _chain(5_000, bb, bb, left))
    prem = Deriv("assumption", Sequent(ctx, (quantified,), quantified), (), (0,))
    check_proof(plus_system, Deriv("forall_elim", Sequent(ctx, (quantified,), phi), (prem,), ("x",)))
    # the same, with the innermost part of the instance wrong
    other = _chain(5_000, xy, xx, left)
    with pytest.raises(LogicError, match="^at root: forall_elim conclusion is not the instantiated body$"):
        check_proof(plus_system, Deriv("forall_elim", Sequent(ctx, (quantified,), other), (prem,), ("x",)))


def _misplaced():
    """Ill-formed formulas over [x:Nat], by case, with the kernel's message:
    each shares a part that is well formed in one place and not in another,
    or reaches past its binders."""
    psi = Geq(NAT, BoundV(0), x("x"))  # index 0 must be a Nat
    reach = Forall(NAT, Geq(NAT, BoundV(1), x("x")))  # index 1 reaches past its binder
    return {
        "right_then_wrong_sort": (Imp(Forall(NAT, psi), Forall("P", psi)),
                                  "bound variable has sort 'P', expected 'Nat'"),
        "wrong_then_right_sort": (Imp(Forall("P", psi), Forall(NAT, psi)),
                                  "bound variable has sort 'P', expected 'Nat'"),
        "index_at_two_sorts": (Forall(NAT, Imp(psi, Atom("f", (x("x"), BoundV(0))))),
                               "index 0 used at sorts 'Nat' and 'P'"),
        "nested_reach": (Imp(Forall(NAT, reach), reach), "unbound index, 1 past its binders"),
        "nested_reach_past_two": (Forall(NAT, Forall("P", Geq(NAT, BoundV(3), x("x")))),
                                  "unbound index, 2 past its binders"),
    }


@pytest.mark.parametrize("case", sorted(_misplaced()))
def test_a_summary_does_not_depend_on_where_its_formula_sits(case):
    # the summary of a shared object is computed once, wherever the check
    # meets it first, so it must not take in its binders above: each part
    # here is well formed in one place and not in the other
    system = _edge_system((0, 0, GEQ), (NAT, "P"))  # Nat and P are known sorts
    ctx = (("x", NAT),)
    phi, message = _misplaced()[case]
    assert oracles.formula_defect(system, phi, dict(ctx))
    with pytest.raises(LogicError, match=f"^at root: hypothesis 0: {message}$"):
        check_proof(system, assumption(ctx, (phi,), 0))
    psi = Geq(NAT, BoundV(0), x("x"))
    check_proof(system, assumption(ctx, (Imp(Forall(NAT, psi), Forall(NAT, psi)),), 0))


@pytest.mark.parametrize("k", ["a", -1, True], ids=["name", "negative", "bool"])
def test_a_bound_index_must_be_a_natural_number(plus_system, k):
    # an index that no binder can bind, from a library caller, is a located
    # error: -1 must not read as the outermost binder, nor a name crash
    phi = Forall(NAT, Geq(NAT, BoundV(k), BoundV(k)))
    with pytest.raises(LogicError, match=r"^at root: hypothesis 0: order operand: not a term: BoundV\(k="):
        check_proof(plus_system, assumption((), (phi,), 0))


def _term_changes(ctx):
    """One-term changes over ``ctx`` (a name -> sort dict): a name outside
    it, a variable of a sort that no position has, and loose indices 0 to 2;
    and ``ctx`` with that variable added."""
    other = fresh_name("o", set(ctx))
    out = FreeV(fresh_name("out", set(ctx) | {other}))
    changes = [lambda t: out, lambda t: FreeV(other)] + [lambda t, k=k: BoundV(k) for k in range(3)]
    return changes, {**ctx, other: "Other"}


@pytest.mark.parametrize("name", ["plus", "fg", "ack"])
def test_the_formula_check_agrees_with_the_reference(pipelines, name):
    # every formula of the proof, and each of its one-term changes, under the
    # context of a node that holds it: the kernel's check and the reference
    # walk accept or reject alike (binders stay as they are, at known sorts)
    p = pipelines[name]
    seen, outcomes = set(), Counter()
    for node in distinct_nodes(p.proof):
        changes, ctx = _term_changes(dict(node.seq.ctx))
        for phi in (*node.seq.hyps, node.seq.concl):
            if (id(phi), id(node.seq.ctx)) in seen:
                continue
            seen.add((id(phi), id(node.seq.ctx)))
            terms = []
            _map_terms(phi, lambda t, _d: terms.append(t) or t)
            mutants = [_with_term(phi, k, change) for k in range(len(terms)) for change in changes]
            for f in (phi, *mutants):
                # a memo per check: the id of a freed mutant may come back
                kernel = logic._check_formula(f, ctx, logic._Summaries(p.system))
                reference = oracles.formula_defect(p.system, f, ctx)
                assert (kernel is None) == (reference is None), (render_formula(f), kernel, reference)
                outcomes[kernel is None] += 1
    assert outcomes[True] > 100 and outcomes[False] > 500, outcomes


def test_a_non_formula_in_an_instance_is_rejected(plus_system):
    # the premise's body is matched before the premise's own check reaches
    # it; a library caller's stray object is a located error, not a crash
    ctx = (("x", NAT),)
    premise = Deriv("geq_refl", Sequent(ctx, (), Forall(NAT, "junk")))
    d = Deriv("forall_elim", Sequent(ctx, (), Geq(NAT, x("x"), x("x"))), (premise,), ("x",))
    with pytest.raises(LogicError, match="^at root: forall_elim conclusion is not the instantiated body"):
        check_proof(plus_system, d)


def test_states_judgment(plus_system, pipelines):
    ctx = (("a", NAT), ("b", NAT))
    plus = Atom("plus", (x("a"), x("b")))
    assert logic.states_judgment(plus_system, pipelines["plus"].proof.seq, "plus")
    assert logic.states_judgment(plus_system, Sequent(ctx, (), plus), "plus")
    for seq in (Sequent(ctx, (plus,), plus),  # a hypothesis
                Sequent(ctx[::-1], (), plus),  # the variables out of context order
                Sequent(ctx + (("c", NAT),), (), plus),  # a variable too many
                Sequent((("a", NAT), ("b", "Other")), (), plus),  # another sort
                Sequent(ctx, (), Atom("plus", (x("a"), x("a"))))):  # not at its own variables
        assert not logic.states_judgment(plus_system, seq, "plus"), seq.render()
    assert not logic.states_judgment(plus_system, Sequent(ctx, (), plus), "times")


def test_proof_size_and_count_shared_nodes(plus_system):
    ctx = (("x", NAT),)
    r = geq_refl(ctx, (), NAT, "x")
    t = trans(r, r)  # both children are literally the same object
    assert proof_size(t) == 2
    assert count_rule(t, "geq_refl") == 1
    assert count_rule(t, "trans") == 1


def test_stray_rule_data_is_rejected(plus_system):
    ctx = (("x", NAT),)
    phi = Atom("plus", (x("x"), x("x")))
    r = geq_refl(ctx, (phi,), NAT, "x")
    bad = trans(r, r).replace(data=("x",))
    with pytest.raises(LogicError, match="trans takes no rule data") as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()
    bad = inst(geq_refl(ctx, (), NAT, "x").replace(data=(0,)), (phi,), [])
    with pytest.raises(LogicError, match="geq_refl takes no rule data") as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == (0,)


# The cut case of inst (a node that renames nothing): a premise
# [x:Nat, y:Nat] x >= x, y >= y |- x >= x, and minors deriving its two
# hypotheses from none
INST_CTX = (("x", NAT), ("y", NAT))
INST_HYPS = (Geq(NAT, x("x"), x("x")), Geq(NAT, x("y"), x("y")))


def _inst_parts():
    return assumption(INST_CTX, INST_HYPS, 0), [geq_refl(INST_CTX, (), NAT, v) for v in ("x", "y")]


def test_cut_discharges_every_hypothesis(plus_system):
    premise, minors = _inst_parts()
    d = inst(premise, (), minors)
    assert d.rule == "inst" and d.data == ("x", "y") and d.children == (premise, *minors)
    assert d.seq == Sequent(INST_CTX, (), INST_HYPS[0])
    check_proof(plus_system, d)


def test_cut_with_no_minors_adds_hypotheses(plus_system):
    hyps = (Atom("plus", (x("x"), x("y"))), INST_HYPS[1])
    d = inst(geq_refl(INST_CTX, (), NAT, "x"), hyps, [])
    assert d.seq == Sequent(INST_CTX, hyps, INST_HYPS[0]) and len(d.children) == 1
    check_proof(plus_system, d)


def test_cut_shares_one_minor_between_hypotheses(plus_system):
    refl = geq_refl(INST_CTX, (), NAT, "x")
    d = inst(assumption(INST_CTX, (INST_HYPS[0], INST_HYPS[0]), 1), (), [refl, refl])
    check_proof(plus_system, d)
    assert proof_size(d) == 3


def _shared_minors(r):
    # r is used under two parents: m1 and m2 (and m1 under the inst and m2)
    m1 = trans(r, r)
    m2 = trans(m1, r)
    return inst(assumption(INST_CTX, (INST_HYPS[0], INST_HYPS[0]), 1), (), [m1, m2])


def test_shared_subproof_is_checked_once(plus_system, monkeypatch):
    checked = []
    real = logic._check_node
    monkeypatch.setattr(logic, "_check_node", lambda s, d, *a: checked.append(id(d)) or real(s, d, *a))
    d = _shared_minors(geq_refl(INST_CTX, (), NAT, "x"))
    check_proof(plus_system, d)
    assert sorted(checked) == sorted(id(n) for n in distinct_nodes(d))
    assert len(checked) == proof_size(d) == 5


def test_full_pair_checks_run_once_per_entering_pair(pipelines, monkeypatch):
    # a timing-free guard on the kernel's cost: on dist, the context and
    # hypotheses are checked in full once per distinct (ctx, hyps) pair, by
    # object, among the root and inst's premises 0, and not at the other
    # 80 pairs
    p = pipelines["dist"]
    calls = []
    real = logic._check_pair
    monkeypatch.setattr(logic, "_check_pair",
                        lambda *a: calls.append((id(a[2].ctx), id(a[2].hyps))) or real(*a))
    check_proof(p.system, p.proof)
    entering = [p.proof] + [d.children[0] for d in distinct_nodes(p.proof) if d.rule == "inst"]
    pairs = {(id(d.seq.ctx), id(d.seq.hyps)) for d in entering}
    assert sorted(calls) == sorted(pairs) and len(calls) == 24
    assert len({(id(d.seq.ctx), id(d.seq.hyps)) for d in distinct_nodes(p.proof)}) == 104


def test_invalid_shared_node_is_reported_at_its_first_path(plus_system):
    bad = geq_refl(INST_CTX, (), NAT, "x").replace(data=(0,))
    with pytest.raises(LogicError, match="geq_refl takes no rule data") as exc:
        check_proof(plus_system, _shared_minors(bad))
    assert exc.value.path == (1, 0)


def _other_ctx(d):
    return d.replace(seq=d.seq.replace(ctx=INST_CTX[::-1]))


@pytest.mark.parametrize("build, message", [
    (lambda p, m: inst(p, (), m[:1]), "inst expects 2 minor premises, got 1"),
    (lambda p, m: inst(p, (), m + m[:1]), "inst expects 2 minor premises, got 3"),
    (lambda p, m: inst(p, (), m[::-1]), "inst minor 0 must conclude renamed premise hypothesis 0"),
    (lambda p, m: inst(p, (), [m[0], geq_refl(INST_CTX, INST_HYPS, NAT, "y")]),
     "inst premise 2 must keep the hypotheses"),
    (lambda p, m: inst(p, (), [_other_ctx(m[0]), m[1]]),
     "inst premise 1 must keep the context"),
    # the minors keep the premise's context, which the conclusion lost
    (lambda p, m: inst(p, (), m).replace(seq=Sequent(INST_CTX[:1], (), INST_HYPS[0])),
     "inst premise 1 must keep the context"),
    (lambda p, m: inst(p, (), m).replace(seq=Sequent(INST_CTX, (), INST_HYPS[1])),
     "inst conclusion is not the renamed premise conclusion"),
    (lambda p, m: inst(p, (), m).replace(data=("x", "y", 0)),
     r"inst needs one target variable per premise context entry \(2\)"),
    (lambda p, m: inst(p, (), m).replace(children=()), "inst expects a premise"),
], ids=["too_few", "too_many", "wrong_conclusion", "other_hyps", "minor_other_ctx",
        "premise_other_ctx", "premise_other_conclusion", "stray_data", "no_premise"])
def test_cut_rejects_a_bad_node(plus_system, build, message):
    bad = build(*_inst_parts())
    with pytest.raises(LogicError, match=message) as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()


# The subst case of inst (a renaming whose minors are assumptions): a premise
# [x:Nat, y:Nat] plus(x, y), x > y |- plus(x, y)
RENAME_PREMISE_CTX = (("x", NAT), ("y", NAT))
RENAME_CTX = (("a", NAT), ("b", NAT), ("x", NAT), ("y", NAT))


def _rename_premise():
    gt, phi = Gt(NAT, x("x"), x("y")), Atom("plus", (x("x"), x("y")))
    return inst(assumption(RENAME_PREMISE_CTX, (phi,), 0), (phi, gt),
                [assumption(RENAME_PREMISE_CTX, (phi, gt), 0)])


def _renamed(dp, sub, ctx):
    """``dp`` renamed by ``sub`` onto ``ctx``, over its renamed hypotheses."""
    hyps = tuple(subst_free(h, sub) for h in dp.seq.hyps)
    return inst(dp, hyps, [assumption(ctx, hyps, i) for i in range(len(hyps))], sub, ctx)


@pytest.mark.parametrize("sub", [{"x": "b", "y": "a"}, {"x": "a", "y": "a"}, {"x": "y", "y": "x"},
                                 {"x": "a", "y": "y"}])
def test_subst_renames_context_variables(plus_system, sub):
    dp = _rename_premise()
    check_proof(plus_system, dp)
    d = _renamed(dp, sub, RENAME_CTX)
    check_proof(plus_system, d)
    assert d.rule == "inst" and d.children[0] is dp
    # one target per premise context entry, identity entries included
    assert d.data == (sub["x"], sub["y"])
    assert d.seq.concl == Atom("plus", (x(sub["x"]), x(sub["y"])))


def _bad_rename(**change):
    dp = _rename_premise()
    # x and y stay in context, so a formula left unrenamed is still well formed
    d = _renamed(dp, {"x": "b", "y": "a"}, (("a", NAT), ("b", NAT), ("c", "Other")) + RENAME_PREMISE_CTX)
    if "seq" in change:
        change["seq"] = d.seq.replace(**change["seq"])
    return d.replace(**change)


@pytest.mark.parametrize("change, message", [
    ({"data": ("b", "z")}, "inst target 'z' for 'y' not in context"),
    ({"data": ("b", "c")}, "inst target 'c' has sort 'Other', expected 'Nat'"),
    ({"data": ("b",)}, "inst needs one target variable per premise context entry"),
    ({"data": ("b", "a", "a")}, "inst needs one target variable per premise context entry"),
    ({"data": ("b", 1)}, "inst needs one target variable per premise context entry"),
    ({"seq": {"hyps": (Atom("plus", (x("b"), x("a"))), Gt(NAT, x("x"), x("y")))}},
     "inst premise 1 must keep the hypotheses"),
    ({"seq": {"concl": Atom("plus", (x("a"), x("b")))}},
     "inst conclusion is not the renamed premise conclusion"),
    ({"data": ("x", "y")}, "inst conclusion is not the renamed premise conclusion"),
], ids=["target_missing", "target_sort", "too_few_targets", "too_many_targets", "target_not_a_name",
        "hyps_not_renamed", "concl_not_renamed", "identity_for_a_renaming"])
def test_subst_rejects_a_bad_renaming(plus_system, change, message):
    bad = _bad_rename(**change)
    with pytest.raises(LogicError, match=message) as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()


def test_inst_minor_must_conclude_the_renamed_hypothesis(plus_system):
    dp = _rename_premise()
    # the minor for x > y derives the unrenamed hypothesis
    hyps = (Atom("plus", (x("b"), x("a"))), Gt(NAT, x("x"), x("y")))
    bad = inst(dp, hyps, [assumption(RENAME_CTX, hyps, 0), assumption(RENAME_CTX, hyps, 1)],
               {"x": "b", "y": "a"}, RENAME_CTX)
    with pytest.raises(LogicError, match="inst minor 1 must conclude renamed premise hypothesis 1") as exc:
        check_proof(plus_system, bad)
    assert exc.value.path == ()


# x R1 y and y R2 z over [x:Nat, y:Nat, z:Nat] for the trans rule
TRANS_CTX = (("x", NAT), ("y", NAT), ("z", NAT))


def _trans_parts(k1, k2, ctx=TRANS_CTX):
    hyps = (k1(ctx[0][1], x("x"), x("y")), k2(ctx[1][1], x("y"), x("z")))
    return assumption(ctx, hyps, 0), assumption(ctx, hyps, 1)


@pytest.mark.parametrize("k1, k2, out", [
    (Geq, Geq, Geq), (Geq, Gt, Gt), (Gt, Geq, Gt), (Gt, Gt, Gt),
])
def test_trans_concludes_strict_when_a_premise_is(plus_system, k1, k2, out):
    d = trans(*_trans_parts(k1, k2))
    assert d.rule == "trans" and d.data == ()
    assert d.seq.concl == out(NAT, x("x"), x("z"))
    check_proof(plus_system, d)


def _with_concl(d, concl):
    return d.replace(seq=d.seq.replace(concl=concl))


def _other_sort():
    # a second inductive sort, with y at it
    ctx = (("x", NAT), ("y", "Tree"), ("z", NAT))
    hyps = (Geq(NAT, x("x"), x("z")), Geq("Tree", x("y"), x("y")))
    a, b = assumption(ctx, hyps, 0), assumption(ctx, hyps, 1)
    return trans(a, b).replace(seq=a.seq)


@pytest.mark.parametrize("build, message", [
    (lambda: _with_concl(trans(*_trans_parts(Geq, Geq)), Gt(NAT, x("x"), x("z"))),
     "trans must conclude > exactly when a premise is >"),
    (lambda: _with_concl(trans(*_trans_parts(Geq, Gt)), Geq(NAT, x("x"), x("z"))),
     "trans must conclude > exactly when a premise is >"),
    (_other_sort, "trans sort mismatch"),
    (lambda: _with_concl(trans(*_trans_parts(Geq, Geq)), Geq(NAT, x("y"), x("z"))),
     "trans endpoints do not chain"),
    (lambda: trans(*_trans_parts(Geq, Geq)[::-1]), "trans endpoints do not chain"),
    (lambda: trans(*_trans_parts(Geq, Geq)).replace(children=_trans_parts(Geq, Geq)[:1]),
     "trans expects 2 premises, got 1"),
    (lambda: trans(_trans_parts(Geq, Geq)[0], geq_refl(TRANS_CTX, (), NAT, "z")),
     "trans premise 1 must keep the hypotheses"),
], ids=["gt_from_geqs", "geq_from_gt", "sort_mismatch", "bad_endpoint", "swapped_premises",
        "one_premise", "other_hyps"])
def test_trans_rejects_a_bad_node(plus_system, build, message):
    system = plus_system.replace(ind_sorts=plus_system.ind_sorts | {"Tree"})
    with pytest.raises(LogicError, match=message) as exc:
        check_proof(system, build())
    assert exc.value.path == ()


def test_forall_elim_rejects_a_target_of_another_sort(plus_system):
    # the body ignores its bound variable, so only the target's sort is wrong
    system = plus_system.replace(ind_sorts=plus_system.ind_sorts | {"Tree"})
    ctx = (("x", NAT), ("t", "Tree"))
    hyps = (Forall(NAT, Geq(NAT, x("x"), x("x"))),)
    check_proof(system, forall_elim(assumption(ctx, hyps, 0), ("x",)))
    with pytest.raises(LogicError, match="forall_elim target has sort 'Tree', expected 'Nat'") as exc:
        check_proof(system, forall_elim(assumption(ctx, hyps, 0), ("t",)))
    assert exc.value.path == ()


def _guarded(case, plus_system):
    """A system and a proof that one soundness guard of the kernel alone
    rejects, by ``case``: c_rule's conclusion (judgment and atom) and its
    premise's variable sorts, and the matcher's atom judgments, quantifier
    sorts and order sorts.  Without its guard, the kernel accepts each proof
    but ``c_rule_atom``, on which it crashes."""
    ctx = (("x", NAT),)
    if case.startswith("c_rule"):
        system = _edge_system((0, 0, GEQ), (NAT,))
        if case == "c_rule_judgment":
            # the premise-less scheme of f concludes g(x)
            return system, Deriv("c_rule", Sequent(ctx, (), Atom("g", (x("x"),))), (), ("f",))
        if case == "c_rule_atom":
            return system, Deriv("c_rule", Sequent(ctx, (), Geq(NAT, x("x"), x("x"))), (), ("f",))
        # g(x) from f(t) with t of the sort Tree, where f takes a Nat
        system = system.replace(
            rules={**system.rules, "g": RuleScheme("g", "g", ("f",), (SizeChangeGraph(1, 1, frozenset()),))},
            ind_sorts=frozenset({NAT, "Tree"}))
        inner = Deriv("c_rule", Sequent(ctx + (("t", "Tree"),), (), Atom("f", (x("t"),))), (), ("f",))
        return system, Deriv("c_rule", Sequent(ctx, (), Atom("g", (x("x"),))), (inner,), ("g",))
    if case == "atom_judgment":
        # all a. f(a) opened at x, concluding g(x)
        system = _edge_system((0, 0, GEQ), (NAT,))
        hyps = (Forall(NAT, Atom("f", (BoundV(0),)), hint="a"),)
        return system, _with_concl(forall_elim(assumption(ctx, hyps, 0), ("x",)), Atom("g", (x("x"),)))
    # the remaining cases add the inductive sort Tree to plus's system
    system = plus_system.replace(ind_sorts=plus_system.ind_sorts | {"Tree"})
    if case == "quantifier_sort":
        # all a:Nat. all b:Nat. a >= a opened at x, concluding all b:Tree. x >= x
        hyps = (Forall(NAT, Forall(NAT, Geq(NAT, BoundV(1), BoundV(1)), hint="b"), hint="a"),)
        return system, _with_concl(forall_elim(assumption(ctx, hyps, 0), ("x",)),
                                   Forall("Tree", Geq(NAT, x("x"), x("x")), hint="b"))
    # order_sort: the premise's hypothesis a >= a renamed to x is met by a
    # minor that opens all b:Nat. b >= b at x, concluding x >= x at Tree; the
    # kernel checks no minor's conclusion, but inst and forall_elim each
    # compare it with the formula they build
    hyps = (Forall(NAT, Geq(NAT, BoundV(0), BoundV(0)), hint="b"),)
    minor = _with_concl(forall_elim(assumption(ctx, hyps, 0), ("x",)), Geq("Tree", x("x"), x("x")))
    refl = Geq(NAT, x("a"), x("a"))
    return system, inst(assumption((("a", NAT),), (refl,), 0), hyps, [minor], {"a": "x"}, ctx)


@pytest.mark.parametrize("case, message", [
    ("c_rule_judgment", "c_rule f must conclude a f atom"),
    ("c_rule_atom", "c_rule f must conclude a f atom"),
    ("c_rule_premise_sort", "premise 0: variable 0 has sort 'Tree', expected 'Nat'"),
    ("atom_judgment", "forall_elim conclusion is not the instantiated body"),
    ("quantifier_sort", "forall_elim conclusion is not the instantiated body"),
    ("order_sort", "inst minor 0 must conclude renamed premise hypothesis 0"),
])
def test_each_soundness_guard_rejects_its_proof(plus_system, case, message):
    system, d = _guarded(case, plus_system)
    with pytest.raises(LogicError, match=f"^at root: {re.escape(message)}$") as exc:
        check_proof(system, d)
    assert exc.value.path == ()


def _unlocated(case):
    """A proof that one check of the kernel rejects, by ``case``, where
    without that check the kernel would crash on it instead: imp_intro's and
    gt_ind's conclusion shapes, an unknown judgment in a hypothesis, and a
    bad context with a hypothesis to check.  ``c_rule_argument`` concludes a
    c_rule at an atom with a bound argument, which the conclusion's own
    check rejects first."""
    ctx, refl = (("x", NAT),), Geq(NAT, x("x"), x("x"))
    if case == "imp_intro_shape":
        return Deriv("imp_intro", Sequent(ctx, (), refl), (geq_refl(ctx, (refl,), NAT, "x"),))
    if case == "gt_ind_shape":
        premise = geq_refl(ctx + (("y", NAT),), (refl,), NAT, "x")
        return Deriv("gt_ind", Sequent(ctx, (), refl), (premise,))
    if case == "c_rule_argument":
        return Deriv("c_rule", Sequent(ctx, (), Atom("plus", (BoundV(0), x("x")))), (), ("plus",))
    if case == "unknown_judgment":
        return assumption(ctx, (Atom("bogus", (x("x"),)),), 0)
    # repeated_variable: with a hypothesis, so that the pair check goes on
    return assumption((("x", NAT), ("x", NAT)), (refl,), 0)


@pytest.mark.parametrize("case, message", [
    ("imp_intro_shape", "imp_intro conclusion must be an implication"),
    ("gt_ind_shape", "gt_ind conclusion must be quantified"),
    ("c_rule_argument", "conclusion: unbound index, 1 past its binders"),
    ("unknown_judgment", "hypothesis 0: unknown judgment 'bogus'"),
    ("repeated_variable", "repeated context variable"),
])
def test_a_malformed_proof_gets_a_located_error(plus_system, case, message):
    with pytest.raises(LogicError, match=f"^at root: {re.escape(message)}$") as exc:
        check_proof(plus_system, _unlocated(case))
    assert exc.value.path == ()


def _bad_block(case):
    """A node of a quantifier block, with its premise, that the kernel must
    reject, by ``case``."""
    if case in ("too_many_targets", "second_target_sort", "no_targets"):
        # all a:Nat. all b:Nat. a >= a over [x:Nat, t:Tree]: only a
        # target's sort can be wrong
        ctx = (("x", NAT), ("t", "Tree"))
        top = assumption(ctx, (Forall(NAT, Forall(NAT, Geq(NAT, BoundV(1), BoundV(1)))),), 0)
        d = forall_elim(top, ("x", "x"))
        return {"too_many_targets": d.replace(data=("x", "x", "x")),
                "second_target_sort": forall_elim(top, ("x", "t")),
                "no_targets": d.replace(data=())}[case]
    if case in ("too_few_binders", "binders_out_of_order"):
        # [x:Nat, t:Tree] |- t >= t closed into all x:Nat. all t:Tree. t >= t
        ctx = (("x", NAT), ("t", "Tree"))
        d = forall_intro(Deriv("geq_refl", Sequent(ctx, (), Geq("Tree", x("t"), x("t")))), 2)
        concl = (Forall("Tree", Geq("Tree", BoundV(0), BoundV(0))) if case == "too_few_binders"
                 else Forall("Tree", Forall(NAT, Geq("Tree", BoundV(1), BoundV(1)))))
        return d.replace(seq=d.seq.replace(concl=concl))
    # repeated_new_variable: [x:Nat, y:Nat, y:Nat] |- x >= x
    premise = geq_refl((("x", NAT), ("y", NAT), ("y", NAT)), (), NAT, "x")
    refl = Geq(NAT, x("x"), x("x"))
    return Deriv("forall_intro", Sequent((("x", NAT),), (), Forall(NAT, Forall(NAT, refl))), (premise,))


@pytest.mark.parametrize("case, message, path", [
    ("too_many_targets", "forall_elim premise must conclude a quantified formula per target", ()),
    ("second_target_sort", "forall_elim target has sort 'Tree', expected 'Nat'", ()),
    ("no_targets", "forall_elim needs one or more target variables", ()),
    ("too_few_binders", "forall_intro conclusion must quantify at the new variables' sorts, in order", ()),
    ("binders_out_of_order", "forall_intro conclusion must quantify at the new variables' sorts, in order", ()),
    # the rule's match passes, as the body ignores its binders; the premise's
    # check of the variables it adds finds the repeat, as for a block of one
    # (test_a_new_variable_must_be_fresh)
    ("repeated_new_variable", "repeated context variable", (0,)),
])
def test_quantifier_blocks_reject_a_bad_node(plus_system, case, message, path):
    system = plus_system.replace(ind_sorts=plus_system.ind_sorts | {"Tree"})
    with pytest.raises(LogicError, match=f"^at {'/'.join(map(str, path)) or 'root'}: {message}$"):
        check_proof(system, _bad_block(case))


def test_the_kernel_builds_no_formula(pipelines):
    # every rule compares the shape it demands with the proof's own formulas
    # in place, so a check of dist constructs no term or formula object
    p = pipelines["dist"]
    inits = {id(cls.__init__.__code__): cls.__name__ for cls in (Atom, Geq, Gt, Imp, Forall, FreeV, BoundV)}
    built = Counter()

    def profile(frame, event, _arg):
        if event == "call" and id(frame.f_code) in inits:
            built[inits[id(frame.f_code)]] += 1

    sys.setprofile(profile)
    try:
        check_proof(p.system, p.proof)
    finally:
        sys.setprofile(None)
    assert built == Counter()


def test_context_sorts_are_sorts_of_the_system(plus_system):
    seq = Sequent((("x", NAT), ("y", "Bogus")), (), Geq(NAT, x("x"), x("x")))
    with pytest.raises(LogicError, match="at root: variable 'y' has unknown sort 'Bogus'"):
        check_proof(plus_system, Deriv("geq_refl", seq))
    check_proof(plus_system.replace(ind_sorts=plus_system.ind_sorts | {"Bogus"}), Deriv("geq_refl", seq))


@pytest.mark.parametrize("body", [Geq(NAT, x("x"), x("x")), Atom("plus", (x("x"), x("x")))])
def test_quantifier_sorts_are_sorts_of_the_system(plus_system, body):
    # the body never uses the bound variable, so only the binder names the sort
    d = assumption((("x", NAT),), (Forall("Bogus", body, hint="x"),), 0)
    with pytest.raises(LogicError, match="at root: hypothesis 0: quantifier over unknown sort 'Bogus'"):
        check_proof(plus_system, d)
    check_proof(plus_system.replace(ind_sorts=plus_system.ind_sorts | {"Bogus"}), d)


def test_induction_completion_keeps_the_premise_derivation(plus_system):
    ctx = (("x", NAT), ("y", NAT))
    target = Sequent(ctx, (Atom("plus", (x("x"), x("y"))),), Atom("plus", (x("x"), x("y"))))
    hyp = ind_hypothesis(target, "x")
    dp = assumption(ctx, target.hyps + (hyp,), 0)
    d = ind_prime(dp, "x")
    assert d.seq == target
    check_proof(plus_system, d)
    # the premise derivation is shared as it is, never copied
    assert any(n is dp for n in distinct_nodes(d))
    assert count_rule(d, "inst") == 1 and count_rule(d, "gt_ind") == 1


def test_ind_prime_needs_the_induction_hypothesis_last():
    ctx = (("x", NAT), ("y", NAT))
    phi = Atom("plus", (x("x"), x("y")))
    with pytest.raises(AssertionError, match="not the induction hypothesis"):
        ind_prime(assumption(ctx, (phi, phi), 0), "x")


def test_gt_ind_leaves_the_body_to_the_kernel(plus_system):
    # the builder takes its conclusion's body from the induction hypothesis
    # and compares nothing, so a premise whose conclusion does not open that
    # body gets a node, and the kernel rejects it: plus(^0, y) opened at x is
    # plus(x, y), and the premise concludes plus(y, y)
    ctx = (("y", NAT), ("x", NAT))
    body = Atom("plus", (BoundV(0), x("y")))
    hyps = (Atom("plus", (x("y"), x("y"))), gt_ind_hypothesis(NAT, "x", body))
    d = gt_ind(assumption(ctx, hyps, 0))
    assert d.seq.concl.body is body
    with pytest.raises(LogicError, match="at root: gt_ind premise conclusion does not open the quantified body"):
        check_proof(plus_system, d)
