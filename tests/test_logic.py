"""Direct exercises of the proof kernel: constructors build, check_proof judges."""

import sys
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
from cycind.builders import (
    assumption,
    _map_terms,
    c_apply,
    close_free,
    forall_elim,
    forall_intro,
    fold_imp,
    free_vars,
    geq_refl,
    gt_ind,
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
    # the kernel does not rely on validate_system having run
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
    # nowhere else.  A bad hypothesis that a premise adds to the sequent
    # below is caught at every premise; one in the place of a hypothesis of
    # the sequent below is caught only where the pair enters (the root and
    # inst 0), since elsewhere the rule compares the two by value.
    monkeypatch.setattr(logic, "_check_node", lambda s, d, *a: None)
    ctx = (("x", NAT),)
    refl = Geq(NAT, x("x"), x("x"))
    good = Deriv("geq_refl", Sequent(ctx, (), refl))
    escaped = Geq(NAT, x("x"), x("z"))
    bad_concl = Deriv("geq_refl", Sequent(ctx, (), escaped))
    bad_hyp = Deriv("geq_refl", Sequent(ctx, (escaped,), escaped))
    bad_first_hyp = Deriv("geq_refl", Sequent(ctx, (escaped,), refl))
    with pytest.raises(LogicError, match="^at root: conclusion: variable 'z' not in context"):
        check_proof(plus_system, Deriv(rule, bad_concl.seq, (good,) * 3))
    with pytest.raises(LogicError, match="^at root: hypothesis 0: variable 'z'"):
        check_proof(plus_system, Deriv(rule, bad_first_hyp.seq, (good,) * 3))
    entering = ENTERING_PREMISE.get(rule)
    below = Sequent(ctx, (refl,), refl)
    for i in range(3):
        kids = [good] * 3
        kids[i] = bad_concl
        if i == entering:
            with pytest.raises(LogicError, match=f"^at {i}: conclusion: variable 'z'"):
                check_proof(plus_system, Deriv(rule, good.seq, tuple(kids)))
        else:
            check_proof(plus_system, Deriv(rule, good.seq, tuple(kids)))
        kids[i] = bad_hyp
        with pytest.raises(LogicError, match=f"^at {i}: hypothesis 0: variable 'z'"):
            check_proof(plus_system, Deriv(rule, good.seq, tuple(kids)))
        kids[i] = bad_first_hyp
        if rule == "inst" and i == 0:
            with pytest.raises(LogicError, match="^at 0: hypothesis 0: variable 'z'"):
                check_proof(plus_system, Deriv(rule, below, tuple(kids)))
        else:
            check_proof(plus_system, Deriv(rule, below, tuple(kids)))


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
    check_proof(plus_system, forall_intro(geq_refl((("x", NAT), ("y", NAT)), (), NAT, "x")))


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


def _instances(node):
    """Each ``(pattern, target, map, build)`` that ``node``'s rule matches,
    the map being the variable an opening puts in or a renaming's dict;
    ``build(pattern, target)`` is the check the kernel made before, with the
    builders' term maps and ``==``."""
    seq, kids = node.seq, node.children
    if node.rule == "forall_elim":
        (y,) = node.data
        yield kids[0].seq.concl.body, seq.concl, y, lambda pat, tgt: open_bound(pat, y) == tgt
    elif node.rule in ("forall_intro", "gt_ind"):
        v = kids[0].seq.ctx[-1][0]
        build = ((lambda pat, tgt: close_free(tgt, v) == pat) if node.rule == "forall_intro"
                 else (lambda pat, tgt: open_bound(pat, v) == tgt))
        yield seq.concl.body, kids[0].seq.concl, v, build
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
    # the fixture and fuzz proofs; on a copy of each target with one term
    # changed: to a variable of another name, or a variable to an index; on
    # the pattern itself, where every part is shared; and on targets that
    # share a part holding the opened index or a renamed name, where the
    # shortcut for shared parts must not answer
    proofs = [p.proof for p in pipelines.values()] + [proof for _case, proof in fuzz_proofs]
    compared = differ = shared = 0
    for proof in proofs:
        scopes = {}  # one cache per proof, as in check_proof
        for node in distinct_nodes(proof):
            for pat, tgt, m, build in _instances(node):
                assert logic._matches(pat, tgt, m, scopes) and build(pat, tgt), node.rule
                other = _with_term(tgt, compared % 7, _index_for_variable if compared % 2 else _renamed_term)
                built = build(pat, other)
                assert logic._matches(pat, other, m, scopes) == built, (node.rule, other)
                assert logic._matches(pat, pat, m, scopes) == build(pat, pat), (node.rule, pat)
                spliced = next(islice(_with_changed_parts_shared(pat, tgt), compared % 5, None), None)
                if spliced is not None:
                    spliced_built = build(pat, spliced)
                    assert logic._matches(pat, spliced, m, scopes) == spliced_built, (node.rule, spliced)
                    shared += not spliced_built
                compared += 1
                differ += not built
    assert compared > 10_000 and differ and shared > 5_000


def test_the_matcher_makes_no_call_per_term(pipelines):
    # a timing-free guard on the matcher's work: on dist, the kernel enters
    # _matches 794 times for its 206 instances (once more per implication's
    # left-hand side), and from there calls only itself, _scope and, for a
    # term left as it is that the target holds as another object, ==; with
    # one call per term it made 2,855 entries and 2,508 term calls
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
    assert entries == 794 and callees == {"_matches": 588, "_scope": 344, "__eq__": 83}


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
    # 145 pairs
    p = pipelines["dist"]
    calls = []
    real = logic._check_pair
    monkeypatch.setattr(logic, "_check_pair",
                        lambda *a: calls.append((id(a[2].ctx), id(a[2].hyps))) or real(*a))
    check_proof(p.system, p.proof)
    entering = [p.proof] + [d.children[0] for d in distinct_nodes(p.proof) if d.rule == "inst"]
    pairs = {(id(d.seq.ctx), id(d.seq.hyps)) for d in entering}
    assert sorted(calls) == sorted(pairs) and len(calls) == 24
    assert len({(id(d.seq.ctx), id(d.seq.hyps)) for d in distinct_nodes(p.proof)}) == 169


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
     "inst minor 1 must share the sequent context and hypotheses"),
    (lambda p, m: inst(p, (), [_other_ctx(m[0]), m[1]]),
     "inst minor 0 must share the sequent context and hypotheses"),
    (lambda p, m: inst(p, (), m).replace(seq=Sequent(INST_CTX[:1], (), INST_HYPS[0])),
     "inst target 'y' for 'y' not in context"),
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
     "inst minor 0 must share the sequent context and hypotheses"),
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
     "trans premises must share the sequent context and hypotheses"),
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
    check_proof(system, forall_elim(assumption(ctx, hyps, 0), "x"))
    with pytest.raises(LogicError, match="forall_elim target has sort 'Tree', expected 'Nat'") as exc:
        check_proof(system, forall_elim(assumption(ctx, hyps, 0), "t"))
    assert exc.value.path == ()


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
