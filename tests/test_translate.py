"""Translation of ordered reset representations into checkable proofs."""

import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from cycind import (
    UnsoundDerivationError,
    build_reset_rep,
    check_proof,
    count_rule,
    induced_proof_system,
    proof_size,
    prove_by_induction,
    respect_induction_order,
)
from cycind import builders, formats
from cycind.builders import close_free, fold_imp, gt_ind_hypothesis, ind_hypothesis
from cycind.formats import FormulaNumbering
from cycind.logic import Forall, FreeV, Geq, Gt, distinct_nodes, render_formula
from cycind.sct import closure
from cycind.translate import TranslationError, _Orders, translate

import proofcmp
import systems
from oracles import extract_skeleton, rep_skeleton

# node counts and induction counts of the finished proofs, frozen
PROOF_SIZE = {"plus": 43, "ack": 147, "dist": 553, "treedist": 553, "fg": 39}
IND_COUNT = {"plus": 1, "ack": 3, "dist": 7, "treedist": 7, "fg": 1}


def test_frozen_proof_sizes(pipelines):
    assert {k: proof_size(p.proof) for k, p in pipelines.items()} == PROOF_SIZE


def test_frozen_induction_counts(pipelines):
    assert {k: count_rule(p.proof, "gt_ind") for k, p in pipelines.items()} == IND_COUNT


def test_no_fuzz_proof_changes_size(fuzz_proofs):
    # nodes and gt_ind of each draw, frozen: a change that makes any proof
    # grow or shrink, or moves an induction count, names the draws here
    golden = json.loads((Path(__file__).parent / "golden" / "fuzz_proof_sizes.json").read_text())
    want = [tuple(w) for w in golden["draws"]]
    got = [(proof_size(proof), count_rule(proof, "gt_ind")) for _case, proof in fuzz_proofs]
    assert len(got) == len(want) == 200
    moved = {
        "grew": [(i, w[0], g[0]) for i, (w, g) in enumerate(zip(want, got)) if g[0] > w[0]],
        "shrank": [(i, w[0], g[0]) for i, (w, g) in enumerate(zip(want, got)) if g[0] < w[0]],
        "gt_ind": [(i, w[1], g[1]) for i, (w, g) in enumerate(zip(want, got)) if g[1] != w[1]],
    }
    assert moved == {"grew": [], "shrank": [], "gt_ind": []}, "(draw, golden, now)"


def test_all_proofs_check(pipelines):
    for p in pipelines.values():
        check_proof(p.system, p.proof)


def test_root_sequent_restates_the_function(pipelines):
    p = pipelines["plus"]
    assert p.proof.seq.render() == "[x0_0:Nat, x0_1:Nat]  |- plus(x0_0, x0_1)"
    a = pipelines["ack"]
    assert a.proof.seq.render() == "[x0_0:Nat, x0_1:Nat]  |- ack(x0_0, x0_1)"


def test_skeleton_survives_translation(pipelines):
    for p in pipelines.values():
        assert extract_skeleton(p.proof) == rep_skeleton(p.rep)
    assert extract_skeleton(pipelines["plus"].proof) == ("plus", (("plus", (None,)),))


def test_prove_by_induction_wrapper(pipelines):
    p = pipelines["plus"]
    rep, proof = prove_by_induction(p.deriv, p.system)
    assert rep_skeleton(rep) == rep_skeleton(p.rep)
    assert proof_size(proof) == PROOF_SIZE["plus"]


def test_prove_by_induction_rejects_unsound_input():
    from cycind import parse_call_system
    cs = parse_call_system("sort Nat = 0 | suc(Nat)\nfun f(Nat)\nf(x0) := f(x0)\n")
    system, derivs = induced_proof_system(cs)
    with pytest.raises(UnsoundDerivationError, match="cycle: f.0"):
        prove_by_induction(derivs["f"], system)


def test_tree_distance_proof_mirrors_the_nat_one(pipelines):
    # same call structure over a different sort must yield the same proof,
    # sort names aside
    assert proofcmp.equal_modulo_sorts(
        pipelines["dist"].proof, pipelines["treedist"].proof
    )


def test_equal_states_share_one_case_rule_node(pipelines):
    # translate builds one derivation per state, so no case-rule node is
    # built twice by value
    for name in ("dist", "ack"):
        proof = pipelines[name].proof
        numbers = proofcmp.value_numbers(proof)
        cases = [numbers[id(d)] for d in distinct_nodes(proof) if d.rule == "c_rule"]
        assert len(set(cases)) == len(cases), name


def test_translate_is_deterministic(pipelines):
    p = pipelines["fg"]
    again = translate(p.rep)
    assert proof_size(again) == proof_size(p.proof)
    assert extract_skeleton(again) == extract_skeleton(p.proof)


def test_every_induction_targets_a_sprout(pipelines):
    # each gt_ind in the ack proof abstracts a variable that some reset of the
    # ordered representation actually progressed on
    rep = pipelines["ack"].rep
    prog_vars = set()
    for node in rep.nodes.values():
        for r in node.ann.resets:
            prog_vars.add(r.cover_var)
    assert len(prog_vars) >= IND_COUNT["ack"]


@pytest.mark.parametrize("name", ["plus", "fg", "ack", "dist"])
def test_soundness_is_decided_once(name, calls_to):
    cs = systems.load(name)
    system, derivs = induced_proof_system(cs)
    deriv = derivs[systems.ROOT_FUN[name]]
    calls, _ = calls_to(closure, lambda: prove_by_induction(deriv, system))
    assert len(calls) == 1


def test_unfolding_and_replay_decide_soundness_once(calls_to):
    system, derivs = induced_proof_system(systems.load("drawn_crossing"))
    calls, _ = calls_to(closure, lambda: respect_induction_order(build_reset_rep(derivs["f0"], system)))
    assert len(calls) == 1


def test_argument_of_a_non_inductive_sort():
    # no size-change edge touches B, and the kernel refuses orders at B: the
    # translation states order facts at inductive positions only
    _kind, cs = formats.loads(json.dumps({
        "format": "cycind/callsystem@1", "functions": {"f": ["Nat", "B"]},
        "ind_sorts": ["Nat"],
        "calls": [{"id": "c", "dom": "f", "codom": "f", "edges": [[0, 0, ">"]]}]}))
    system, derivs = induced_proof_system(cs)
    _rep, proof = prove_by_induction(derivs["f"], system)
    assert (proof_size(proof), count_rule(proof, "gt_ind")) == (32, 1)
    assert {h.sort for d in distinct_nodes(proof) for h in d.seq.hyps
            if isinstance(h, (Geq, Gt))} == {"Nat"}


@pytest.mark.parametrize("name", ["plus", "fg", "ack", "dist"])
def test_one_hypothesis_per_distinct_target(name, calls_to):
    system, derivs = induced_proof_system(systems.load(name))
    deriv = derivs[systems.ROOT_FUN[name]]
    calls, (_rep, proof) = calls_to(ind_hypothesis, lambda: prove_by_induction(deriv, system))
    number = FormulaNumbering()
    targets = {(c["target"].ctx, tuple(map(number, c["target"].hyps)), c["target"].concl, c["x"])
               for c in calls}
    assert len(calls) == len(targets)
    # distinct targets conclude distinct inductions
    assert len(calls) <= count_rule(proof, "gt_ind")


def test_quantifier_blocks_are_never_split(pipelines, fuzz_proofs):
    # one node opens, and one node closes, each block of binders: no
    # forall_elim sits directly on a forall_elim, nor a forall_intro on a
    # forall_intro, in the fixture and fuzz proofs (the drawn crossing case
    # among them)
    proofs = [p.proof for p in pipelines.values()] + [proof for _case, proof in fuzz_proofs]
    split = [(d.rule, d.data) for proof in proofs for d in distinct_nodes(proof)
             if d.rule in ("forall_elim", "forall_intro") and d.children[0].rule == d.rule]
    assert split == []


def test_no_order_step_rederives_one_of_its_hypotheses(pipelines, fuzz_proofs):
    # the order prover looks a fact up before it builds one
    proofs = [p.proof for p in pipelines.values()] + [proof for _case, proof in fuzz_proofs]
    redone = [d.seq.concl for proof in proofs for d in distinct_nodes(proof)
              if d.rule in ("trans", "geq_refl", "geq_subsum") and d.seq.concl in d.seq.hyps]
    assert redone == []


def test_one_term_walk_per_hypothesis_block(pipelines):
    # a timing-free guard on translation's term walks: translating dist calls
    # close_free 14 times and enters _map_terms 522 times, recursion included.
    # ind_hypothesis closes the induction variable and all the others in one
    # walk (90 and 2,300 with a walk per variable), and ind_prime walks none
    # of the formulas it holds: it builds its renamed hypothesis around the
    # hypothesis's own body, gt_ind takes its body from that hypothesis, and
    # forall_elim concludes the premise's own formulas (21 and 890 with one
    # walk each)
    names = {builders.close_free.__code__: "close_free", builders._map_terms.__code__: "_map_terms"}
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        translate(pipelines["dist"].rep)
    finally:
        sys.setprofile(None)
    assert counts == {"close_free": 14, "_map_terms": 522}


def test_order_facts_are_looked_up_by_key_and_stated_once(pipelines, fuzz_population):
    # dist and every fuzz draw, the drawn crossing case among them: the order
    # prover reads a goal's key and builds no probe formula, and the facts
    # the translation states are one object per value in each proof.  The
    # facts compared are those between the translation's own variables; the
    # strong induction macro's renamed copies (u, x*) and hyp_monotone's x^
    # are built by the builders.
    inits = {Geq.__init__.__code__, Gt.__init__.__code__}
    prove_code = _Orders.prove.__code__
    built = 0

    def profile(frame, event, _arg):
        nonlocal built
        if event == "call" and frame.f_code in inits and frame.f_back.f_code is prove_code:
            built += 1

    _, cases = fuzz_population
    reps = [pipelines["dist"].rep] + [case.rep2 for case in cases]
    sys.setprofile(profile)
    try:
        proofs = [translate(rep) for rep in reps]
    finally:
        sys.setprofile(None)
    assert built == 0

    own = re.compile(r"x\d+_\d+")
    split = []
    for i, proof in enumerate(proofs):
        objects = {}
        for d in distinct_nodes(proof):
            for h in d.seq.hyps:
                if isinstance(h, (Geq, Gt)) and own.fullmatch(h.left.name) and own.fullmatch(h.right.name):
                    objects.setdefault(h, set()).add(id(h))
        split += [(i, render_formula(h)) for h, ids in objects.items() if len(ids) > 1]
    assert split == [], "(proof, fact held by two objects)"


def _ind_hypothesis_per_variable(target, x):
    """The reference for :func:`ind_hypothesis`: one ``close_free`` walk per
    context variable, each binder wrapped as its variable is closed."""
    phi = fold_imp(target.hyps, target.concl)
    for v, s in reversed(target.ctx):
        if v != x:
            phi = Forall(s, close_free(phi, (v,)), hint=f"{v}'")
    return gt_ind_hypothesis(dict(target.ctx)[x], x, close_free(phi, (x,)))


def test_one_walk_hypothesis_equals_the_per_variable_one(pipelines, fuzz_population, monkeypatch):
    # every induction target of the fixtures and the plain fuzz draws (the
    # drawn crossing case aside): the one-walk hypothesis is the reference's
    # by value and, hints included, by rendering
    targets = []

    def recording(target, x):
        targets.append((target, x))
        return ind_hypothesis(target, x)

    monkeypatch.setattr("cycind.translate.ind_hypothesis", recording)
    _, cases = fuzz_population
    plain = [case.rep2 for case in cases if case.rep2 is case.rep1]
    assert len(plain) == 199
    for rep in [p.rep for p in pipelines.values()] + plain:
        translate(rep)
    assert len({len(t.ctx) for t, _x in targets}) > 3
    for target, x in targets:
        got, want = ind_hypothesis(target, x), _ind_hypothesis_per_variable(target, x)
        assert got == want and render_formula(got) == render_formula(want), target.render()


A, B, C, D = (FreeV(v) for v in "abcd")
CTX = tuple((v, "Nat") for v in "abcd")


def shape(d):
    """A derivation as nested ``(rule, data..., children...)`` tuples."""
    return (d.rule, *d.data, *map(shape, d.children))


def prove(hyps, goal):
    d = _Orders(CTX, hyps).prove(goal)
    assert d.seq.concl == goal and d.seq.hyps == hyps
    return shape(d)


def test_orders_prefer_a_hypothesis():
    hyps = (Gt("Nat", A, B), Geq("Nat", A, C), Geq("Nat", C, B), Geq("Nat", A, B))
    assert prove(hyps, Geq("Nat", A, B)) == ("assumption", 3)


def test_orders_prove_reflexivity():
    assert prove((), Geq("Nat", A, A)) == ("geq_refl",)


def test_orders_weaken_a_strict_hypothesis():
    hyps = (Geq("Nat", A, C), Geq("Nat", C, B), Gt("Nat", A, B))
    assert prove(hyps, Geq("Nat", A, B)) == ("geq_subsum", ("assumption", 2))


def test_orders_chain_two_hypotheses_with_the_fewest_weakenings():
    hyps = (Gt("Nat", A, B), Geq("Nat", B, C), Geq("Nat", A, D), Geq("Nat", D, C))
    # a weak goal: the all-weak chain needs no geq_subsum
    assert prove(hyps, Geq("Nat", A, C)) == ("trans", ("assumption", 2), ("assumption", 3))
    # a strict goal: only the chain through the strict fact fits
    assert prove(hyps, Gt("Nat", A, C)) == ("trans", ("assumption", 0), ("assumption", 1))
    # only strict chains: one weakening of the chained fact
    assert prove(hyps[:2], Geq("Nat", A, C)) == (
        "geq_subsum", ("trans", ("assumption", 0), ("assumption", 1)))


def test_orders_break_ties_towards_earlier_hypotheses():
    hyps = (Geq("Nat", A, D), Gt("Nat", A, B), Gt("Nat", D, C), Geq("Nat", B, C), Gt("Nat", B, C))
    assert prove(hyps, Gt("Nat", A, C)) == ("trans", ("assumption", 0), ("assumption", 2))
    assert prove(hyps[1:], Gt("Nat", A, C)) == ("trans", ("assumption", 0), ("assumption", 2))


@pytest.mark.parametrize("hyps, goal", [
    ((Geq("Nat", A, B), Geq("Nat", B, C)), Gt("Nat", A, C)),
    ((Gt("Nat", A, B), Gt("Nat", B, C), Gt("Nat", C, D)), Gt("Nat", A, D)),
    ((), Gt("Nat", A, A)),
])
def test_orders_name_the_fact_they_cannot_derive(hyps, goal):
    with pytest.raises(TranslationError, match=f"no derivation of {goal.left} > {goal.right}"):
        _Orders(CTX, hyps).prove(goal)
