"""Translation of ordered reset representations into checkable proofs."""

import pytest

from cycind import (
    UnsoundDerivationError,
    build_reset_rep,
    check_proof,
    count_rule,
    extract_skeleton,
    induced_proof_system,
    proof_size,
    prove_by_induction,
    respect_induction_order,
)
from cycind.builders import ind_hypothesis
from cycind.formats import FormulaNumbering
from cycind.logic import FreeV, Geq, Gt, distinct_nodes
from cycind.sct import closure
from cycind.translate import TranslationError, _Orders, rep_skeleton, translate

import proofcmp
import systems

# node counts and induction counts of the finished proofs, frozen
PROOF_SIZE = {"plus": 53, "ack": 254, "dist": 756, "treedist": 756, "fg": 72}
IND_COUNT = {"plus": 1, "ack": 4, "dist": 7, "treedist": 7, "fg": 1}


def test_frozen_proof_sizes(pipelines):
    assert {k: proof_size(p.proof) for k, p in pipelines.items()} == PROOF_SIZE


def test_frozen_induction_counts(pipelines):
    assert {k: count_rule(p.proof, "gt_ind") for k, p in pipelines.items()} == IND_COUNT


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


def test_the_replay_decides_soundness_at_most_once_more(calls_to):
    system, derivs = induced_proof_system(systems.load("crossing"))
    calls, _ = calls_to(closure, lambda: respect_induction_order(build_reset_rep(derivs["f0"], system)))
    assert len(calls) <= 2


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


def test_no_order_step_rederives_one_of_its_hypotheses(pipelines, fuzz_proofs):
    # the order prover looks a fact up before it builds one
    proofs = [p.proof for p in pipelines.values()] + [proof for _case, proof in fuzz_proofs]
    redone = [d.seq.concl for proof in proofs for d in distinct_nodes(proof)
              if d.rule in ("trans", "geq_refl", "geq_subsum") and d.seq.concl in d.seq.hyps]
    assert redone == []


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
