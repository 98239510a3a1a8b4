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
    translate,
)
from cycind.logic import distinct_nodes
from cycind.translate import rep_skeleton

import proofcmp
import systems

# node counts and induction counts of the finished proofs, frozen
PROOF_SIZE = {"plus": 57, "ack": 272, "dist": 818, "treedist": 818, "fg": 74}
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
