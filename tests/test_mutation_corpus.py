"""A seeded corpus of single-row mutations of fixture proof documents: the
reader or the kernel rejects each mutant at the row it edited (or at a
parent of that row), unless the mutant equals the original by value."""

import pytest

from cycind import FormatError, LogicError, check_proof, formats
from cycind.logic import Deriv

import mutants
import proofcmp

KERNEL_RULES = ("assumption", "inst", "imp_intro", "imp_elim", "forall_intro", "forall_elim",
                "geq_refl", "trans", "geq_subsum", "gt_ind", "c_rule")
ONE_PREMISE = ("imp_intro", "forall_intro", "forall_elim", "geq_subsum", "gt_ind")
# the (rule, kind) pairs no row can have: no premise to drop or swap, or only one
INAPPLICABLE = ({(r, k) for r in ("assumption", "geq_refl") for k in ("drop_premise", "swap_premises")}
                | {(r, "swap_premises") for r in ONE_PREMISE})
# rows mutated per (rule, kind) pair; None mutates every row
SAMPLE = {"plus": None, "fg": None, "ack": 3, "dist": 1}
SEED = 15


def _row_at(doc: dict, path: tuple[int, ...]) -> int:
    """The id of the row that an error path leads to, from the root row."""
    row = doc["root"]
    for k in path:
        row = doc["nodes"][row]["children"][k]
    return row


def _equal_by_value(a: Deriv, b: Deriv) -> bool:
    number = proofcmp.value_numbers(Deriv("pair", a.seq, (a, b)))
    return number[id(a)] == number[id(b)]


def _outcome(doc: dict, original: Deriv, i: int, mutant: dict) -> str:
    try:
        system, proof = formats.proof_from_doc(mutant)
    except FormatError as e:
        return "rejected" if str(e).startswith(f"node {i}: ") else f"reader: {e}"
    try:
        check_proof(system, proof)
    except LogicError as e:
        row = _row_at(mutant, e.path)
        # only row i changed, so only it or a parent of it can fail
        located = row == i or i in doc["nodes"][row]["children"]
        return "rejected" if located else f"at row {row}: {e}"
    return "equal" if _equal_by_value(original, proof) else "accepted"


@pytest.fixture(scope="module")
def corpus(pipelines):
    results = []
    for name, per_pair in SAMPLE.items():
        p = pipelines[name]
        doc = formats.proof_to_doc(p.proof, p.system)
        assert [row["id"] for row in doc["nodes"]] == list(range(len(doc["nodes"])))
        _, original = formats.proof_from_doc(doc)
        for rule, kind, i, mutant in mutants.mutants(doc, SEED, per_pair):
            results.append((name, rule, kind, i, _outcome(doc, original, i, mutant)))
    return results


def test_every_mutant_is_rejected_where_it_was_made_or_equal(corpus):
    bad = [r for r in corpus if r[-1] not in ("rejected", "equal")]
    assert not bad, bad[:5]
    assert sum(r[-1] == "rejected" for r in corpus) >= 50


def test_every_rule_meets_every_mutation_that_applies(corpus):
    hit = {(rule, kind) for _name, rule, kind, _i, _outcome in corpus}
    want = {(r, k) for r in KERNEL_RULES for k in mutants.KINDS} - INAPPLICABLE
    assert hit == want
