"""A seeded corpus of single-row mutations of fixture proof documents, and of
one fuzz draw's: the reader or the kernel rejects each mutant at the row it
edited (or at a parent of that row), unless the mutant equals the original
by value."""

import pytest

from cycind import FormatError, LogicError, check_proof, formats
from cycind.logic import Deriv

import mutants
import proofcmp

KERNEL_RULES = ("assumption", "inst", "imp_intro", "imp_elim", "forall_intro", "forall_elim",
                "trans", "gt_ind", "c_rule")
ONE_PREMISE = ("imp_intro", "forall_intro", "forall_elim", "gt_ind")
NO_DATA = ("imp_intro", "imp_elim", "forall_intro", "trans", "gt_ind")
# the (rule, kind) pairs no row can have: no premise to drop or swap, or only
# one; no data item to edit or drop
INAPPLICABLE = ({("assumption", k) for k in ("drop_premise", "swap_premises")}
                | {(r, "swap_premises") for r in ONE_PREMISE}
                | {(r, k) for r in NO_DATA for k in ("data_last", "drop_data")})
# no worked proof has a trans row without premises (x >= x), since the
# translation states no x >= x; this fuzz draw's proof has one (25 nodes)
FUZZ_DRAW = 82
# rows mutated per (rule, kind) pair; None mutates every row
SAMPLE = {"plus": None, "fg": None, "ack": 3, "dist": 1, f"fuzz[{FUZZ_DRAW}]": None}
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
def corpus(pipelines, fuzz_proofs):
    inputs = {name: (p.system, p.proof) for name, p in pipelines.items()}
    case, proof = fuzz_proofs[FUZZ_DRAW]
    inputs[f"fuzz[{FUZZ_DRAW}]"] = (case.system, proof)
    results = []
    for name, per_pair in SAMPLE.items():
        system, proof = inputs[name]
        doc = formats.proof_to_doc(proof, system)
        _, original = formats.proof_from_doc(doc)
        for rule, kind, i, mutant in mutants.mutants(doc, SEED, per_pair):
            premises = len(doc["nodes"][i]["children"])
            results.append((name, rule, premises, kind, i, _outcome(doc, original, i, mutant)))
    return results


def test_every_mutant_is_rejected_where_it_was_made_or_equal(corpus):
    bad = [r for r in corpus if r[-1] not in ("rejected", "equal")]
    assert not bad, bad[:5]
    assert sum(r[-1] == "rejected" for r in corpus) >= 50


def test_every_rule_meets_every_mutation_that_applies(corpus):
    hit = {(rule, kind) for _name, rule, _n, kind, _i, _outcome in corpus}
    want = {(r, k) for r in KERNEL_RULES for k in mutants.KINDS} - INAPPLICABLE
    assert hit == want


def test_trans_rows_of_every_premise_count_are_mutated(corpus):
    # trans takes 0, 1 or 2 premises; each count is one shape of the rule
    for n in (0, 1, 2):
        kinds = {kind for _name, rule, premises, kind, _i, _outcome in corpus
                 if rule == "trans" and premises == n}
        assert kinds >= {"data", "conclusion", "reorder_hyps", "truncate_hyps", "ctx_sort"}, n
        assert ("drop_premise" in kinds) == (n > 0) and ("swap_premises" in kinds) == (n > 1), n
