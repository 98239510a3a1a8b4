"""Acceptance gate: ten checks, one printed verdict line each.

Three of the checks fail today and are meant to stay failing until the
behavior itself changes: the hand-worked annotation trees pick different
fresh names at two nodes (03), the Ackermann representation keeps four
younger-before-older hypothesis uses that no reordering removes (05), and
its finished proof needs four inductions rather than the two the worked
account suggests (06).  Each failure message states the measured facts.
"""

import copy
import json
import pathlib
import random
import sys
import time

import pytest

from cycind import (
    CallSystem,
    LogicError,
    build_reset_rep,
    check_proof,
    count_rule,
    decide_termination,
    induced_proof_system,
    induction_order_violations,
    proof_size,
    respect_induction_order,
)
from cycind.annotate import name_token
from cycind.formats import proof_from_doc, proof_to_doc
from cycind.translate import translate

import oracles
import proofcmp
import systems

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURES = ("plus", "ack", "dist", "treedist", "fg")


def _report(num, ok, detail):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    if not ok:
        pytest.fail(line, pytrace=False)


# ---------------------------------------------------------------------------
# the ten checks
# ---------------------------------------------------------------------------

def test_01_termination_verdicts(pipelines):
    worst = 0.0
    sizes = {}
    for name in FIXTURES:
        cs = pipelines[name].cs
        t0 = time.perf_counter()
        verdict = decide_termination(cs)
        worst = max(worst, time.perf_counter() - t0)
        assert verdict.terminating, name
        sizes[name] = verdict.closure_size
    ok = worst < 0.1 and sizes == {
        "plus": 3, "ack": 2, "dist": 3, "treedist": 3, "fg": 5,
    }
    _report(1, ok, f"five fixtures terminating, closures {sizes}, "
                   f"slowest decision {worst * 1000:.1f} ms (limit 100)")


def test_02_oracle_agreement():
    rng = random.Random(2026)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(500):
        cs = oracles.random_call_system(rng, max_funs=3, max_arity=3, max_calls=4)
        if decide_termination(cs).terminating != oracles.terminates(cs):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60
    _report(2, ok, f"500 random systems, {disagreements} disagreements with the "
                   f"brute-force oracle, {elapsed:.1f} s (limit 60)")


def _node_at(rep, path):
    nid = rep.root
    for i in path:
        node = rep.nodes[nid]
        if node.is_bud or i >= len(node.children):
            return None
        nid = node.children[i]
    return nid


def _match_worked(rep, by_path, path):
    """One worked node against ours: same stacks, strikes, and back-edge up
    to an injective renaming accumulated along the branch."""
    fwd, bwd = {}, {}

    def pair(f, o):
        if fwd.get(f, o) != o or bwd.get(o, f) != f:
            return False
        fwd[f] = o
        bwd[o] = f
        return True

    nid = rep.root
    for k in range(len(path) + 1):
        spec = by_path[path[:k]]
        node = rep.nodes[nid]
        ann = node.ann
        for j in range(ann.ob):
            live, struck = list(ann.stacks[j]), list(ann.struck(j))
            if len(spec["stacks"][j]) != len(live):
                return f"stack {j} length differs at depth {k}"
            if len(spec["struck"][j]) != len(struck):
                return f"strike count {j} differs at depth {k}"
            for f, o in zip(spec["stacks"][j] + spec["struck"][j], live + struck):
                if not pair(f, o):
                    return f"no injective renaming at depth {k} (position {j})"
        if k < len(path):
            if node.is_bud:
                return "ours places a back-edge higher up"
            nid = node.children[path[k]]
    node = rep.nodes[nid]
    spec = by_path[path]
    if "bud" in spec:
        if not node.is_bud:
            return "worked tree has a back-edge here, ours keeps growing"
        if node.sprout != _node_at(rep, tuple(spec["bud"]["target"])):
            return "back-edge lands elsewhere"
        if fwd.get(spec["bud"]["prog"]) != node.prog:
            return "progressing name differs"
    elif node.is_bud:
        return "ours has a back-edge the worked tree lacks"
    return None


def test_03_worked_annotation_trees(pipelines):
    mismatches, matched, total = [], 0, 0
    for name in ("plus", "ack", "dist", "fg"):
        doc = json.loads((GOLDEN / f"worked_{name}.json").read_text())
        rep = pipelines[doc["system"]].rep
        by_path = {tuple(n["path"]): n for n in doc["nodes"]}
        for path in sorted(by_path):
            total += 1
            why = _match_worked(rep, by_path, path)
            if why is None:
                matched += 1
            else:
                mismatches.append(f"{name}{list(path)}: {why}")
    # structural side conditions the panels illustrate
    rep = pipelines["plus"].rep
    assert len(rep.buds()) == 1
    ack = pipelines["ack"].rep
    assert {ack.nodes[b].ann.var_of(ack.nodes[b].prog).pos for b in ack.buds()} == {0, 1}
    dist = pipelines["dist"].rep
    groups = {}
    for b in dist.buds():
        groups.setdefault(dist.nodes[b].sprout, []).append(b)
    assert sorted(len(g) for g in groups.values()) == [1] * 15 + [6] * 4
    ok = not mismatches
    _report(3, ok, f"{matched}/{total} worked nodes reproduced; diverging: "
                   + (", ".join(mismatches) if mismatches else "none")
                   + " [a position with no incoming edge takes back its own"
                     " initial token when it is dead, as the worked trees do]")


def test_04_back_edge_invariants(pipelines, fuzz_population):
    _, cases = fuzz_population
    reps = [pipelines[n].rep for n in FIXTURES]
    for case in cases:
        reps.extend((case.rep1, case.rep2))
    broken, buds = [], 0
    for rep in reps:
        buds += len(rep.buds())
        broken.extend(oracles.reset_rep_violations(rep))
    ok = not broken
    _report(4, ok, f"{len(reps)} representations, {buds} back-edges, "
                   f"{len(broken)} invariant violations"
                   + (f": {broken[:3]}" if broken else ""))


def test_05_hypothesis_age_order(pipelines, fuzz_population):
    _, cases = fuzz_population
    offenders = {}
    for name in FIXTURES:
        pairs = induction_order_violations(pipelines[name].rep)
        if pairs:
            offenders[name] = sorted(pairs)
    fuzz_bad = 0
    for i, case in enumerate(cases):
        pairs = induction_order_violations(case.rep2)
        if pairs:
            fuzz_bad += 1
            offenders[f"fuzz[{i}]"] = sorted(pairs)[:4]
    ok = not offenders
    _report(5, ok, "every bud uses hypotheses of weakly older buds"
            if ok else
            f"younger-before-older hypothesis uses remain: {offenders} "
            "[these buds are mutually reachable but close over incomparable "
            "name prefixes; no reordering of non-crossing cycles removes them]")


def test_06_translated_proofs_check(pipelines, fuzz_proofs):
    for name in FIXTURES:
        p = pipelines[name]
        check_proof(p.system, p.proof)
    for case, proof in fuzz_proofs:
        check_proof(case.system, proof)
    plus_ind = count_rule(pipelines["plus"].proof, "gt_ind")
    ack_ind = count_rule(pipelines["ack"].proof, "gt_ind")
    ok = plus_ind == 1 and ack_ind == 2
    _report(6, ok, f"checker accepts 5 fixture proofs and {len(fuzz_proofs)} fuzz proofs; "
                   f"inductions: plus {plus_ind} (want 1), ack {ack_ind} (want 2) "
                   "[one induction per distinct annotated state that sprouts a "
                   "back-edge; ack has 3 distinct inductions, the paper's worked "
                   "account has 2]")


def test_every_translated_proof_checks(pipelines, fuzz_proofs):
    # the kernel half of 06 without its induction count, so a kernel or
    # builder change that breaks a proof turns this test red
    for name in FIXTURES:
        p = pipelines[name]
        check_proof(p.system, p.proof)
    for case, proof in fuzz_proofs:
        check_proof(case.system, proof)


def test_07_structure_preservation(pipelines, fuzz_proofs):
    bad = 0
    for name in FIXTURES:
        p = pipelines[name]
        if oracles.extract_skeleton(p.proof) != oracles.rep_skeleton(p.rep):
            bad += 1
    for case, proof in fuzz_proofs:
        if oracles.extract_skeleton(proof) != oracles.rep_skeleton(case.rep2):
            bad += 1
    ok = bad == 0
    _report(7, ok, f"skeletons of {5 + len(fuzz_proofs)} proofs coincide with their "
                   f"representations ({bad} mismatches)")


def test_08_name_bounds(pipelines, fuzz_population):
    _, cases = fuzz_population
    tokens = [name_token(i) for i in range(64)]
    worst = 0
    checked = 0
    systems_reps = [(pipelines[n].system, pipelines[n].rep) for n in FIXTURES]
    systems_reps += [(c.system, c.rep2) for c in cases]
    for system, rep in systems_reps:
        m = max(j.ob for j in system.judgments.values())
        names_bound, index_bound = 2 ** m, 2 ** m + m
        for node in rep.nodes.values():
            checked += 1
            assert len(node.ann.names) <= names_bound
            for name in node.ann.names:
                idx = tokens.index(name) + 1
                worst = max(worst, idx)
                assert idx <= index_bound
    _report(8, True, f"{checked} nodes: live names within 2^m, "
                     f"token index within 2^m + m (worst index {worst})")


def test_09_sorted_pipeline(pipelines):
    renamed_ok = []
    for name in ("plus", "ack", "dist", "fg"):
        p = pipelines[name]
        cs = CallSystem(
            functions={f: tuple("S" for _ in sig) for f, sig in p.cs.functions.items()},
            calls=p.cs.calls,
            ind_sorts=frozenset({"S"}),
        )
        system, derivs = induced_proof_system(cs)
        deriv = derivs[systems.ROOT_FUN[name]]
        proof = translate(respect_induction_order(build_reset_rep(deriv, system)))
        check_proof(system, proof)
        renamed_ok.append(proofcmp.equal_modulo_sorts(proof, p.proof))
    tree = pipelines["treedist"]
    assert tree.cs.ind_sorts == frozenset({"Tree"})
    check_proof(tree.system, tree.proof)
    tree_ok = proofcmp.equal_modulo_sorts(tree.proof, pipelines["dist"].proof)
    ok = all(renamed_ok) and tree_ok
    _report(9, ok, "4 fixtures re-run under a renamed inductive sort yield "
                   "identical proofs modulo sort tags; the tree-sorted distance "
                   "matches the numeric one and verifies")


def test_10_mutation_rejection(pipelines):
    p = pipelines["plus"]
    base = proof_to_doc(p.proof, p.system)
    arity = {row["rule"]: len(row["children"]) for row in base["nodes"]}

    def misfit(rule):
        want = arity[rule]
        for other, k in sorted(arity.items()):
            if k != want:
                return other
        raise AssertionError("no arity misfit available")

    rows = base["nodes"]
    survivors, located, applied = [], 0, 0
    for i in range(len(rows)):
        for kind in range(4):
            doc = copy.deepcopy(base)
            row = doc["nodes"][i]
            if kind == 0:
                row["rule"] += "_broken"
            elif kind == 1:
                row["rule"] = misfit(row["rule"])
            elif kind == 2:
                row["seq"]["concl"] = ["imp", row["seq"]["concl"], row["seq"]["concl"]]
            else:
                if row["seq"]["hyps"]:
                    row["seq"]["hyps"] = row["seq"]["hyps"][:-1]
                elif row["seq"]["ctx"]:
                    row["seq"]["ctx"] = row["seq"]["ctx"][:-1]
                else:
                    row["seq"]["concl"] = ["imp", row["seq"]["concl"],
                                           row["seq"]["concl"]]
            applied += 1
            sys_, mutated = proof_from_doc(doc)
            try:
                check_proof(sys_, mutated)
                survivors.append((i, kind))
            except LogicError as e:
                if str(e).startswith("at "):
                    located += 1
    ok = not survivors and located == applied and applied >= 50
    _report(10, ok, f"{applied} single-node mutations, {located} rejected with "
                    f"located diagnostics, {len(survivors)} accepted"
                    + (f": {survivors[:5]}" if survivors else ""))
