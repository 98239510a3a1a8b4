import ast
import pathlib

import pytest

import cycind.unfold
from cycind import (
    GT,
    build_reset_rep,
    check_proof,
    count_rule,
    crossing_violations,
    induced_proof_system,
    induction_order_violations,
    proof_size,
    respect_induction_order,
    UnfoldCapError,
    UnsoundDerivationError,
)
from cycind.cli import render_trace
from cycind.translate import translate
from cycind.unfold import bud_weakly_older, reachable_from

import oracles
import systems
from test_sct import weakened

GOLDEN = pathlib.Path(__file__).parent / "golden"

REP_SHAPE = {"plus": (3, 1), "ack": (10, 7), "dist": (58, 39), "treedist": (58, 39),
             "fg": (3, 1)}


def test_rep_sizes_and_bud_counts(pipelines):
    for name, (nodes, buds) in REP_SHAPE.items():
        rep = pipelines[name].rep
        assert len(rep.nodes) == nodes, name
        assert len(rep.buds()) == buds, name


def test_traces_match_golden_files(pipelines):
    for name in REP_SHAPE:
        got = render_trace(pipelines[name].rep)
        assert got == (GOLDEN / f"{name}.trace").read_text(), name


def test_tree_distance_unfolds_like_nat_distance(pipelines):
    assert render_trace(pipelines["dist"].rep) == render_trace(pipelines["treedist"].rep)


def test_plus_bud_structure(pipelines):
    rep = pipelines["plus"].rep
    (bud,) = rep.buds()
    node = rep.nodes[bud]
    assert (bud, node.sprout, node.prog) == ("n2", "n0", "b")
    assert node.ann.key() == rep.nodes["n0"].ann.key()


def test_fg_bud_structure(pipelines):
    rep = pipelines["fg"].rep
    (bud,) = rep.buds()
    node = rep.nodes[bud]
    assert (bud, node.sprout, node.prog) == ("n2", "n0", "a")


def test_ackermann_bud_map(pipelines):
    rep = pipelines["ack"].rep
    got = {b: (rep.nodes[b].sprout, rep.nodes[b].prog) for b in rep.buds()}
    assert got == {
        "n2": ("n0", "b"), "n4": ("n0", "a"), "n5": ("n1", "d"), "n6": ("n0", "a"),
        "n7": ("n0", "a"), "n8": ("n3", "d"), "n9": ("n0", "a"),
    }
    # progress is claimed on both argument positions somewhere
    positions = {rep.nodes[b].ann.var_of(rep.nodes[b].prog).pos for b in rep.buds()}
    assert positions == {0, 1}


def test_distance_sibling_bud_groups(pipelines):
    rep = pipelines["dist"].rep
    by_sprout = {}
    for b in rep.buds():
        by_sprout.setdefault(rep.nodes[b].sprout, []).append(b)
    assert sorted(len(v) for v in by_sprout.values()) == [1] * 15 + [6] * 4


def test_invariants_hold_on_fixtures(pipelines):
    for name in REP_SHAPE:
        assert oracles.reset_rep_violations(pipelines[name].rep) == [], name


def test_reordering_is_identity_when_nothing_crosses(pipelines):
    for name in REP_SHAPE:
        rep = pipelines[name].rep
        assert crossing_violations(rep) == []
        assert respect_induction_order(rep) is rep


def test_ackermann_induction_order_violations(pipelines):
    # two bud pairs use hypotheses from below their own cycle even though the
    # buds are mutually reachable and not age-ordered; reordering does not
    # remove them because their back-edges never cross
    got = sorted(induction_order_violations(pipelines["ack"].rep))
    assert got == [("n5", "n2"), ("n8", "n2")]
    for name in ("plus", "dist", "treedist", "fg"):
        assert induction_order_violations(pipelines[name].rep) == []


def test_bud_age_order_on_ackermann(pipelines):
    rep = pipelines["ack"].rep
    # n7 progresses on the root name a, n5 on the deeper d: prefix (a) < (a, d)
    assert bud_weakly_older(rep, "n7", "n5")
    assert not bud_weakly_older(rep, "n5", "n7")
    # both progress on a name d, bound at different nodes: incomparable
    assert not bud_weakly_older(rep, "n8", "n5")
    assert not bud_weakly_older(rep, "n5", "n8")
    assert bud_weakly_older(rep, "n7", "n7")


def test_reachability_follows_back_edges(pipelines):
    rep = pipelines["plus"].rep
    assert reachable_from(rep, "n2") == {"n0", "n1", "n2"}
    assert reachable_from(rep, "n0") == {"n0", "n1", "n2"}


def test_unsound_input_refused():
    weak = weakened(systems.load("ack"), "ack.1", (1, 1, GT))
    wsys, wder = induced_proof_system(weak)
    with pytest.raises(UnsoundDerivationError):
        build_reset_rep(wder["ack"], wsys)


def test_cap_trips_as_circuit_breaker(monkeypatch):
    monkeypatch.setenv("CYCIND_UNFOLD_CAP", "10")
    cs = systems.load("dist")
    sysm, derivs = induced_proof_system(cs)
    with pytest.raises(UnfoldCapError, match="CYCIND_UNFOLD_CAP"):
        build_reset_rep(derivs["d"], sysm)


def test_the_replay_keeps_the_cap_of_phase_one(monkeypatch):
    # the cap is set once, in phase one, and travels on the representation
    system, derivs = induced_proof_system(systems.load("drawn_crossing"))
    monkeypatch.setenv("CYCIND_UNFOLD_CAP", "100")
    rep = build_reset_rep(derivs["f0"], system)
    assert len(rep.nodes) == 10
    monkeypatch.delenv("CYCIND_UNFOLD_CAP")
    with pytest.raises(UnfoldCapError) as exc:
        respect_induction_order(rep)
    assert str(exc.value) == "re-unfolding exceeded 100 nodes; set CYCIND_UNFOLD_CAP to raise the limit"


# --- the availability replay -------------------------------------------------

def force_replay(rep, monkeypatch):
    """Run the phase-two replay even when no back-edges cross."""
    monkeypatch.setattr(cycind.unfold, "crossing_violations",
                        lambda _rep: [("forced", "forced")])
    try:
        return cycind.unfold.respect_induction_order(rep)
    finally:
        monkeypatch.undo()


def test_forced_replay_on_plus(pipelines, monkeypatch):
    p = pipelines["plus"]
    rep2 = force_replay(p.rep, monkeypatch)
    # the single bud registers itself as the landing site, so the loop body
    # unfolds once more before closing onto the registered bud
    assert len(rep2.nodes) == 5 and len(rep2.buds()) == 1
    (bud,) = rep2.buds()
    assert rep2.nodes[bud].sprout == "n2"
    assert oracles.reset_rep_violations(rep2) == []
    proof = translate(rep2)
    check_proof(p.system, proof)
    assert proof_size(proof) == 53 and count_rule(proof, "gt_ind") == 1


def test_forced_replay_on_fg(pipelines, monkeypatch):
    p = pipelines["fg"]
    rep2 = force_replay(p.rep, monkeypatch)
    assert len(rep2.nodes) == 5 and len(rep2.buds()) == 1
    assert oracles.reset_rep_violations(rep2) == []
    proof = translate(rep2)
    check_proof(p.system, proof)
    assert proof_size(proof) == 36 and count_rule(proof, "gt_ind") == 1


def test_forced_replay_on_ackermann(pipelines, monkeypatch):
    rep2 = force_replay(pipelines["ack"].rep, monkeypatch)
    assert len(rep2.nodes) == 511 and len(rep2.buds()) == 341
    assert crossing_violations(rep2) == []
    assert oracles.reset_rep_violations(rep2) == []


def _preorder(rep):
    """The reference order: each node, then its children's subtrees from
    left to right, walked from the root."""
    out, todo = [], [rep.root]
    while todo:
        nid = todo.pop()
        out.append(nid)
        todo.extend(reversed(rep.nodes[nid].children))
    return out


@pytest.mark.parametrize("name", ["plus", "ack", "dist", "treedist", "fg", "drawn_crossing"])
def test_nodes_are_stored_in_preorder(monkeypatch, name):
    # translate, render_trace and induction_order_violations read the tree
    # in this order off rep.nodes instead of walking it again
    system, derivs = induced_proof_system(systems.load(name))
    rep1 = build_reset_rep(derivs[systems.ROOT_FUN[name]], system)
    rep2 = force_replay(rep1, monkeypatch)
    assert rep2 is not rep1
    for rep in (rep1, rep2):
        assert list(rep.nodes) == _preorder(rep)


def test_crossing_fixture_reordered():
    # with the paper's tokens nothing crosses, so the replay leaves the fixture as it is
    cs = systems.load("crossing")
    sysm, derivs = induced_proof_system(cs)
    rep1 = build_reset_rep(derivs["f0"], sysm)
    assert len(rep1.nodes) == 15
    assert crossing_violations(rep1) == []
    assert oracles.reset_rep_violations(rep1) == []
    assert respect_induction_order(rep1) is rep1


def test_drawn_crossing_case_reordered():
    # a drawn system whose plain unravelling has genuinely crossing cycles
    sysm, derivs = induced_proof_system(systems.load("drawn_crossing"))
    rep1 = build_reset_rep(derivs["f0"], sysm)
    assert len(rep1.nodes) == 10
    assert len(crossing_violations(rep1)) == 2
    assert oracles.reset_rep_violations(rep1) == []
    rep2 = respect_induction_order(rep1)
    assert len(rep2.nodes) == 3871
    assert crossing_violations(rep2) == []
    assert oracles.reset_rep_violations(rep2) == []


def test_one_walker_builds_both_phases():
    # read from the source: one function builds every RepNode, and the
    # replay neither decides soundness again nor reads the environment
    tree = ast.parse(pathlib.Path(cycind.unfold.__file__).read_text(encoding="utf-8"))
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]

    def names(f):
        return {n.id for n in ast.walk(f) if isinstance(n, ast.Name)} | \
               {n.attr for n in ast.walk(f) if isinstance(n, ast.Attribute)}

    builders = [f.name for f in funcs
                if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "RepNode"
                       for c in ast.walk(f))]
    assert builders == ["_unfold"]
    (replay,) = [f for f in funcs if f.name == "respect_induction_order"]
    assert not names(replay) & {"check_soundness", "_unfold_cap", "closure", "environ", "getenv", "os"}
    assert "deriv" not in cycind.unfold.ResetRep.__slots__
