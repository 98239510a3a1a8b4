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
    translate,
    UnfoldCapError,
    UnsoundDerivationError,
)
from cycind.cli import render_trace
from cycind.unfold import bud_weakly_older, reachable_from

import oracles
import systems
from test_sct import weakened

GOLDEN = pathlib.Path(__file__).parent / "golden"

REP_SHAPE = {"plus": (3, 1), "ack": (22, 15), "dist": (58, 39), "treedist": (58, 39),
             "fg": (5, 1)}


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
    assert (bud, node.sprout, node.prog) == ("n4", "n2", "a")


def test_ackermann_bud_map(pipelines):
    rep = pipelines["ack"].rep
    got = {b: (rep.nodes[b].sprout, rep.nodes[b].prog) for b in rep.buds()}
    assert got == {
        "n2": ("n0", "b"), "n5": ("n1", "d"), "n7": ("n1", "a"), "n8": ("n4", "c"),
        "n9": ("n1", "a"), "n10": ("n1", "a"), "n11": ("n6", "c"), "n12": ("n1", "a"),
        "n14": ("n3", "d"), "n16": ("n3", "a"), "n17": ("n13", "c"), "n18": ("n3", "a"),
        "n19": ("n3", "a"), "n20": ("n15", "c"), "n21": ("n3", "a"),
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
    assert got == [("n11", "n5"), ("n17", "n14"), ("n20", "n14"), ("n8", "n5")]
    for name in ("plus", "dist", "treedist", "fg"):
        assert induction_order_violations(pipelines[name].rep) == []


def test_bud_age_order_on_ackermann(pipelines):
    rep = pipelines["ack"].rep
    # n7 progresses on the root name a, n5 on the deeper d: prefix (a) < (a, d)
    assert bud_weakly_older(rep, "n7", "n5")
    assert not bud_weakly_older(rep, "n5", "n7")
    # prefixes (a, c) and (a, d): incomparable
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
    assert proof_size(proof) == 91 and count_rule(proof, "gt_ind") == 1


def test_forced_replay_on_fg(pipelines, monkeypatch):
    p = pipelines["fg"]
    rep2 = force_replay(p.rep, monkeypatch)
    assert len(rep2.nodes) == 7 and len(rep2.buds()) == 1
    assert oracles.reset_rep_violations(rep2) == []
    proof = translate(rep2)
    check_proof(p.system, proof)
    assert proof_size(proof) == 95 and count_rule(proof, "gt_ind") == 1


def test_forced_replay_on_ackermann(pipelines, monkeypatch):
    rep2 = force_replay(pipelines["ack"].rep, monkeypatch)
    assert len(rep2.nodes) == 2047 and len(rep2.buds()) == 1365
    assert crossing_violations(rep2) == []
    assert oracles.reset_rep_violations(rep2) == []


def test_crossing_fixture_reordered():
    # two self-calls whose plain unravelling has genuinely crossing cycles
    cs = systems.load("crossing")
    sysm, derivs = induced_proof_system(cs)
    rep1 = build_reset_rep(derivs["f0"], sysm)
    assert len(rep1.nodes) == 31
    assert len(crossing_violations(rep1)) == 5
    assert oracles.reset_rep_violations(rep1) == []
    rep2 = respect_induction_order(rep1)
    assert len(rep2.nodes) == 23881
    assert crossing_violations(rep2) == []
    assert oracles.reset_rep_violations(rep2) == []
