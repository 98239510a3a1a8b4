import random
from collections import Counter

import pytest

from cycind import (
    Call,
    CallSystem,
    GEQ,
    GT,
    RegularDerivation,
    SizeChangeGraph,
    compose,
    induced_call_graph,
    induced_proof_system,
    validate_call_system,
    validate_derivation,
)
from cycind.core import DerivNode, RuleScheme

import oracles
import systems


def random_graph(rng, na, nb, p=0.4):
    edges = set()
    for i in range(na):
        for j in range(nb):
            if rng.random() < p:
                edges.add((i, j, rng.choice((GEQ, GT))))
    return SizeChangeGraph(na, nb, frozenset(edges))


def test_duplicate_edges_keep_the_strict_one():
    g = SizeChangeGraph(1, 1, frozenset({(0, 0, GEQ), (0, 0, GT)}))
    assert g.edges == frozenset({(0, 0, GT)})


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        SizeChangeGraph(1, 1, frozenset({(1, 0, GEQ)}))
    with pytest.raises(ValueError):
        SizeChangeGraph(2, 2, frozenset({(0, 0, "~")}))


def test_compose_swapping_progress():
    # one strict swap composed with itself progresses on both positions
    g = SizeChangeGraph(2, 2, frozenset({(0, 1, GT), (1, 0, GEQ)}))
    assert compose(g, g).edges == frozenset({(0, 0, GT), (1, 1, GT)})


def test_compose_matches_independent_dict_algebra():
    rng = random.Random(11)
    for _ in range(100):
        na, nb, nc = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_graph(rng, na, nb), random_graph(rng, nb, nc)
        got = oracles.as_dict(compose(a, b))
        want = oracles.compose_dicts(oracles.as_dict(a), oracles.as_dict(b))
        assert got == want


def test_compose_associative():
    rng = random.Random(12)
    for _ in range(60):
        dims = [rng.randint(1, 3) for _ in range(4)]
        a = random_graph(rng, dims[0], dims[1])
        b = random_graph(rng, dims[1], dims[2])
        c = random_graph(rng, dims[2], dims[3])
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_identity_neutral():
    def identity(n):
        return SizeChangeGraph.of(n, n, ((j, j, GEQ) for j in range(n)))

    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert compose(identity(g.src_arity), g) == g
        assert compose(g, identity(g.dst_arity)) == g


def test_path_relation_folds_left():
    g = SizeChangeGraph(2, 2, frozenset({(0, 1, GT), (1, 0, GEQ)}))
    assert oracles.path_relation([g]) == oracles.as_dict(g)
    assert oracles.path_relation([g, g, g]) == oracles.as_dict(compose(compose(g, g), g))
    with pytest.raises(ValueError):
        oracles.path_relation([])


def test_validate_call_system_diagnostics():
    dup = CallSystem({"f": ("*",)}, (
        Call("c", "f", "f", SizeChangeGraph(1, 1, frozenset())),
        Call("c", "f", "f", SizeChangeGraph(1, 1, frozenset())),
    ))
    assert validate_call_system(dup) == ["duplicate call id 'c'"]
    unknown = CallSystem({"f": ("*",)}, (
        Call("c", "f", "g", SizeChangeGraph(1, 1, frozenset())),
    ))
    assert validate_call_system(unknown) == ["call c: unknown function 'g'"]


def _one_call(dom, codom, graph):
    return CallSystem({"f": ("*",)}, (Call("c", dom, codom, graph),))


@pytest.mark.parametrize("cs, message", [
    (_one_call("g", "f", SizeChangeGraph(1, 1, frozenset())), "call c: unknown function 'g'"),
    (_one_call("f", "f", SizeChangeGraph(2, 1, frozenset())), "call c: graph is 2->1, expected 1->1"),
], ids=["unknown_caller", "graph_arity"])
def test_validate_call_system_rejects(cs, message):
    assert validate_call_system(cs) == [message]


@pytest.mark.parametrize("name, nodes, message", [
    ("plus", {"u": DerivNode("nosuch", ())}, "node u: unknown rule 'nosuch'"),
    ("fg", {"u": DerivNode("f", ("u",))}, "node u child 0: rule f concludes 'f', expected 'g'"),
], ids=["unknown_rule", "child_judgment"])
def test_validate_derivation_rejects(name, nodes, message):
    sysm, _ = induced_proof_system(systems.load(name))
    d = RegularDerivation(nodes, "u")
    assert validate_derivation(d, sysm) == [message]
    with pytest.raises(ValueError, match=f"^invalid derivation: {message}$"):
        induced_call_graph(d, sysm)


@pytest.mark.parametrize("build, message", [
    (lambda: RuleScheme("r", "j", ("j",), ()), "rule r: 0 graphs for 1 premises"),
    (lambda: compose(SizeChangeGraph(1, 2, frozenset()), SizeChangeGraph(1, 1, frozenset())),
     "arity mismatch: 2 vs 1"),
], ids=["rule_graphs", "compose_arity"])
def test_records_and_composition_reject(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_induced_system_shape():
    cs = systems.load("ack")
    sysm, derivs = induced_proof_system(cs)
    assert set(sysm.judgments) == {"ack"}
    assert sysm.judgments["ack"].ob == 2
    assert sysm.judgments["ack"].sorts == ("Nat", "Nat")
    rule = sysm.rules["ack"]
    assert rule.conclusion == "ack"
    assert rule.premises == ("ack", "ack", "ack")
    assert [sorted(g.edges) for g in rule.graphs] == [
        [(0, 0, GT)],
        [(0, 0, GEQ), (1, 1, GT)],
        [(0, 0, GT)],
    ]
    d = derivs["ack"]
    assert set(d.nodes) == {"ack"} and d.nodes["ack"].children == ("ack",) * 3


def test_induced_call_graph_round_trip():
    # turning a derivation back into a call graph recovers the call structure
    for name in ("plus", "ack", "dist", "fg"):
        cs = systems.load(name)
        sysm, derivs = induced_proof_system(cs)
        back = induced_call_graph(derivs[systems.ROOT_FUN[name]], sysm)
        got = Counter((c.dom, c.codom, c.graph) for c in back.calls)
        want = Counter((c.dom, c.codom, c.graph) for c in cs.calls)
        assert got == want


def test_induced_system_rejects_non_inductive_sorts():
    cs = systems.load("plus")
    stripped = CallSystem(cs.functions, cs.calls)  # loses ind_sorts={'Nat'}
    with pytest.raises(ValueError, match="non-inductive sort"):
        induced_proof_system(stripped)


def test_validate_derivation_diagnostics():
    cs = systems.load("plus")
    sysm, _ = induced_proof_system(cs)
    loop = RegularDerivation(
        nodes={"u": DerivNode("plus", ("v",)), "v": DerivNode("plus", ("u",)),
               "w": DerivNode("plus", ("u",))},
        root="u",
    )
    assert validate_derivation(loop, sysm) == ["node 'w' unreachable from root"]
    short = RegularDerivation(nodes={"u": DerivNode("plus", ())}, root="u")
    assert validate_derivation(short, sysm) == ["node u: 0 children for 1 premises"]
