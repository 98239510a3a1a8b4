import random

from cycind import (
    Call,
    CallSystem,
    GEQ,
    GT,
    SizeChangeGraph,
    check_soundness,
    closure,
    decide_termination,
    induced_proof_system,
)

import oracles
import systems

CLOSURE_SIZES = {"plus": 3, "ack": 2, "dist": 3, "treedist": 3, "fg": 5}


def weakened(cs, call_id, edge):
    """The same system with one strict edge of one call relaxed to >=."""
    i, j, _ = edge
    calls = []
    for c in cs.calls:
        if c.id == call_id:
            edges = (c.graph.edges - {edge}) | {(i, j, GEQ)}
            calls.append(c.replace(
                graph=SizeChangeGraph(c.graph.src_arity, c.graph.dst_arity, frozenset(edges))))
        else:
            calls.append(c)
    return cs.replace(calls=tuple(calls))


def test_fixture_verdicts_and_closure_sizes():
    for name, size in CLOSURE_SIZES.items():
        v = decide_termination(systems.load(name))
        assert v.terminating, name
        assert v.counterexample is None and v.culprit is None
        assert v.closure_size == size, name


def test_closure_witnesses_compose_to_their_element():
    for name in ("plus", "ack", "fg"):
        cs = systems.load(name)
        by_id = {c.id: c for c in cs.calls}
        elems = closure(cs)
        assert elems
        for e in elems:
            calls = [by_id[w] for w in e.witness]
            assert calls[0].dom == e.src and calls[-1].codom == e.dst
            for a, b in zip(calls, calls[1:]):
                assert a.codom == b.dom
            assert oracles.path_relation([c.graph for c in calls]) == oracles.as_dict(e.graph)


def test_weakened_ackermann_gives_a_lasso():
    cs = systems.load("ack")
    weak = weakened(cs, "ack.1", (1, 1, GT))
    v = decide_termination(weak)
    assert not v.terminating
    lasso = v.counterexample
    assert lasso is not None and lasso.cycle
    # the cycle is a genuine counterexample: an idempotent self-composition
    # with no strict edge on the diagonal
    by_id = {c.id: c for c in weak.calls}
    cyc = [by_id[w] for w in lasso.cycle]
    assert cyc[0].dom == cyc[-1].codom
    g = oracles.path_relation([c.graph for c in cyc])
    assert oracles.compose_dicts(g, g) == g
    assert not any(i == j and lab == oracles.STRICT for (i, j), lab in g.items())
    # and the prefix actually leads from a root to the cycle
    if lasso.prefix:
        pre = [by_id[w] for w in lasso.prefix]
        assert pre[-1].codom == cyc[0].dom


def test_weakened_distance_not_terminating():
    weak = weakened(systems.load("dist"), "d.0", (1, 0, GT))
    weak = weakened(weak, "d.0", (1, 1, GT))
    assert not decide_termination(weak).terminating


def test_roots_restrict_the_verdict():
    cs = CallSystem(
        {"f": ("*",), "h": ("*",)},
        (Call("cf", "f", "f", SizeChangeGraph(1, 1, frozenset({(0, 0, GT)}))),
         Call("ch", "h", "h", SizeChangeGraph(1, 1, frozenset({(0, 0, GEQ)})))),
    )
    assert decide_termination(cs, roots={"f"}).terminating
    assert not decide_termination(cs).terminating
    v = decide_termination(cs, roots={"h"})
    assert not v.terminating and v.culprit.src == "h"


def test_check_soundness_follows_the_derivation():
    cs = systems.load("ack")
    sysm, derivs = induced_proof_system(cs)
    assert check_soundness(derivs["ack"], sysm).terminating
    weak = weakened(cs, "ack.1", (1, 1, GT))
    wsys, wder = induced_proof_system(weak)
    v = check_soundness(wder["ack"], wsys)
    assert not v.terminating and v.counterexample is not None


def test_agrees_with_saturation_oracle_on_fixtures():
    for name in CLOSURE_SIZES:
        cs = systems.load(name)
        assert oracles.terminates(cs) is True
    weak = weakened(systems.load("ack"), "ack.1", (1, 1, GT))
    assert oracles.terminates(weak) is False


def test_agrees_with_saturation_oracle_on_random_systems():
    rng = random.Random(99)
    for _ in range(150):
        cs = oracles.random_call_system(rng)
        assert decide_termination(cs).terminating == oracles.terminates(cs)
