"""The stack-annotation step function, pinned on the worked examples."""

import random

import pytest

from cycind import (
    GEQ,
    GT,
    Reset,
    SizeChangeGraph,
    VarRef,
    init_annotation,
    render_annotation,
    step,
)
from cycind.annotate import name_token, uniform_covers

import oracles

PLUS_G = SizeChangeGraph(2, 2, frozenset({(0, 1, GT), (1, 0, GEQ)}))


def test_name_tokens():
    assert [name_token(i) for i in (0, 1, 25, 26, 30)] == ["a", "b", "z", "a26", "a30"]


def token_index(tok):
    if len(tok) == 1:
        return ord(tok) - ord("a")
    return int(tok[1:])


def test_init_annotation():
    a = init_annotation(2)
    assert a.names == ("a", "b")
    assert a.stacks == (("a",), ("b",))
    assert a.binding == (VarRef(0, 0), VarRef(0, 1))
    assert a.depth == 0 and a.resets == ()


def test_plus_first_step():
    a1 = step(init_annotation(2), PLUS_G)
    assert a1.names == ("a", "b")
    assert a1.stacks == (("b",), ("a",))
    # position 1 appended a fresh name c over a, which immediately covered a
    assert a1.pre_stacks == (("b",), ("a", "c"))
    assert a1.resets == (Reset("a", "c", VarRef(1, 1)),)
    assert render_annotation(a1) == "(b | a ~c~)"


def test_plus_second_step_closes_the_loop():
    a2 = step(step(init_annotation(2), PLUS_G), PLUS_G)
    assert render_annotation(a2) == "(a | b ~c~)"
    assert a2.resets == (Reset("b", "c", VarRef(2, 1)),)
    assert a2.key() == init_annotation(2).key()


def test_no_edge_position_gets_fresh_singleton():
    g = SizeChangeGraph(2, 2, frozenset({(0, 0, GEQ)}))
    a1 = step(init_annotation(2), g)
    assert a1.stacks == (("a",), ("c",))
    assert a1.names == ("a", "c")  # b was forgotten


def test_no_edge_position_takes_back_its_dead_initial_token():
    # after the first step b is dead; at the second, position 1 has no
    # incoming edge and takes b back, so position 0's fresh name is c
    merge = SizeChangeGraph(2, 2, frozenset({(0, 0, GEQ), (0, 1, GEQ)}))
    a1 = step(init_annotation(2), merge)
    assert a1.names == ("a",)
    a2 = step(a1, SizeChangeGraph(2, 2, frozenset({(0, 0, GT)})))
    assert a2.pre_stacks == (("a", "c"), ("b",))
    assert render_annotation(a2) == "(a ~c~ | b)"
    assert a2.names == ("a", "b")


def test_uniform_covers():
    assert uniform_covers(("a", "b"), (("a",), ("b",))) == {}
    # c sits above a on every stack that carries a
    assert uniform_covers(("a", "b", "c"), (("a", "c"), ("b",))) == {"a": "c"}
    # not uniform: a also occurs on a stack without c
    assert uniform_covers(("a", "b", "c"), (("a", "c"), ("a",))) == {}


def test_step_rejects_wrong_arity():
    with pytest.raises(ValueError, match="arity"):
        step(init_annotation(2), SizeChangeGraph(3, 1, frozenset()))


def annotation_ok(a):
    assert len(a.binding) == len(a.names)
    assert len(set(a.names)) == len(a.names)
    assert {n for st in a.stacks for n in st} == set(a.names)
    for st in a.stacks:
        ages = [a.names.index(n) for n in st]
        assert ages == sorted(ages)
    for r in a.resets:
        assert r.name in a.names
    for v1, v2 in zip(a.binding, a.binding[1:]):
        assert (v1.depth, v1.pos) < (v2.depth, v2.pos)


def test_random_walks_keep_annotations_consistent():
    rng = random.Random(4)
    for _ in range(40):
        cs = oracles.random_call_system(rng)
        by_dom = {}
        for c in cs.calls:
            by_dom.setdefault(c.dom, []).append(c)
        fun = rng.choice(list(cs.functions))
        ann = init_annotation(len(cs.functions[fun]))
        for _ in range(25):
            outs = by_dom.get(fun)
            if not outs:
                break
            call = rng.choice(outs)
            ann = step(ann, call.graph)
            fun = call.codom
            annotation_ok(ann)
