"""The worked call systems used throughout the tests."""

from cycind import Call, CallSystem, SizeChangeGraph, GEQ, GT, parse_call_system

PLUS = """
sort Nat = 0 | suc(Nat)
fun plus(Nat, Nat)
plus(0, x1) := x1
plus(suc(x0'), x1) := suc(plus(x1, x0'))
"""

ACK = """
sort Nat = 0 | suc(Nat)
fun ack(Nat, Nat)
ack(0, x1) := suc(x1)
ack(suc(x0'), 0) := ack(x0', suc(0))
ack(suc(x0'), suc(x1')) := ack(x0', ack(suc(x0'), x1'))
"""

DIST = """
sort Nat = 0 | suc(Nat)
fun d(Nat, Nat)
d(x0, 0) := x0
d(0, x1) := x1
d(suc(x0'), suc(x1')) := d(x1', x1') + d(x0', x1') + d(x0', x0')
"""

TREEDIST = """
sort Tree = leaf | node(Tree, Tree)
fun d(Tree, Tree)
d(leaf, leaf) := 1
d(node(x0l, x0r), leaf) := 0
d(leaf, node(x1l, x1r)) := 0
d(node(x0l, x0r), node(x1l, x1r)) := d(x1l, x1r) + d(x0l, x1r) + d(x0l, x0r)
"""


def fg_system():
    """Mutual recursion given abstractly: f calls g keeping both arguments
    weakly, g calls f with a strict drop into the first position."""
    return CallSystem(
        functions={"f": ("*", "*"), "g": ("*",)},
        calls=(
            Call("cg", "f", "g", SizeChangeGraph(2, 1, frozenset({(0, 0, GEQ), (1, 0, GEQ)}))),
            Call("cf", "g", "f", SizeChangeGraph(1, 2, frozenset({(0, 0, GT)}))),
        ),
    )


def crossing_system():
    """One function, two self-calls, three arguments that trade places.  Its
    plain unravelling has 15 nodes and no crossing back-edges, because a
    position with no incoming edge takes back its initial token."""
    return CallSystem(
        functions={"f0": ("*", "*", "*")},
        calls=(
            Call("c0", "f0", "f0", SizeChangeGraph(3, 3, frozenset({(0, 1, GEQ), (1, 0, GT)}))),
            Call("c1", "f0", "f0",
                 SizeChangeGraph(3, 3, frozenset({(0, 0, GT), (1, 1, GEQ), (2, 0, GT)}))),
        ),
    )


def drawn_crossing_system():
    """The one draw of the benchmark population (``perfbench/run.py``, seed 7,
    draw 333) whose plain unravelling has crossing back-edges: 10 nodes and
    2 crossings, which the replay grows to 3,871 nodes."""
    return CallSystem(
        functions={"f0": ("*", "*")},
        calls=(
            Call("c0", "f0", "f0", SizeChangeGraph(2, 2, frozenset({(0, 0, GT), (1, 1, GT)}))),
            Call("c1", "f0", "f0", SizeChangeGraph(2, 2, frozenset({(0, 1, GEQ), (1, 0, GT)}))),
            Call("c2", "f0", "f0", SizeChangeGraph(2, 2, frozenset({(0, 1, GT), (1, 0, GEQ)}))),
        ),
    )


TEXTS = {"plus": PLUS, "ack": ACK, "dist": DIST, "treedist": TREEDIST}
ROOT_FUN = {"plus": "plus", "ack": "ack", "dist": "d", "treedist": "d", "fg": "f",
            "crossing": "f0", "drawn_crossing": "f0"}


def load(name):
    if name == "fg":
        return fg_system()
    if name == "crossing":
        return crossing_system()
    if name == "drawn_crossing":
        return drawn_crossing_system()
    return parse_call_system(TEXTS[name])
