"""Watch the name annotations that justify back-edges grow step by step.

Every argument position carries a stack of names for ancestors that bound it
from above.  Stepping through a call moves names along the call's edges; a
strictly smaller newcomer that covers an older name on every stack resets
that name, and the reset is what later licenses a back-edge.
"""

from cycind import GEQ, GT, SizeChangeGraph
from cycind.annotate import init_annotation, render_annotation, step

# the + call graph: callee argument 0 gets the old argument 1 (weakly),
# callee argument 1 is strictly below the old argument 0
g = SizeChangeGraph(2, 2, frozenset({(0, 1, GT), (1, 0, GEQ)}))

ann = init_annotation(2)
print("depth 0:", render_annotation(ann))

for depth in (1, 2, 3, 4):
    ann = step(ann, g)
    resets = ", ".join(f"{r.name} reset by {r.cover}" for r in ann.resets) or "-"
    print(f"depth {depth}: {render_annotation(ann)}   resets: {resets}")

print()
print("The annotation at depth 2 equals the one at depth 0 (and depth 4 the")
print("one at depth 2): after two calls the same names guard the same")
print("positions again, with a reset in between -- exactly the situation a")
print("back-edge needs.")
print()
print("key at depth 0:", init_annotation(2).key())
print("key at depth 4:", ann.key())
