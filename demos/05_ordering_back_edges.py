"""When back-edge cycles cross, replay the unfolding in their age order.

A proof by induction introduces hypotheses outermost-first, so a back-edge
may only use hypotheses of back-edges that close over older names.  Most
systems satisfy this as unfolded; when two cycles genuinely cross, the
representation is regrown so that at every choice point the oldest available
closure wins.  The price can be steep -- the replayed tree repeats work --
but the result carries no crossings and translates cleanly.
"""

import time

from cycind import (
    Call,
    CallSystem,
    GEQ,
    GT,
    SizeChangeGraph,
    build_reset_rep,
    crossing_violations,
    induced_proof_system,
    respect_induction_order,
)

# one function, three self calls over two arguments that drop and trade
# places: the plain unfolding closes its back-edges in an order that makes
# their cycles cross
cs = CallSystem(
    functions={"f0": ("*", "*")},
    calls=(
        Call("c0", "f0", "f0", SizeChangeGraph(2, 2, frozenset({(0, 0, GT), (1, 1, GT)}))),
        Call("c1", "f0", "f0", SizeChangeGraph(2, 2, frozenset({(0, 1, GEQ), (1, 0, GT)}))),
        Call("c2", "f0", "f0", SizeChangeGraph(2, 2, frozenset({(0, 1, GT), (1, 0, GEQ)}))),
    ),
)

system, derivs = induced_proof_system(cs)
rep = build_reset_rep(derivs["f0"], system)
crossings = crossing_violations(rep)
print(f"plain unfolding: {len(rep.nodes)} nodes,"
      f" {len(rep.buds())} back-edges, {len(crossings)} crossing pairs")
for a, b in crossings:
    print(f"  cycles of {a} and {b} overlap without nesting")

t0 = time.perf_counter()
ordered = respect_induction_order(rep)
elapsed = time.perf_counter() - t0
print(f"\nreplayed in age order: {len(ordered.nodes)} nodes,"
      f" {len(ordered.buds())} back-edges ({elapsed:.1f} s)")
print(f"crossing pairs now: {len(crossing_violations(ordered))}")
print(f"\ngrowth factor {len(ordered.nodes) / len(rep.nodes):.0f}x: the replay"
      " may only close a branch when no older closure is still possible, so"
      " whole subtrees are unfolded again under each postponed back-edge.")
