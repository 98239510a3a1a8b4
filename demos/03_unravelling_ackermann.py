"""Unravel a cyclic termination argument into a finite proof by induction.

The pipeline: induce a proof system from the call system, unfold the cyclic
derivation until every branch closes with a back-edge justified by a reset,
then translate the finite representation into a proof that an independent
checker accepts.  Each distinct annotation that receives back-edges becomes
one application of well-founded induction.
"""

from cycind import (
    check_proof,
    count_rule,
    induced_proof_system,
    parse_call_system,
    proof_size,
    prove_by_induction,
)
from cycind.cli import render_trace

ACK = """
sort Nat = 0 | suc(Nat)
fun ack(Nat, Nat)
ack(0, x1) := suc(x1)
ack(suc(x0'), 0) := ack(x0', suc(0))
ack(suc(x0'), suc(x1')) := ack(x0', ack(suc(x0'), x1'))
"""

cs = parse_call_system(ACK)
system, derivs = induced_proof_system(cs)
rep, proof = prove_by_induction(derivs["ack"], system)

print("finite representation of the infinite unfolding:")
print(render_trace(rep), end="")

buds = rep.buds()
print(f"{len(rep.nodes)} nodes, {len(buds)} back-edges")
print(f"inductive proof: {proof_size(proof)} nodes,"
      f" {count_rule(proof, 'gt_ind')} inductions")
print(f"root sequent: {proof.seq.render()}")

check_proof(system, proof)
print("checker: ok")

# the proof keeps the shape of the representation: one case-rule application
# per distinct state of its internal nodes, with the glue rules in between
internal = sum(1 for n in rep.nodes.values() if not n.is_bud)
print(f"case-rule applications: {count_rule(proof, 'c_rule')} for {internal} internal nodes")
