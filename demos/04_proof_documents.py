"""Round-trip every artifact through its JSON document format.

Call systems, cyclic derivations, annotated representations, and finished
proofs each have a tagged, versioned document.  Proof tables are flat: a row
per distinct subproof, children by row id, so shared subproofs are written
once and documents never nest deeply.  Formulas and context entries are
written once too, in a formula table and a variable table, and each sequent
is a list of indices into them; the reloaded proof shares one object per
table row.
"""

import json

from cycind import check_proof, formats, induced_proof_system, parse_call_system
from cycind import prove_by_induction

PLUS = """
sort Nat = 0 | suc(Nat)
fun plus(Nat, Nat)
plus(0, x1) := x1
plus(suc(x0'), x1) := suc(plus(x1, x0'))
"""

cs = parse_call_system(PLUS)
system, derivs = induced_proof_system(cs)
rep, proof = prove_by_induction(derivs["plus"], system)

doc = formats.proof_to_doc(proof, system)
text = formats.dumps(doc)
print(f"proof document: {len(text)} bytes, {len(doc['nodes'])} rows,"
      f" root row {doc['root']}")
print(f"tables: {len(doc['formulas'])} formulas, {len(doc['variables'])} variables")

row = doc["nodes"][0]
print("first row:", json.dumps(row)[:100], "...")

kind, (system2, proof2) = formats.loads(text)
same = formats.proof_to_doc(proof2, system2) == doc
print(f"reloaded as {kind!r}; equal to the original: {same}")
check_proof(system2, proof2)
print("reloaded proof checks: ok")

# the loader refuses anything whose tag it does not know
try:
    formats.loads('{"format": "cycind/surprise@9"}')
except formats.FormatError as e:
    print(f"bad tag rejected: {e}")

# and the call system itself round-trips the same way
cs_doc = formats.call_system_to_doc(cs)
print(f"call system round-trips: {formats.call_system_from_doc(cs_doc) == cs}")
