"""Seeded single-row mutations of proof documents.

A mutant is a proof document (:func:`cycind.formats.proof_to_doc`) with one
row edited in one of the ways in :data:`KINDS`; every other row is shared
with the original document, which is never changed.
"""

import random

KINDS = ("data", "drop_premise", "swap_premises", "reorder_hyps", "truncate_hyps",
         "conclusion", "ctx_sort")


def _mutated_row(kind: str, row: dict, doc: dict, rng: random.Random) -> dict | None:
    """A copy of ``row`` with one ``kind`` edit, or None where ``kind`` does
    not apply to it."""
    seq, kids, data = dict(row["seq"]), list(row["children"]), list(row["data"])
    if kind == "data":
        # a rule without data gets some; otherwise the first item changes: a
        # position moves on, and a name becomes one that nothing binds
        if not data:
            data = [0]
        else:
            data[0] = data[0] + 1 if isinstance(data[0], int) else data[0] + "~"
    elif kind == "drop_premise":
        if not kids:
            return None
        del kids[rng.randrange(len(kids))]
    elif kind == "swap_premises":
        if len(kids) < 2:
            return None
        i, j = rng.sample(range(len(kids)), 2)
        kids[i], kids[j] = kids[j], kids[i]
    elif kind == "reorder_hyps":
        hyps = seq["hyps"] = list(seq["hyps"])
        if len(hyps) < 2:
            return None
        i, j = rng.sample(range(len(hyps)), 2)
        hyps[i], hyps[j] = hyps[j], hyps[i]
    elif kind == "truncate_hyps":
        if not seq["hyps"]:
            return None
        seq["hyps"] = seq["hyps"][: rng.randrange(len(seq["hyps"]))]
    elif kind == "conclusion":
        # another row of the formula table: well formed somewhere in the proof
        seq["concl"] = rng.choice([k for k in range(len(doc["formulas"])) if k != seq["concl"]])
    elif kind == "ctx_sort":
        if not seq["ctx"]:
            return None
        ctx = seq["ctx"] = list(seq["ctx"])
        k = rng.randrange(len(ctx))
        name, sort = doc["variables"][ctx[k]]
        ctx[k] = [name, sort + "'"]
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return {**row, "seq": seq, "children": kids, "data": data}


def mutants(doc: dict, seed: int, per_pair: int | None = None):
    """Yield ``(rule, kind, row id, mutant document)``.

    Every row gets every mutation that applies to it, or, with ``per_pair``,
    at most that many rows of each (rule, kind) pair, drawn with ``seed``.
    """
    rng = random.Random(seed)
    rows = doc["nodes"]
    for kind in KINDS:
        by_rule: dict[str, list[tuple[int, dict]]] = {}
        for i, row in enumerate(rows):
            new = _mutated_row(kind, row, doc, rng)
            if new is not None:
                by_rule.setdefault(row["rule"], []).append((i, new))
        for rule, cands in sorted(by_rule.items()):
            if per_pair is not None and len(cands) > per_pair:
                cands = rng.sample(cands, per_pair)
            for i, new in cands:
                nodes = list(rows)
                nodes[i] = new
                yield rule, kind, i, {**doc, "nodes": nodes}
