"""Independent reference implementations the tests check the library against.

Everything here is written from scratch against the definitions, on purpose
sharing no code with the package: composition as plain dict algebra,
termination as saturation of the full multipath relation, the
representation invariants as a direct structural walk, the
well-formedness of every sequent of a proof as a walk over every node, and
the structure a translated proof preserves as the tree of its case-rule
applications.
"""

import random

from cycind import Call, CallSystem, SizeChangeGraph, GEQ, GT
from cycind.logic import Atom, BoundV, Forall, FreeV, Geq, Gt, Imp

WEAK, STRICT = 1, 2


def as_dict(graph):
    """A size-change graph as {(i, j): WEAK|STRICT} keeping the stronger label."""
    out = {}
    for i, j, lab in graph.edges:
        val = STRICT if lab == GT else WEAK
        out[(i, j)] = max(out.get((i, j), 0), val)
    return out


def compose_dicts(a, b):
    out = {}
    for (i, j), l1 in a.items():
        for (j2, k), l2 in b.items():
            if j != j2:
                continue
            val = STRICT if STRICT in (l1, l2) else WEAK
            out[(i, k)] = max(out.get((i, k), 0), val)
    return out


def path_relation(graphs):
    """The relation along a nonempty path of graphs, as a dict: the left fold
    of ``compose_dicts``."""
    dicts = [as_dict(g) for g in graphs]
    if not dicts:
        raise ValueError("a path has at least one graph")
    out = dicts[0]
    for d in dicts[1:]:
        out = compose_dicts(out, d)
    return out


def _freeze(d):
    return frozenset(d.items())


def saturate(cs):
    """All compositions of non-empty call paths, as (src, dst, frozen dict)."""
    base = [(c.dom, c.codom, _freeze(as_dict(c.graph))) for c in cs.calls]
    seen = set(base)
    todo = list(base)
    while todo:
        src, dst, g = todo.pop()
        for src2, dst2, h in base:
            if dst != src2:
                continue
            comp = (src, dst2, _freeze(compose_dicts(dict(g), dict(h))))
            if comp not in seen:
                seen.add(comp)
                todo.append(comp)
    return seen


def reachable_functions(cs, roots):
    seen = set(roots)
    changed = True
    while changed:
        changed = False
        for c in cs.calls:
            if c.dom in seen and c.codom not in seen:
                seen.add(c.codom)
                changed = True
    return seen


def terminates(cs, roots=None):
    """Ramsey-style criterion over the full saturation: the system fails iff
    some reachable idempotent self-composition has no strict diagonal edge."""
    reach = reachable_functions(cs, roots) if roots is not None else set(cs.functions)
    for src, dst, g in saturate(cs):
        if src != dst or src not in reach:
            continue
        d = dict(g)
        if _freeze(compose_dicts(d, d)) != g:
            continue
        if not any(i == j and lab == STRICT for (i, j), lab in d.items()):
            return False
    return True


def random_call_system(rng, max_funs=3, max_arity=3, max_calls=5, p_gt=0.25, p_geq=0.2):
    nf = rng.randint(1, max_funs)
    funs = {f"f{i}": tuple("*" * rng.randint(1, max_arity)) for i in range(nf)}
    names = list(funs)
    calls = []
    for k in range(rng.randint(1, max_calls)):
        dom, codom = rng.choice(names), rng.choice(names)
        na, nb = len(funs[dom]), len(funs[codom])
        edges = set()
        for i in range(na):
            for j in range(nb):
                r = rng.random()
                if r < p_gt:
                    edges.add((i, j, GT))
                elif r < p_gt + p_geq:
                    edges.add((i, j, GEQ))
        calls.append(Call(f"c{k}", dom, codom, SizeChangeGraph(na, nb, frozenset(edges))))
    return CallSystem(funs, tuple(calls))


def gentle_random_call_system(rng):
    """Small, progress-heavy systems whose unravellings stay manageable."""
    return random_call_system(rng, max_funs=2, max_arity=2, max_calls=3, p_gt=0.4, p_geq=0.2)


# ---------------------------------------------------------------------------
# Representation invariants, checked structurally
# ---------------------------------------------------------------------------

def _path_ids(rep, nid):
    out = []
    cur = nid
    while cur is not None:
        out.append(cur)
        cur = rep.nodes[cur].parent
    out.reverse()
    return out


def reset_rep_violations(rep):
    """Human-readable descriptions of every broken invariant, ideally []."""
    bad = []
    for nid, node in rep.nodes.items():
        ann = node.ann
        if len(ann.binding) != len(ann.names):
            bad.append(f"{nid}: names/binding length mismatch")
        if len(set(ann.names)) != len(ann.names):
            bad.append(f"{nid}: duplicate names")
        on_stack = {n for st in ann.stacks for n in st}
        if on_stack != set(ann.names):
            bad.append(f"{nid}: names and stacks disagree ({on_stack} vs {set(ann.names)})")
        for j, st in enumerate(ann.stacks):
            ages = [ann.names.index(n) for n in st]
            if ages != sorted(ages):
                bad.append(f"{nid}: stack {j} not ordered oldest-first")
        for r in ann.resets:
            if r.name not in ann.names:
                bad.append(f"{nid}: reset name {r.name} not live")
        for k in range(len(ann.names) - 1):
            v1, v2 = ann.binding[k], ann.binding[k + 1]
            if (v1.depth, v1.pos) >= (v2.depth, v2.pos):
                bad.append(f"{nid}: binding not in introduction order")

        if node.is_bud:
            path = _path_ids(rep, nid)
            if node.sprout not in path[:-1]:
                bad.append(f"{nid}: sprout {node.sprout} is not a strict ancestor")
                continue
            sp = rep.nodes[node.sprout]
            if sp.deriv_node != node.deriv_node:
                bad.append(f"{nid}: bud and sprout unravel different derivation nodes")
            if sp.ann.names != ann.names or sp.ann.stacks != ann.stacks:
                bad.append(f"{nid}: bud and sprout annotations differ")
            if node.prog not in {r.name for r in ann.resets}:
                bad.append(f"{nid}: prog {node.prog} not among the node's resets")
            elif ann.var_of(node.prog).depth > sp.ann.depth:
                bad.append(f"{nid}: prog {node.prog} introduced below the sprout")
            else:
                seg = path[path.index(node.sprout):]
                for mid in seg:
                    if node.prog not in rep.nodes[mid].ann.names:
                        bad.append(f"{nid}: prog {node.prog} dropped at {mid} inside the cycle")
        elif not node.children:
            if rep.system.rules[node.rule].premises:
                bad.append(f"{nid}: non-bud leaf with premises pending")
    return bad


# ---------------------------------------------------------------------------
# Well-formed sequents, checked at every node
# ---------------------------------------------------------------------------

def _term_defect(t, want, ctx, binders):
    if isinstance(t, FreeV):
        have = ctx.get(t.name)
        if have is None:
            return f"variable {t.name!r} not in context"
        return None if have == want else f"variable {t.name!r} has sort {have!r}, expected {want!r}"
    if isinstance(t, BoundV):
        if t.k >= len(binders):
            return f"unbound index {t.k}"
        have = binders[-1 - t.k]
        return None if have == want else f"bound variable has sort {have!r}, expected {want!r}"
    return f"not a term: {t!r}"


def formula_defect(system, phi, ctx, binders=()):
    """Why ``phi`` is not well formed over ``ctx`` (a name -> sort dict), or None."""
    if isinstance(phi, Atom):
        judg = system.judgments.get(phi.judg)
        if judg is None:
            return f"unknown judgment {phi.judg!r}"
        if len(phi.args) != judg.ob:
            return f"{phi.judg} expects {judg.ob} arguments, got {len(phi.args)}"
        for t, sort in zip(phi.args, judg.sorts):
            if err := _term_defect(t, sort, ctx, binders):
                return err
        return None
    if isinstance(phi, (Geq, Gt)):
        if phi.sort not in system.ind_sorts:
            return f"order at non-inductive sort {phi.sort!r}"
        return (_term_defect(phi.left, phi.sort, ctx, binders)
                or _term_defect(phi.right, phi.sort, ctx, binders))
    if isinstance(phi, Imp):
        return formula_defect(system, phi.lhs, ctx, binders) or formula_defect(system, phi.rhs, ctx, binders)
    if isinstance(phi, Forall):
        return formula_defect(system, phi.body, ctx, binders + (phi.sort,))
    return f"not a formula: {phi!r}"


def sequent_defects(system, proof):
    """``(node, reason)`` for every distinct node whose sequent is not well
    formed: its context repeats a variable, or a hypothesis or the conclusion
    uses an unknown judgment, a wrong arity, an order at a non-inductive sort,
    an unbound index, or a variable outside the context or at the wrong sort.
    Ideally []."""
    bad, seen, stack = [], set(), [proof]
    memo, pairs = {}, {}  # by formula and context; by (ctx, hyps) objects

    def defect(phi, seq):
        key = (id(phi), seq.ctx)
        if key not in memo:
            memo[key] = formula_defect(system, phi, dict(seq.ctx))
        return memo[key]

    while stack:
        d = stack.pop()
        if id(d) in seen:
            continue
        seen.add(id(d))
        stack.extend(d.children)
        seq = d.seq
        pair = (id(seq.ctx), id(seq.hyps))
        if pair not in pairs:
            names = [v for v, _s in seq.ctx]
            pairs[pair] = ("repeated context variable" if len(set(names)) != len(names)
                           else next(filter(None, (defect(h, seq) for h in seq.hyps)), None))
        if err := pairs[pair] or defect(seq.concl, seq):
            bad.append((d, err))
    return bad


def _case_heads(d):
    """The nearest ``c_rule`` nodes at or above ``d``, left to right."""
    out = []
    stack = [d]
    while stack:
        cur = stack.pop()
        if cur.rule == "c_rule":
            out.append(cur)
            continue
        stack.extend(reversed(cur.children))
    return out


def extract_skeleton(proof):
    """The tree of case-rule applications of a proof: ``(rule_id, children)``
    with ``None`` for premises discharged without one (closed back-edges)."""

    def build(c):
        kids = []
        for p in c.children:
            heads = _case_heads(p)
            if len(heads) > 1:
                raise ValueError("premise with several case-rule heads")
            kids.append(build(heads[0]) if heads else None)
        return (c.data[0], tuple(kids))

    heads = _case_heads(proof)
    if len(heads) != 1:
        raise ValueError(f"expected one case-rule head at the root, found {len(heads)}")
    return build(heads[0])


def rep_skeleton(rep):
    """The internal-node tree of a representation, in the shape of
    :func:`extract_skeleton`."""

    def build(nid):
        node = rep.nodes[nid]
        return (node.rule, tuple(None if rep.nodes[c].is_bud else build(c) for c in node.children))

    return build(rep.root)
