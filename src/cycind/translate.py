"""Translating an annotated representation into a checked inductive proof.

Every node of the representation gets a sequent: its context lists the
variables introduced on the path from the root, the hypotheses are *ordering
facts* read off the node's stacks (each stack name is at least the current value
of its position; names lower on a stack strictly exceed those above) plus the
*induction hypotheses* currently in scope, and the conclusion is the node's
judgment at its own variables.

Internal nodes become one case-rule application; each child sequent is
reached by one ``inst`` that derives every child fact from the parent facts
plus the fresh edge facts (every fact carries a recipe for this, recorded
while the facts are computed).  A node that is the target of back-edges
additionally introduces one induction hypothesis per progressing name of its
buds, which the strong induction macro of :mod:`cycind.logic` discharges.  A
bud node closes by instantiating its hypothesis: every quantified variable is
mapped to its current value at the bud — positions to the bud's variables, the
progressing name to its cover, other names to their bindings at the bud — and
the resulting obligations are discharged from the bud's own facts.

Nodes in the same state (rule, annotation, context, hypotheses by value, and
the states of their children) share one derivation object, so the proof is a
DAG with one subproof per distinct annotated state.
"""

from __future__ import annotations

from typing import Callable

from .core import GEQ, GT, Record, VarRef, set_field
from .logic import (
    Atom,
    Deriv,
    Formula,
    FormulaNumbering,
    FreeV,
    Geq,
    Gt,
    Sequent,
    assumption,
    c_apply,
    check_proof,
    forall_elims,
    geq_refl,
    geq_subsum,
    hyp_monotone,
    imp_elim,
    ind_block,
    ind_hypothesis,
    ind_prime,
    inst,
    trans,
)
from .unfold import RepNode, ResetRep, reachable_from, unravel_rep


class TranslationError(RuntimeError):
    pass


def _vref(s: str) -> VarRef:
    d, p = s[1:].split("_")
    return VarRef(int(d), int(p))


class Fact(Record):
    """One ordering fact with the recipe for deriving it at the parent.

    ``how`` is one of ``("refl",)``, ``("parent", k)`` or ``("trans", k, edge)``
    where ``k`` indexes the parent's fact list and ``edge`` is an (src, dst,
    label) edge of the connecting graph.
    """

    __slots__ = ("formula", "how")
    formula: Formula
    how: tuple

    def __init__(self, formula: Formula, how: tuple) -> None:
        set_field(self, "formula", formula)
        set_field(self, "how", how)


class HypEntry(Record):
    """An induction hypothesis in scope: introduced at ``sprout`` for the buds
    progressing on ``prog``.  Carries everything a closing bud needs: the
    quantifier block, the sprout's facts (to discharge their instantiated
    copies), the older hypotheses in its body, and the sprout's name
    bindings (to map quantified variables to bud values)."""

    __slots__ = ("sprout", "prog", "var", "formula", "block", "facts", "old", "sprout_depth", "bindings")
    sprout: str
    prog: str
    var: VarRef
    formula: Formula
    block: tuple[tuple[str, str], ...]
    facts: tuple[tuple, ...]
    old: tuple[tuple[str, str, VarRef, Formula], ...]
    sprout_depth: int
    bindings: tuple[tuple[str, VarRef], ...]


class _NodeData(Record):
    __slots__ = ("ctx", "sorts", "ineq", "meta", "fmap", "smap", "e1", "e2", "entries", "appended")
    ctx: tuple[tuple[str, str], ...]
    sorts: tuple[str, ...]
    ineq: tuple[Fact, ...]
    meta: tuple[tuple, ...]
    fmap: dict
    smap: dict
    e1: "int | None"
    e2: dict
    entries: tuple[HypEntry, ...]
    appended: int

    def hyps(self) -> tuple[Formula, ...]:
        return tuple(f.formula for f in self.ineq) + tuple(e.formula for e in self.entries)


def _node_data(
    rep: ResetRep,
    nid: str,
    pdata: "_NodeData | None",
    reach: dict,
    budsby: dict,
    group_order: dict,
) -> _NodeData:
    node = rep.nodes[nid]
    ann = node.ann
    judg = rep.system.judgment_of_rule(node.rule)
    sorts = judg.sorts
    depth = node.depth
    base_ctx = pdata.ctx if pdata is not None else ()
    xs = tuple(str(VarRef(depth, j)) for j in range(judg.ob))
    ctx = base_ctx + tuple((xs[j], sorts[j]) for j in range(judg.ob))

    facts: list[Fact] = []
    meta: list[tuple] = []
    index: dict[Formula, int] = {}

    def add(formula: Formula, how: tuple, m: tuple) -> int:
        k = index.get(formula)
        if k is None:
            k = len(facts)
            index[formula] = k
            facts.append(Fact(formula, how))
            meta.append(m)
        return k

    fmap: dict = {}
    smap: dict = {}
    # membership facts: every stack name bounds its position's value from above
    for j in range(judg.ob):
        org = ann.origins[j]
        for a in ann.stacks[j]:
            w = ann.var_of(a)
            f = Geq(sorts[j], FreeV(str(w)), FreeV(xs[j]))
            if org.kind in ("init", "fresh") or (org.kind == "append" and a == org.fresh):
                how: tuple = ("refl",)
            else:
                lab = GEQ if org.kind == "carry" else GT
                how = ("trans", pdata.fmap[(a, org.src)], (org.src, j, lab))
            fmap[(a, j)] = add(f, how, ("member", a, j, f))
    # strict facts: a name strictly exceeds every name above it on a stack
    for j in range(judg.ob):
        org = ann.origins[j]
        st = ann.stacks[j]
        for i1 in range(len(st)):
            for i2 in range(i1 + 1, len(st)):
                a, a2 = st[i1], st[i2]
                f = Gt(sorts[j], FreeV(str(ann.var_of(a))), FreeV(str(ann.var_of(a2))))
                if org.kind == "append" and a2 == org.fresh:
                    how = ("trans", pdata.fmap[(a, org.src)], (org.src, j, GT))
                else:
                    how = ("parent", pdata.smap[(a, a2)])
                k = add(f, how, ("strict", a, a2, f))
                if (a, a2) not in smap:
                    smap[(a, a2)] = k
    # bud extras: the progressing name exceeds its cover, and the cover still
    # bounds every position the progressing name occupies
    e1: "int | None" = None
    e2: dict = {}
    if node.is_bud:
        p = node.prog
        r = ann.cover_of(p)
        cov, cov_var = r.cover, r.cover_var
        pj = [j for j in range(judg.ob) if p in ann.stacks[j]]
        if not pj:
            raise TranslationError(f"progressing name {p!r} on no stack at {nid}")
        pv = ann.var_of(p)
        f1 = Gt(sorts[pj[0]], FreeV(str(pv)), FreeV(str(cov_var)))
        fresh_pos = [j for j in range(judg.ob) if ann.origins[j].fresh == cov]
        if fresh_pos:
            jstar = fresh_pos[0]
            org = ann.origins[jstar]
            assert org.kind == "append", "a cover fresh on a singleton stack covers nothing"
            how1: tuple = ("trans", pdata.fmap[(p, org.src)], (org.src, jstar, GT))
        else:
            how1 = ("parent", pdata.smap[(p, cov)])
        e1 = add(f1, how1, ("extra1", p, cov, f1))
        for j in pj:
            f2 = Geq(sorts[j], FreeV(str(cov_var)), FreeV(xs[j]))
            org = ann.origins[j]
            if org.fresh == cov:
                how2: tuple = ("refl",)
            else:
                lab = GEQ if org.kind == "carry" else GT
                how2 = ("trans", pdata.fmap[(cov, org.src)], (org.src, j, lab))
            e2[j] = add(f2, how2, ("extra2", cov, j, f2))

    # induction hypotheses in scope
    entries: tuple[HypEntry, ...] = pdata.entries if pdata is not None else ()
    appended = 0
    if nid in group_order:
        entries = tuple(
            e for e in entries if any(b in reach[nid] for b in budsby[(e.sprout, e.prog)])
        )
        concl = Atom(judg.id, tuple(FreeV(x) for x in xs))
        ineq_formulas = tuple(f.formula for f in facts)
        new: list[HypEntry] = []
        for p in group_order[nid]:
            older = entries + tuple(new)
            target = Sequent(ctx, ineq_formulas + tuple(e.formula for e in older), concl)
            xv = str(ann.var_of(p))
            new.append(
                HypEntry(
                    sprout=nid,
                    prog=p,
                    var=ann.var_of(p),
                    formula=ind_hypothesis(target, xv),
                    block=tuple(ind_block(target, xv)),
                    facts=tuple(meta),
                    old=tuple((e.sprout, e.prog, e.var, e.formula) for e in older),
                    sprout_depth=depth,
                    bindings=tuple(zip(ann.names, ann.binding)),
                )
            )
        entries = entries + tuple(new)
        appended = len(new)

    return _NodeData(
        ctx=ctx,
        sorts=tuple(sorts),
        ineq=tuple(facts),
        meta=tuple(meta),
        fmap=fmap,
        smap=smap,
        e1=e1,
        e2=e2,
        entries=entries,
        appended=appended,
    )


# ---------------------------------------------------------------------------
# Bud closure
# ---------------------------------------------------------------------------

def _close_bud(rep: ResetRep, node: RepNode, nd: _NodeData) -> Deriv:
    judg = rep.system.judgment_of_rule(node.rule)
    ann = node.ann
    t = node.depth
    entry_idx = {(e.sprout, e.prog): k for k, e in enumerate(nd.entries)}
    k = entry_idx.get((node.sprout, node.prog))
    if k is None:
        raise TranslationError(
            f"no hypothesis for sprout {node.sprout} / name {node.prog!r} at bud {node.id}"
        )
    e = nd.entries[k]
    ctx, H = nd.ctx, nd.hyps()
    bud_bind = dict(zip(ann.names, ann.binding))
    s_bind = dict(e.bindings)
    var_to_name = {v: nm for nm, v in e.bindings}
    cov_var = ann.cover_of(node.prog).cover_var
    sd = e.sprout_depth
    assert s_bind[node.prog] == bud_bind[node.prog] == e.var, "progressing name rebound"

    def sigma(v: VarRef) -> VarRef:
        if v.depth == sd:
            return VarRef(t, v.pos)
        if v == e.var:
            return cov_var
        nm = var_to_name.get(v)
        if nm is not None:
            return bud_bind[nm]
        return v

    d = assumption(ctx, H, len(nd.ineq) + k)
    d = forall_elims(d, [str(sigma(_vref(v))) for v, _s in e.block])

    # the guard: prog-value strictly above its instantiation
    sv = sigma(e.var)
    if sv == cov_var:
        m = assumption(ctx, H, nd.e1)
    else:
        assert e.var.depth == sd and sv == VarRef(t, e.var.pos)
        m = trans(assumption(ctx, H, nd.e1), assumption(ctx, H, nd.e2[e.var.pos]))
    d = imp_elim(d, m)

    # the sprout's facts, instantiated
    for sf in e.facts:
        if sf[0] == "member":
            _kind, a, j, _f = sf
            w = s_bind[a]
            if w.depth == sd:
                assert w.pos == j, "fresh name on a foreign stack"
                m = geq_refl(ctx, H, nd.sorts[j], str(VarRef(t, j)))
            elif w == e.var:
                m = assumption(ctx, H, nd.e2[j])
            else:
                m = assumption(ctx, H, nd.fmap[(a, j)])
        else:
            _kind, a, a2, _f = sf
            w1, w2 = s_bind[a], s_bind[a2]
            assert w1.depth != sd and w1 != e.var, "a fresh or progressing name below another"
            if w2.depth == sd:
                m = trans(
                    assumption(ctx, H, nd.smap[(a, a2)]),
                    assumption(ctx, H, nd.fmap[(a2, w2.pos)]),
                )
            elif w2 == e.var:
                m = trans(assumption(ctx, H, nd.smap[(a, node.prog)]), assumption(ctx, H, nd.e1))
            else:
                m = assumption(ctx, H, nd.smap[(a, a2)])
        d = imp_elim(d, m)

    # the older hypotheses, instantiated
    for osp, opr, ovar, ofla in e.old:
        k2 = entry_idx.get((osp, opr))
        if k2 is None:
            raise TranslationError(f"hypothesis for ({osp}, {opr!r}) not in scope at bud {node.id}")
        if nd.entries[k2].formula != ofla:
            raise TranslationError(f"hypothesis for ({osp}, {opr!r}) drifted between sprout and bud")
        hyp_idx = len(nd.ineq) + k2
        sw = sigma(ovar)
        if sw == ovar:
            m = assumption(ctx, H, hyp_idx)
        else:
            factory = _old_var_geq(nd, ovar, sw, node.id)
            m = hyp_monotone(ofla, hyp_idx, str(sw), ctx, H, factory)
        d = imp_elim(d, m)

    want = Atom(judg.id, tuple(FreeV(str(VarRef(t, j))) for j in range(judg.ob)))
    assert d.seq.concl == want, "bud closure did not reach the node's judgment"
    return d


def _old_var_geq(nd: _NodeData, w: VarRef, sw: VarRef, where: str) -> Callable:
    """A factory deriving ``w >= sw`` from the bud's facts, position-stable
    under hypothesis extensions."""
    lw, rw = FreeV(str(w)), FreeV(str(sw))
    for k, f in enumerate(nd.ineq):
        phi = f.formula
        if isinstance(phi, Geq) and phi.left == lw and phi.right == rw:
            return lambda c, h, k=k: assumption(c, h, k)
        if isinstance(phi, Gt) and phi.left == lw and phi.right == rw:
            return lambda c, h, k=k: geq_subsum(assumption(c, h, k))
    raise TranslationError(
        f"no fact relates {w} and {sw} at {where}; cannot instantiate an older hypothesis"
    )


# ---------------------------------------------------------------------------
# Internal nodes and assembly
# ---------------------------------------------------------------------------

def _internal(
    rep: ResetRep,
    node: RepNode,
    nd: _NodeData,
    data: dict,
    result: dict,
) -> Deriv:
    """The case-rule step of an internal node; ``result`` holds each child's
    derivation with the child's own hypotheses already peeled."""
    system = rep.system
    judg = system.judgment_of_rule(node.rule)
    rule = system.rules[node.rule]
    xs = tuple(str(VarRef(node.depth, j)) for j in range(judg.ob))
    target_hyps = nd.hyps()
    nI, nH = len(nd.ineq), len(nd.entries)
    entry_pos = {(e.sprout, e.prog): i for i, e in enumerate(nd.entries)}
    premises = []
    for i, cid in enumerate(node.children):
        cd: _NodeData = data[cid]
        d: Deriv = result[cid]
        inherited = cd.entries[: len(cd.entries) - cd.appended]
        assert d.seq.hyps == tuple(f.formula for f in cd.ineq) + tuple(
            e.formula for e in inherited
        ), "child sequent out of shape after peeling"
        g = rule.graphs[i]
        cdepth = node.depth + 1
        block = tuple(
            (Gt if lab == GT else Geq)(
                judg.sorts[a], FreeV(xs[a]), FreeV(str(VarRef(cdepth, b)))
            )
            for a, b, lab in g.sorted_edges()
        )
        edge_pos = {(a, b): k for k, (a, b, _lab) in enumerate(g.sorted_edges())}
        P = target_hyps + block

        def minor(f: Fact) -> Deriv:
            how = f.how
            if how[0] == "refl":
                phi = f.formula
                return geq_refl(cd.ctx, P, phi.sort, phi.left.name)
            if how[0] == "parent":
                return assumption(cd.ctx, P, how[1])
            k, (ea, eb, lab) = how[1], how[2]
            pf = assumption(cd.ctx, P, k)
            ed = assumption(cd.ctx, P, nI + nH + edge_pos[(ea, eb)])
            if lab == GT and isinstance(f.formula, Geq):
                ed = geq_subsum(ed)
            return trans(pf, ed)

        minors = [minor(f) for f in cd.ineq]
        minors += [assumption(cd.ctx, P, nI + entry_pos[(e.sprout, e.prog)]) for e in inherited]
        premises.append(inst(d, P, minors))
    return c_apply(system, rule.id, nd.ctx, target_hyps, xs, tuple(premises))


def _peel_new_hyps(d: Deriv, nd: _NodeData) -> Deriv:
    """Discharge the hypotheses introduced at this node, youngest first, with
    one strong-induction expansion each."""
    for e in reversed(nd.entries[len(nd.entries) - nd.appended:]):
        d = ind_prime(d, str(e.var))
    return d


def translate(rep: ResetRep) -> Deriv:
    """The inductive proof of the representation's root judgment.

    The derivation uses only kernel rules; run :func:`cycind.logic.check_proof`
    over it for independent validation.
    """
    budsby: dict[tuple[str, str], list[str]] = {}
    sprout_buds: dict[str, list[str]] = {}
    for bid in rep.buds():
        b = rep.nodes[bid]
        budsby.setdefault((b.sprout, b.prog), []).append(bid)
        sprout_buds.setdefault(b.sprout, []).append(bid)
    reach = {s: reachable_from(rep, s) for s in sprout_buds}
    group_order = {
        s: sorted(
            {rep.nodes[b].prog for b in bids}, key=rep.nodes[s].ann.names.index
        )
        for s, bids in sprout_buds.items()
    }

    data: dict[str, _NodeData] = {}
    order: list[str] = []
    todo: list[tuple[str, "str | None"]] = [(rep.root, None)]
    while todo:
        nid, parent = todo.pop()
        pdata = data[parent] if parent is not None else None
        data[nid] = _node_data(rep, nid, pdata, reach, budsby, group_order)
        order.append(nid)
        for c in reversed(rep.nodes[nid].children):
            todo.append((c, nid))

    # One peeled derivation per state.  The rule, context and hypotheses (by
    # value, through a formula numbering) fix the end sequent, so a shared
    # derivation always proves what the node needs; the annotations, the
    # children's derivations (by identity) and their fact recipes fix the
    # subtree's shape.  ``data`` keeps the numbered formulas alive, ``memo``
    # the derivations.
    number = FormulaNumbering()
    memo: dict[tuple, Deriv] = {}
    result: dict[str, Deriv] = {}
    for nid in reversed(order):
        node, nd = rep.nodes[nid], data[nid]
        ann = node.ann
        key: tuple = (node.rule, ann.names, ann.binding, ann.stacks, nd.ctx,
                      tuple(map(number, nd.hyps())))
        if node.is_bud:
            sp = rep.nodes[node.sprout]
            key += (ann.resets, sp.ann.names, sp.ann.binding, sp.ann.stacks, node.prog)
        else:
            key += (nd.appended, *((id(result[c]), tuple(f.how for f in data[c].ineq))
                                   for c in node.children))
        d = memo.get(key)
        if d is None:
            d = _close_bud(rep, node, nd) if node.is_bud else _internal(rep, node, nd, data, result)
            d = memo[key] = _peel_new_hyps(d, nd)
        result[nid] = d

    # root assembly: the root's own hypotheses are peeled; discharge the reflexive root facts
    rdata = data[rep.root]
    d = result[rep.root]
    assert all(f.how == ("refl",) for f in rdata.ineq)
    return inst(d, (), [geq_refl(rdata.ctx, (), f.formula.sort, f.formula.left.name) for f in rdata.ineq])


def prove_by_induction(deriv, system) -> tuple[ResetRep, Deriv]:
    """End to end: unfold, order, translate, and re-check the result."""
    rep = unravel_rep(deriv, system)
    proof = translate(rep)
    check_proof(system, proof)
    return rep, proof


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------

def _case_heads(d: Deriv) -> list[Deriv]:
    out = []
    stack = [d]
    while stack:
        cur = stack.pop()
        if cur.rule == "c_rule":
            out.append(cur)
            continue
        stack.extend(reversed(cur.children))
    return out


def extract_skeleton(proof: Deriv):
    """The tree of case-rule applications: ``(rule_id, children)`` with ``None``
    for premises discharged without one (closed back-edges)."""

    def build(c: Deriv):
        kids = []
        for p in c.children:
            heads = _case_heads(p)
            if not heads:
                kids.append(None)
            elif len(heads) == 1:
                kids.append(build(heads[0]))
            else:
                raise TranslationError("premise with several case-rule heads")
        return (c.data[0], tuple(kids))

    heads = _case_heads(proof)
    if len(heads) != 1:
        raise TranslationError(f"expected one case-rule head at the root, found {len(heads)}")
    return build(heads[0])


def rep_skeleton(rep: ResetRep):
    """The internal-node tree of the representation, in the same shape."""

    def build(nid: str):
        node = rep.nodes[nid]
        return (
            node.rule,
            tuple(None if rep.nodes[c].is_bud else build(c) for c in node.children),
        )

    return build(rep.root)
