"""Translating an annotated representation into a checked inductive proof.

Every node of the representation gets a sequent: its context lists the
variables introduced on the path from the root, the hypotheses are *ordering
facts* read off the node's stacks (each stack name is at least the current value
of its position; names lower on a stack strictly exceed those above) plus the
*induction hypotheses* currently in scope, and the conclusion is the node's
judgment at its own variables.

Each ordering fact has a key, ``(strict, sort, left name, right name)``, and
one object per key within one call: the node facts and the edge facts go
through one table, so the facts that the translation states are one object
per value throughout the proof.  They are proved by lookup of keys in the
sequent that needs them, which builds no formula: a hypothesis, ``x >= x``,
the weakening of a strict hypothesis, or one ``trans`` of two hypotheses
(:class:`_Orders`), with one ``assumption`` node per hypothesis of that
sequent, shared by every step.  Internal nodes become one case-rule
application; each child sequent is reached by one ``inst`` whose minors
prove every child fact from the parent's hypotheses plus the fresh edge
facts.  A node that is the target of back-edges additionally introduces
one induction hypothesis per progressing name of its buds, which the strong
induction macro of :mod:`cycind.builders` discharges.  The hypothesis has the
shape of the one ``gt_ind`` introduces, ``all x'. x > x' -> all ys'. chain``,
with ``x`` the progressing name's variable and ``ys`` every other context
variable.  A bud node closes by instantiating it at the bud's values: ``x'``
at the cover, whose guard ``x > cover`` is one of the bud's facts, then all
of ``ys`` in one ``forall_elim``: the sprout's own variables at the bud's, a
variable that a name binds at the sprout at that name's binding at the bud,
any other at itself.  Each antecedent of the chain is then proved from the
bud's own hypotheses; the older induction hypotheses among them are the
sprout's entries before this one.

Equal induction targets share one hypothesis object, so within one call a
hypothesis's identity stands for its value.  Nodes in the same state (rule,
annotation, context, induction hypotheses by object, and the states of their
children) share one derivation object, so the proof is a DAG with one
subproof per distinct annotated state.  :func:`prove_by_induction` runs the
whole pipeline.
"""

from __future__ import annotations

from .builders import (
    assumption,
    c_apply,
    edge_facts,
    forall_elim,
    geq_refl,
    geq_subsum,
    hyp_monotone,
    imp_elim,
    ind_hypothesis,
    ind_prime,
    inst,
    trans,
)
from .core import Record, VarRef
from .logic import (
    Atom,
    Deriv,
    Formula,
    FreeV,
    Geq,
    Gt,
    Imp,
    Sequent,
    check_proof,
    render_formula,
)
from .unfold import RepNode, ResetRep, build_reset_rep, respect_induction_order, sprout_reach


class TranslationError(RuntimeError):
    pass


class HypEntry(Record):
    """An induction hypothesis in scope: introduced at ``sprout`` for the buds
    progressing on ``prog``.  The sprout gives what a closing bud needs to
    instantiate it: its annotation the induction variable, its context the
    other quantified variables, its depth and its name bindings, and its
    entries before this one the older hypotheses in this one's body."""

    __slots__ = ("sprout", "prog", "formula")
    sprout: str
    prog: str
    formula: Formula


class _NodeData(Record):
    """``refs`` are the context variables as references, in ``ctx`` order."""

    __slots__ = ("refs", "ctx", "ineq", "entries", "appended")
    refs: tuple[VarRef, ...]
    ctx: tuple[tuple[str, str], ...]
    ineq: tuple[Formula, ...]
    entries: tuple[HypEntry, ...]
    appended: int

    def hyps(self) -> tuple[Formula, ...]:
        return self.ineq + tuple(e.formula for e in self.entries)


_Key = tuple[bool, str, str, str]


def _key(f: "Geq | Gt") -> _Key:
    """The key of an order fact between free variables: ``(strict, sort,
    left name, right name)``."""
    return (f.__class__ is Gt, f.sort, f.left.name, f.right.name)


def _fact(facts: dict[_Key, Formula], key: _Key) -> Formula:
    """The one object of the order fact ``key`` in the table ``facts``."""
    f = facts.get(key)
    if f is None:
        strict, sort, left, right = key
        f = facts[key] = (Gt if strict else Geq)(sort, FreeV(left), FreeV(right))
    return f


class _Orders:
    """Proves ordering facts from the hypotheses of one sequent.

    A goal ``l R r`` is, in this order of preference: a hypothesis;
    ``x >= x``; the weakening of a strict hypothesis; or one ``trans`` of two
    hypotheses, with the fewest ``geq_subsum`` nodes.  Ties go to the earlier
    hypothesis.  Each hypothesis is concluded by one ``assumption`` node,
    :meth:`leaf`, shared by every step that uses it.

    A top-level order of a translated sequent relates free variables only, so
    the hypotheses are indexed by key (:func:`_key`), each key at its first
    hypothesis in ``first``, and each ``(sort, left name)`` at its hypotheses
    in ``starts``.  A lookup reads the goal's names and builds no formula.
    """

    def __init__(self, ctx: tuple[tuple[str, str], ...], hyps: tuple[Formula, ...]) -> None:
        self.ctx, self.hyps = ctx, hyps
        self.leaves: dict[int, Deriv] = {}
        self.first: dict[_Key, int] = {}
        self.starts: dict[tuple[str, str], list[int]] = {}
        for k, h in enumerate(hyps):
            if h.__class__ is Geq or h.__class__ is Gt:
                key = _key(h)
                self.first.setdefault(key, k)
                self.starts.setdefault(key[1:3], []).append(k)

    def leaf(self, k: int) -> Deriv:
        """The ``assumption`` node of hypothesis ``k``."""
        d = self.leaves.get(k)
        if d is None:
            d = self.leaves[k] = assumption(self.ctx, self.hyps, k)
        return d

    def prove(self, goal: "Geq | Gt") -> Deriv:
        first = self.first
        key = _key(goal)
        k = first.get(key)
        if k is not None:
            return self.leaf(k)
        goal_strict, sort, left, right = key
        weak = not goal_strict
        if weak and left == right:
            return geq_refl(self.ctx, self.hyps, sort, left)
        k = first.get((True, sort, left, right)) if weak else None
        if k is not None:
            return geq_subsum(self.leaf(k))
        best = None
        for k1 in self.starts.get((sort, left), ()):
            h1 = self.hyps[k1]
            for mid in (False, True):
                k2 = first.get((mid, sort, h1.right.name, right))
                strict = mid or h1.__class__ is Gt
                if k2 is not None and (weak or strict):
                    cand = (weak and strict, k1, k2)
                    best = cand if best is None else min(best, cand)
        if best is None:
            raise TranslationError(f"no derivation of {render_formula(goal)} from the hypotheses")
        subsum, k1, k2 = best
        d = trans(self.leaf(k1), self.leaf(k2))
        return geq_subsum(d) if subsum else d


def _node_data(
    rep: ResetRep,
    nid: str,
    pdata: "_NodeData | None",
    reach: dict,
    budsby: dict,
    group_order: dict,
    hyp_memo: dict[tuple, Formula],
    facts: dict,
) -> _NodeData:
    node = rep.nodes[nid]
    ann = node.ann
    judg = rep.system.judgment_of_rule(node.rule)
    sorts = judg.sorts
    depth = node.depth
    own = tuple(VarRef(depth, j) for j in range(judg.ob))
    xs = tuple(map(str, own))
    refs = (pdata.refs if pdata is not None else ()) + own
    ctx = (pdata.ctx if pdata is not None else ()) + tuple(zip(xs, sorts))
    var = dict(zip(ann.names, map(str, ann.binding)))

    # The facts' keys, in order and without repeats, at inductive positions
    # only: every stack name bounds its position's value from above; a name
    # strictly exceeds every name above it on a stack; at a bud, the
    # progressing name exceeds its cover, and the cover still bounds every
    # position the progressing name occupies.
    ind = [j for j in range(judg.ob) if sorts[j] in rep.system.ind_sorts]
    keys: dict[_Key, None] = {}
    for j in ind:
        for a in ann.stacks[j]:
            keys[(False, sorts[j], var[a], xs[j])] = None
    for j in ind:
        st = [var[a] for a in ann.stacks[j]]
        for i1 in range(len(st)):
            for i2 in range(i1 + 1, len(st)):
                keys[(True, sorts[j], st[i1], st[i2])] = None
    if node.is_bud:
        p = node.prog
        cov = str(ann.cover_of(p).cover_var)
        pj = [j for j in ind if p in ann.stacks[j]]
        if not pj:
            raise TranslationError(f"progressing name {p!r} on no stack at {nid}")
        keys[(True, sorts[pj[0]], var[p], cov)] = None
        for j in pj:
            keys[(False, sorts[j], cov, xs[j])] = None
    ineq = tuple(_fact(facts, k) for k in keys)

    # induction hypotheses in scope
    entries: tuple[HypEntry, ...] = pdata.entries if pdata is not None else ()
    appended = 0
    if nid in group_order:
        entries = tuple(
            e for e in entries if any(b in reach[nid] for b in budsby[(e.sprout, e.prog)])
        )
        concl = Atom(judg.id, tuple(FreeV(x) for x in xs))
        new: list[HypEntry] = []
        for p in group_order[nid]:
            older = tuple(e.formula for e in entries + tuple(new))
            x = var[p]
            key = (ctx, tuple(map(id, ineq + older)), judg.id, x)
            if key not in hyp_memo:
                hyp_memo[key] = ind_hypothesis(Sequent(ctx, ineq + older, concl), x)
            new.append(HypEntry(sprout=nid, prog=p, formula=hyp_memo[key]))
        entries = entries + tuple(new)
        appended = len(new)

    return _NodeData(refs=refs, ctx=ctx, ineq=ineq, entries=entries, appended=appended)


# ---------------------------------------------------------------------------
# Bud closure
# ---------------------------------------------------------------------------

def _close_bud(rep: ResetRep, node: RepNode, nd: _NodeData, data: dict, facts: dict) -> Deriv:
    """Instantiate the bud's hypothesis at the bud's values: the cover, then
    the guard by lookup, then the other variables in one step.  Then prove
    each antecedent of the chain in turn: order facts by lookup, older
    hypotheses (the sprout's entries before this one, in ``data``) by
    ``assumption`` or, where their variable moved, by ``hyp_monotone``."""
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
    sp = rep.nodes[e.sprout].ann
    var_to_name = dict(zip(sp.binding, sp.names))
    cov_var = ann.cover_of(node.prog).cover_var
    ind_var = sp.var_of(node.prog)
    assert bud_bind[node.prog] == ind_var, "progressing name rebound"

    def sigma(v: VarRef) -> VarRef:
        if v.depth == sp.depth:
            return VarRef(t, v.pos)
        if v == ind_var:
            return cov_var
        nm = var_to_name.get(v)
        if nm is not None:
            return bud_bind[nm]
        return v

    orders = _Orders(ctx, H)
    sp_entries = data[e.sprout].entries
    older = iter(sp_entries[:sp_entries.index(e)])
    # the cover, the guard (one of the bud's facts), then the other variables
    # in the sprout's context order
    d = forall_elim(orders.leaf(len(nd.ineq) + k), (str(sigma(ind_var)),))
    d = imp_elim(d, orders.prove(d.seq.concl.lhs))
    ys = tuple(str(sigma(v)) for v in data[e.sprout].refs if v != ind_var)
    if ys:
        d = forall_elim(d, ys)
    while isinstance(d.seq.concl, Imp):
        goal = d.seq.concl.lhs
        if isinstance(goal, (Geq, Gt)):
            d = imp_elim(d, orders.prove(goal))
            continue
        o = next(older)
        key = (o.sprout, o.prog)
        k2 = entry_idx.get(key)
        if k2 is None:
            raise TranslationError(f"hypothesis for {key} not in scope at bud {node.id}")
        ow = rep.nodes[o.sprout].ann.var_of(o.prog)
        sw = sigma(ow)
        if sw == ow:
            m = orders.leaf(len(nd.ineq) + k2)
        else:
            geq = _fact(facts, (False, dict(ctx)[str(ow)], str(ow), str(sw)))
            m = hyp_monotone(o.formula, len(nd.ineq) + k2, str(sw), ctx, H,
                             lambda c, h: _Orders(c, h).prove(geq))
        if m.seq.concl != goal:
            raise TranslationError(f"hypothesis for {key} drifted between sprout and bud {node.id}")
        d = imp_elim(d, m)

    want = Atom(judg.id, tuple(FreeV(str(VarRef(t, j))) for j in range(judg.ob)))
    assert d.seq.concl == want, "bud closure did not reach the node's judgment"
    return d


# ---------------------------------------------------------------------------
# Internal nodes and assembly
# ---------------------------------------------------------------------------

def _internal(
    rep: ResetRep,
    node: RepNode,
    nd: _NodeData,
    data: dict,
    result: dict,
    facts: dict,
) -> Deriv:
    """The case-rule step of an internal node; ``result`` holds each child's
    derivation with the child's own hypotheses already peeled.  Each child
    fact is proved from the node's hypotheses plus the edge facts, which go
    through the table ``facts``."""
    system = rep.system
    judg = system.judgment_of_rule(node.rule)
    rule = system.rules[node.rule]
    xs = tuple(str(VarRef(node.depth, j)) for j in range(judg.ob))
    target_hyps = nd.hyps()
    nI = len(nd.ineq)
    entry_pos = {(e.sprout, e.prog): i for i, e in enumerate(nd.entries)}
    premises = []
    for i, cid in enumerate(node.children):
        cd: _NodeData = data[cid]
        d: Deriv = result[cid]
        inherited = cd.entries[: len(cd.entries) - cd.appended]
        assert d.seq.hyps == cd.ineq + tuple(
            e.formula for e in inherited
        ), "child sequent out of shape after peeling"
        ys = tuple(v for v, _s in cd.ctx[len(nd.ctx):])
        edges = edge_facts(judg.sorts, rule.graphs[i], xs, ys)
        P = target_hyps + tuple(facts.setdefault(_key(f), f) for f in edges)
        orders = _Orders(cd.ctx, P)
        minors = [orders.prove(f) for f in cd.ineq]
        minors += [orders.leaf(nI + entry_pos[(e.sprout, e.prog)]) for e in inherited]
        premises.append(inst(d, P, minors))
    return c_apply(system, rule.id, nd.ctx, target_hyps, xs, tuple(premises))


def _peel_new_hyps(d: Deriv, node: RepNode, nd: _NodeData) -> Deriv:
    """Discharge the hypotheses introduced at this node, youngest first, with
    one strong-induction expansion each."""
    for e in reversed(nd.entries[len(nd.entries) - nd.appended:]):
        d = ind_prime(d, str(node.ann.var_of(e.prog)))
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
    reach = sprout_reach(rep)
    group_order = {
        s: sorted(
            {rep.nodes[b].prog for b in bids}, key=rep.nodes[s].ann.names.index
        )
        for s, bids in sprout_buds.items()
    }

    # One object per order fact, by key
    facts: dict[_Key, Formula] = {}
    # One hypothesis object per target.  A key holds the order facts, which
    # come from ``facts``, and the older hypotheses, which come from this
    # memo, by ``id``: the tables keep them alive, so an ``id`` stands for a
    # value.  The context and the judgment fix the conclusion.
    hyp_memo: dict[tuple, Formula] = {}

    # ``rep.nodes`` is in preorder: parents before children going forward,
    # children before parents going back
    data: dict[str, _NodeData] = {}
    for nid, node in rep.nodes.items():
        data[nid] = _node_data(rep, nid, data.get(node.parent), reach, budsby, group_order,
                               hyp_memo, facts)

    # One peeled derivation per state.  The rule, context and hypotheses fix
    # the end sequent, so a shared derivation always proves what the node
    # needs.  The annotation and context (with the resets and the
    # progressing name at a bud) fix the order facts, and the induction
    # hypotheses go by object.  The children's derivations (by identity,
    # which fixes their sequents) fix the subtree's shape.
    memo: dict[tuple, Deriv] = {}
    result: dict[str, Deriv] = {}
    for nid in reversed(rep.nodes):
        node, nd = rep.nodes[nid], data[nid]
        ann = node.ann
        key: tuple = (node.rule, ann.names, ann.binding, ann.stacks, nd.ctx,
                      tuple(id(e.formula) for e in nd.entries))
        if node.is_bud:
            sp = rep.nodes[node.sprout]
            key += (ann.resets, sp.ann.names, sp.ann.binding, sp.ann.stacks, node.prog)
        else:
            key += (nd.appended, *(id(result[c]) for c in node.children))
        d = memo.get(key)
        if d is None:
            d = (_close_bud(rep, node, nd, data, facts) if node.is_bud
                 else _internal(rep, node, nd, data, result, facts))
            d = memo[key] = _peel_new_hyps(d, node, nd)
        result[nid] = d

    # root assembly: the root's own hypotheses are peeled; discharge the
    # root facts, which are all reflexive
    rdata = data[rep.root]
    orders = _Orders(rdata.ctx, ())
    return inst(result[rep.root], (), [orders.prove(f) for f in rdata.ineq])


def prove_by_induction(deriv, system) -> tuple[ResetRep, Deriv]:
    """The whole pipeline: decide soundness (an unsound derivation raises
    :class:`~cycind.unfold.UnsoundDerivationError`), unfold, order, translate, and check."""
    rep = respect_induction_order(build_reset_rep(deriv, system))
    proof = translate(rep)
    check_proof(system, proof)
    return rep, proof
