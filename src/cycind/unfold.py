"""Unfolding a regular derivation into an annotated cyclic representation.

Phase one unfolds the derivation tree, annotating every node with stacks
(:mod:`cycind.annotate`), and closes a back-edge as soon as a node repeats an
ancestor's annotation exactly and one of the names reset at the node is old
enough to have been introduced at or before the ancestor.  The result is a
finite tree whose leaves are either axiom nodes or *buds* pointing back to a
*sprout* ancestor, each bud carrying a progressing name.  Phase one decides
soundness first; the verdict's closure size sets the node cap of both phases.

Phase two re-unfolds that representation until back-edges nest with the age
order of their buds: a bud whose back-edge escapes the subtree of an enclosing
back-edge's target must be the older of the two (:func:`crossing_violations`).
That nesting is what the proof translation needs for its induction hypotheses
to stack.  The stronger property — age respected between *all* mutually
reachable buds, :func:`induction_order_violations` — is reported separately;
it is not attainable for every call system (interleaved descents on
incomparable names can always reach each other through a common outer cycle).
"""

from __future__ import annotations

import os

from .annotate import Annotation, init_annotation, step
from .core import CyclicSystem, Record, RegularDerivation
from .sct import check_soundness


class UnsoundDerivationError(ValueError):
    """The derivation is not size-change sound; carries the counterexample lasso."""

    def __init__(self, verdict) -> None:
        self.verdict = verdict
        super().__init__(f"derivation is not size-change sound; {verdict.counterexample}")


class UnfoldCapError(RuntimeError):
    pass


class RepNode(Record):
    __slots__ = ("id", "deriv_node", "rule", "parent", "children", "ann", "sprout", "prog")
    id: str
    deriv_node: str
    rule: str
    parent: str | None
    children: tuple[str, ...]
    ann: Annotation
    sprout: str | None
    prog: str | None
    _defaults = {"sprout": None, "prog": None}

    @property
    def is_bud(self) -> bool:
        return self.sprout is not None

    @property
    def depth(self) -> int:
        return self.ann.depth


class ResetRep(Record):
    __slots__ = ("system", "deriv", "nodes", "root")
    system: CyclicSystem
    deriv: RegularDerivation
    nodes: dict[str, RepNode]
    root: str

    def buds(self) -> list[str]:
        return [nid for nid in self.nodes if self.nodes[nid].is_bud]

    def judgment_of(self, nid: str) -> str:
        return self.system.rules[self.nodes[nid].rule].conclusion


def _unfold_cap(deriv: RegularDerivation, system: CyclicSystem, closure_size: int) -> int:
    env = os.environ.get("CYCIND_UNFOLD_CAP")
    if env:
        if not (env.isdecimal() and int(env) > 0):
            raise UnfoldCapError(f"CYCIND_UNFOLD_CAP must be a positive integer, got {env!r}")
        return int(env)
    m = max((j.ob for j in system.judgments.values()), default=1)
    # Circuit breaker only.  Reorderings of sound two-call systems have been
    # observed above twenty thousand nodes, so the floor stays well clear of
    # anything a legitimate input produces.
    return max(200_000, 100 * closure_size * (2 ** m + m) * len(deriv.nodes))


def _qualifying_prog(ann: Annotation, sprout_depth: int) -> str | None:
    """Oldest reset name introduced at or before the sprout, if any."""
    best: str | None = None
    for r in ann.resets:
        if ann.var_of(r.name).depth <= sprout_depth:
            if best is None or ann.age_of(r.name) < ann.age_of(best):
                best = r.name
    return best


def build_reset_rep(deriv: RegularDerivation, system: CyclicSystem, check: bool = True) -> ResetRep:
    """Phase one: unfold ``deriv`` with annotations until every branch closes.

    A node becomes a bud when some ancestor unravels the same derivation node
    with literally equal names and stacks, and one of the node's reset names
    was introduced no deeper than that ancestor.  The deepest such ancestor is
    chosen as sprout and the oldest such reset name as the progressing name.
    """
    verdict = check_soundness(deriv, system)
    if check and not verdict.terminating:
        raise UnsoundDerivationError(verdict)
    cap = _unfold_cap(deriv, system, verdict.closure_size)
    nodes: dict[str, RepNode] = {}
    counter = 0

    def fresh_id() -> str:
        nonlocal counter
        nid = f"n{counter}"
        counter += 1
        return nid

    root_judg = system.judgment_of_rule(deriv.nodes[deriv.root].rule)
    root_id = fresh_id()
    todo: list[tuple[str, str, str | None, Annotation]] = [
        (root_id, deriv.root, None, init_annotation(root_judg.ob))
    ]
    while todo:
        nid, dn, parent, ann = todo.pop()
        if len(nodes) >= cap:
            raise UnfoldCapError(
                f"unfolding exceeded {cap} nodes; set CYCIND_UNFOLD_CAP to raise the limit"
            )
        # bud check: only the deepest ancestor with the same derivation node and
        # annotation key can be the sprout; a shallower one admits a subset of the
        # reset names, since a name qualifies if introduced no deeper than it
        sprout = prog = None
        cur = parent if ann.resets else None
        while cur is not None:
            anc = nodes[cur]
            if anc.deriv_node == dn and anc.ann.key() == ann.key():
                prog = _qualifying_prog(ann, anc.depth)
                if prog is not None:
                    sprout = anc.id
                break
            cur = anc.parent
        if sprout is not None:
            nodes[nid] = RepNode(nid, dn, deriv.nodes[dn].rule, parent, (), ann, sprout, prog)
            continue
        rule = system.rules[deriv.nodes[dn].rule]
        child_ids = tuple(fresh_id() for _ in rule.premises)
        nodes[nid] = RepNode(nid, dn, rule.id, parent, child_ids, ann)
        for i in reversed(range(len(rule.premises))):
            todo.append((child_ids[i], deriv.nodes[dn].children[i], nid, step(ann, rule.graphs[i])))
    return ResetRep(system, deriv, nodes, root_id)


# ---------------------------------------------------------------------------
# Bud age order
# ---------------------------------------------------------------------------

def bud_prefix(node: RepNode) -> tuple[str, ...]:
    """The names of the bud up to and including its progressing name."""
    names = node.ann.names
    return names[: names.index(node.prog) + 1]


def bud_weakly_older(rep: ResetRep, b1: str, b2: str) -> bool:
    """Is bud ``b1`` at least as old as bud ``b2``?

    Requires the name prefix up to b1's progressing name to be a prefix of
    b2's, with both buds binding those shared names to the same variables.
    Variables are compared as (depth, position) pairs, which name the same
    ancestor only up to the deepest common ancestor of the two buds.
    """
    return _older_checker(rep, b1, _bud_order_data(rep))(b2)


# ---------------------------------------------------------------------------
# Induction order
# ---------------------------------------------------------------------------

def reachable_from(rep: ResetRep, start: str) -> set[str]:
    """Nodes reachable from ``start`` following child edges and back-edges."""
    seen: set[str] = set()
    todo = [start]
    while todo:
        n = todo.pop()
        if n in seen:
            continue
        seen.add(n)
        node = rep.nodes[n]
        todo.extend(node.children)
        if node.is_bud:
            todo.append(node.sprout)
    return seen


def sprout_reach(rep: ResetRep) -> dict[str, set[str]]:
    """:func:`reachable_from` of every node that is the sprout of some bud."""
    return {s: reachable_from(rep, s) for s in {rep.nodes[b].sprout for b in rep.buds()}}


def _bud_order_data(rep: ResetRep) -> dict[str, tuple[tuple[str, ...], tuple]]:
    """Per bud: the prefix up to its progressing name and the prefix's bindings."""
    data = {}
    for b in rep.buds():
        node = rep.nodes[b]
        p = bud_prefix(node)
        data[b] = (p, tuple(node.ann.var_of(nm) for nm in p))
    return data


def _older_checker(rep: ResetRep, b1: str, data):
    """:func:`bud_weakly_older` with ``b1`` fixed, as a function of ``b2``.

    Precomputes b1's prefix bindings and ancestor chain once, so each call
    costs one walk from ``b2`` up to that chain."""
    nodes = rep.nodes
    p1, vars1 = data[b1]
    k1 = len(p1)
    chain = []
    cur: str | None = b1
    while cur is not None:
        chain.append(cur)
        cur = nodes[cur].parent
    chain_pos = {nid: i for i, nid in enumerate(reversed(chain))}

    def older(b2: str) -> bool:
        p2, vars2 = data[b2]
        if p2[:k1] != p1:
            return False
        if b1 == b2:
            return True
        cur = b2
        while cur not in chain_pos:
            cur = nodes[cur].parent
        dca = chain_pos[cur]
        for v1, v2 in zip(vars1, vars2):
            if v1 != v2 or v1.depth > dca:
                return False
        return True

    return older


def _tree_intervals(rep: ResetRep) -> tuple[dict[str, int], dict[str, int]]:
    """Entry/exit numbers of a child-edge traversal; a is a proper ancestor of
    b iff tin[a] < tin[b] and tout[b] < tout[a]."""
    tin: dict[str, int] = {}
    tout: dict[str, int] = {}
    t = 0
    stack: list[tuple[str, bool]] = [(rep.root, False)]
    while stack:
        nid, done = stack.pop()
        if done:
            tout[nid] = t
            t += 1
            continue
        tin[nid] = t
        t += 1
        stack.append((nid, True))
        for c in reversed(rep.nodes[nid].children):
            stack.append((c, False))
    return tin, tout


def induction_order_violations(rep: ResetRep) -> list[tuple[str, str]]:
    """Pairs (b, b2) of mutually reachable buds where b2's sprout is a proper
    ancestor of b's sprout but b2 is not at least as old as b.

    A bud's only successor is its sprout, so two distinct buds reach each
    other exactly when each lies in the reach set of the other's sprout."""
    buds = rep.buds()
    nodes = rep.nodes
    reach = sprout_reach(rep)
    tin, tout = _tree_intervals(rep)
    data = _bud_order_data(rep)
    checkers: dict = {}
    found = []
    for b in buds:
        s = nodes[b].sprout
        for b2 in buds:
            s2 = nodes[b2].sprout
            if b2 == b or b2 not in reach[s] or b not in reach[s2]:
                continue
            if not (tin[s2] < tin[s] and tout[s] < tout[s2]):
                continue
            if b2 not in checkers:
                checkers[b2] = _older_checker(rep, b2, data)
            if not checkers[b2](b):
                found.append((b, b2))
    return found


def crossing_violations(rep: ResetRep) -> list[tuple[str, str]]:
    """Pairs (b, b2) where b2's back-edge crosses out of b's cycle although b2
    is not at least as old as b.

    Crossing means b2 lies in the subtree of b's sprout while b2's own sprout
    is a proper ancestor of it, so the hypothesis b2 uses was introduced
    outside the cycle it escapes.  :func:`respect_induction_order` removes all
    such pairs; the translation needs that to instantiate hypotheses
    introduced below a cycle it is closing.

    The candidates b for a given b2 are exactly the buds whose sprout lies
    strictly between b2 and b2's own sprout, so the scan walks each bud's
    cycle chain instead of enumerating all bud pairs."""
    buds = rep.buds()
    nodes = rep.nodes
    pos = {b: k for k, b in enumerate(buds)}
    at: dict[str, list[str]] = {}
    for b in buds:
        at.setdefault(nodes[b].sprout, []).append(b)
    data = _bud_order_data(rep)
    found = []
    for b2 in buds:
        n2 = nodes[b2]
        s2 = n2.sprout
        sites = []
        cur = n2.parent
        while cur is not None and cur != s2:
            if cur in at:
                sites.append(cur)
            cur = nodes[cur].parent
        if cur is None or not sites:
            continue
        older = _older_checker(rep, b2, data)
        for s in sites:
            for b in at[s]:
                if b != b2 and not older(b):
                    found.append((b, b2))
    found.sort(key=lambda p: (pos[p[0]], pos[p[1]]))
    return found


def respect_induction_order(rep: ResetRep) -> ResetRep:
    """Phase two: re-unfold until back-edges nest with the bud age order.

    If the representation has no crossing violations it is returned unchanged.
    Otherwise the tree is unfolded again.  Every new node tracks which
    original node it unravels, with back-edges short-circuited through their
    sprouts, and each branch carries a table of available landing sites.
    Original buds sharing sprout and progressing name are interchangeable —
    same names and stacks, and the names up to the progressing one keep the
    bindings they had at the sprout — so the table is keyed by that pair.  On
    first encounter a group registers the current node as its landing site and
    evicts the sites of all groups that are not at least as old; later
    encounters close onto the registered site.  Eviction guarantees that any
    back-edge placed across an older registration belongs to an older group,
    which is exactly the nesting the translation needs.
    """
    if not crossing_violations(rep):
        return rep

    group_of = {b: (rep.nodes[b].sprout, rep.nodes[b].prog) for b in rep.buds()}
    member: dict[tuple[str, str], str] = {}
    for b, g in group_of.items():
        member.setdefault(g, b)
    data = _bud_order_data(rep)
    older: dict[tuple[tuple[str, str], tuple[str, str]], bool] = {}
    for g1, b1 in member.items():
        is_older = _older_checker(rep, b1, data)
        for g2, b2 in member.items():
            older[(g1, g2)] = is_older(b2)

    cap = _unfold_cap(rep.deriv, rep.system, check_soundness(rep.deriv, rep.system).closure_size)
    nodes: dict[str, RepNode] = {}
    counter = 0

    def fresh_id() -> str:
        nonlocal counter
        nid = f"n{counter}"
        counter += 1
        return nid

    def rep_children(rid: str) -> tuple[str, ...]:
        node = rep.nodes[rid]
        if node.is_bud:
            return rep.nodes[node.sprout].children
        return node.children

    root_judg = rep.system.judgment_of_rule(rep.nodes[rep.root].rule)
    root_id = fresh_id()
    todo: list[tuple[str, str, str | None, Annotation, dict]] = [
        (root_id, rep.root, None, init_annotation(root_judg.ob), {})
    ]
    while todo:
        nid, rid, parent, ann, avail = todo.pop()
        if len(nodes) >= cap:
            raise UnfoldCapError(
                f"re-unfolding exceeded {cap} nodes; set CYCIND_UNFOLD_CAP to raise the limit"
            )
        cur = rep.nodes[rid]
        if ann.key() != cur.ann.key() or ann.reset_names() != cur.ann.reset_names():
            raise AssertionError(f"annotation drift at {nid} (unravels {rid})")
        if cur.is_bud:
            g = group_of[rid]
            entry = avail.get(g)
            if entry is not None:
                if ann.key() != nodes[entry].ann.key():
                    raise AssertionError(f"sprout mismatch closing {nid} onto {entry}")
                nodes[nid] = RepNode(nid, cur.deriv_node, cur.rule, parent, (), ann, entry, cur.prog)
                continue
            avail = dict(avail)
            avail[g] = nid
            for other in list(avail):
                if other != g and not older[(other, g)]:
                    del avail[other]
        kids = rep_children(rid)
        rule = rep.system.rules[cur.rule]
        child_ids = tuple(fresh_id() for _ in kids)
        nodes[nid] = RepNode(nid, cur.deriv_node, cur.rule, parent, child_ids, ann)
        for i in reversed(range(len(kids))):
            todo.append((child_ids[i], kids[i], nid, step(ann, rule.graphs[i]), avail))
    return ResetRep(rep.system, rep.deriv, nodes, root_id)
