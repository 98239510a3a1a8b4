"""A small sorted natural-deduction kernel with well-founded order rules.

Formulas are judgment atoms over variables, the two order relations ``>`` and
``>=`` at inductive sorts, implication, and sorted universal quantification
(De Bruijn indices under the binders, named free variables elsewhere).  A
sequent is ``ctx; hyps |- concl`` where ``ctx`` is an *ordered* list of sorted
variables: quantifier rules bind the last context entries, so the context
discipline is part of the proof structure.

The trusted kernel is this module alone, 749 lines, with eleven rules:

- ``assumption``: conclude any hypothesis;
- ``inst``: rename the premise's context variables to variables of the same
  sorts in the conclusion's context, and replace the premise's hypotheses by
  derivations of their renamed copies from other hypotheses;
- ``imp_intro`` and ``imp_elim``;
- ``forall_intro`` and ``forall_elim``: close over a block of k >= 1 new
  context variables, or open k binders at context variables, in one step;
- ``geq_refl``: ``x >= x``;
- ``trans``: chain ``l R m`` and ``m R' r`` into ``l > r`` if either premise
  is strict, ``l >= r`` otherwise;
- ``geq_subsum``: ``>`` implies ``>=``;
- ``gt_ind``: well-founded induction on ``>``;
- ``c_rule``: one case analysis per rule scheme of the ambient cyclic system;
  the scheme must fit the system's judgments, each edge joining two
  positions of one inductive sort.

``check_proof`` verifies a derivation bottom-up and is the only authority on
validity; the builders of :mod:`cycind.builders` merely construct candidate
derivations.  It checks each part of a sequent where that part enters the
proof.  A context and hypothesis list are checked in full at the root and at
``inst``'s premise 0.  Any other premise keeps or extends them, as the rule
table says; only the variables it adds are checked, and a hypothesis it adds
is compared with one that the rule builds from checked parts.  A conclusion
is checked at the root, at ``inst``'s premise 0, at ``imp_elim``'s minor and
at ``trans``'s left premise; every other rule builds those parts of its
premises from the sequent below, so its own check covers them.  A formula is
checked through one summary per object, so sharing never multiplies the
work.  The kernel builds no formula: it compares the shape a rule demands
with the proof's formulas in place, identity first, and matches an instance
against its pattern, taking a part shared with the pattern at once where its
summary shows that the map leaves it as it is.  It imports nothing of this
package but :mod:`cycind.core`.
"""

from __future__ import annotations

from typing import Iterator

from .core import GT, CyclicSystem, Record


# ---------------------------------------------------------------------------
# Terms and formulas
# ---------------------------------------------------------------------------

class FreeV(Record):
    __slots__ = ("name",)
    name: str

    def __str__(self) -> str:
        return self.name


class BoundV(Record):
    __slots__ = ("k",)
    k: int

    def __str__(self) -> str:
        return f"^{self.k}"


Term = FreeV | BoundV


class Atom(Record):
    __slots__ = ("judg", "args")
    judg: str
    args: tuple[Term, ...]


class Geq(Record):
    __slots__ = ("sort", "left", "right")
    sort: str
    left: Term
    right: Term


class Gt(Record):
    __slots__ = ("sort", "left", "right")
    sort: str
    left: Term
    right: Term


class Imp(Record):
    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula


class Forall(Record):
    """``hint`` names the bound variable for rendering only."""

    __slots__ = ("sort", "body", "hint")
    sort: str
    body: Formula
    hint: str
    _defaults = {"hint": "x"}
    _nocompare = ("hint",)


Formula = Atom | Geq | Gt | Imp | Forall


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}~{k}" in avoid:
        k += 1
    return f"{base}~{k}"


def render_formula(phi: Formula, binders: tuple[str, ...] = ()) -> str:
    if isinstance(phi, Atom):
        return f"{phi.judg}({', '.join(_render_term(t, binders) for t in phi.args)})"
    if isinstance(phi, Geq):
        return f"{_render_term(phi.left, binders)} >= {_render_term(phi.right, binders)}"
    if isinstance(phi, Gt):
        return f"{_render_term(phi.left, binders)} > {_render_term(phi.right, binders)}"
    if isinstance(phi, Imp):
        lhs = render_formula(phi.lhs, binders)
        if isinstance(phi.lhs, (Imp, Forall)):
            lhs = f"({lhs})"
        return f"{lhs} -> {render_formula(phi.rhs, binders)}"
    if isinstance(phi, Forall):
        used = set(binders)
        nm = fresh_name(phi.hint, used)
        return f"all {nm}:{phi.sort}. {render_formula(phi.body, binders + (nm,))}"
    raise TypeError(f"not a formula: {phi!r}")


def _render_term(t: Term, binders: tuple[str, ...]) -> str:
    if isinstance(t, FreeV):
        return t.name
    if t.k < len(binders):
        return binders[-1 - t.k]
    return f"^{t.k}"


# ---------------------------------------------------------------------------
# Sequents and derivations
# ---------------------------------------------------------------------------

class Sequent(Record):
    __slots__ = ("ctx", "hyps", "concl")
    ctx: tuple[tuple[str, str], ...]  # ordered (variable, sort) pairs
    hyps: tuple[Formula, ...]
    concl: Formula

    def render(self) -> str:
        cv = ", ".join(f"{v}:{s}" for v, s in self.ctx)
        hy = ", ".join(render_formula(h) for h in self.hyps)
        return f"[{cv}] {hy} |- {render_formula(self.concl)}"


class Deriv(Record):
    """A proof node.  Proofs share subproofs, so a ``Deriv`` compares and
    hashes by identity: by value, it would walk every path through the
    shared parts, recursively.  Compare proofs by value through their
    documents (:func:`cycind.formats.proof_to_doc`)."""

    __slots__ = ("rule", "seq", "children", "data")
    rule: str
    seq: Sequent
    children: tuple[Deriv, ...]
    data: tuple
    _defaults = {"children": (), "data": ()}
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class LogicError(Exception):
    """A derivation failed to check; ``path`` locates the offending node."""

    def __init__(self, message: str, path: tuple[int, ...] = ()) -> None:
        self.path = path
        loc = "/".join(map(str, path)) if path else "root"
        super().__init__(f"at {loc}: {message}")


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

# What is wrong with a formula, or the sorts it demands of its free names and
# of its loose indices (counted at its top; a dict, so a large index costs no
# room).  It depends on the object alone, never on where the object sits.
_Summary = tuple[dict[str, str], dict[int, str]] | str


class _Summaries(dict):
    """The summary of each formula object met in one ``check_proof`` call, by
    ``id`` (the proof keeps them alive), and the system they are read against."""

    __slots__ = ("system", "known")

    def __init__(self, system: CyclicSystem) -> None:
        super().__init__()
        self.system = system
        # the sorts a context or quantifier may use: a judgment's, or an inductive one
        self.known = system.ind_sorts.union(*(j.sorts for j in system.judgments.values()))


def _summary(phi: Formula, sums: _Summaries) -> _Summary:
    """``phi``'s summary, from its parts' summaries, kept in ``sums``;
    callers look there first, so each object's is computed once."""
    cls = phi.__class__
    if cls is Atom:
        judg = sums.system.judgments.get(phi.judg)
        if judg is None:
            out = f"unknown judgment {phi.judg!r}"
        elif len(phi.args) != judg.ob:
            out = f"{phi.judg} expects {judg.ob} arguments, got {len(phi.args)}"
        else:
            out = _uses(phi.args, judg.sorts, phi.judg)
    elif cls is Geq or cls is Gt:
        if phi.sort not in sums.system.ind_sorts:
            out = f"order at non-inductive sort {phi.sort!r}"
        else:
            out = _uses((phi.left, phi.right), (phi.sort, phi.sort), None)
    elif cls is Imp:
        out = sums.get(id(phi.lhs)) or _summary(phi.lhs, sums)
        if out.__class__ is not str:
            b = sums.get(id(phi.rhs)) or _summary(phi.rhs, sums)
            out = b if b.__class__ is str or out is b else _merge(out, b)
    elif cls is Forall:
        if phi.sort not in sums.known:
            out = f"quantifier over unknown sort {phi.sort!r}"
        else:
            out = sums.get(id(phi.body)) or _summary(phi.body, sums)
            if out.__class__ is not str and out[1]:
                free, loose = out
                if loose.get(0, phi.sort) != phi.sort:
                    out = f"bound variable has sort {phi.sort!r}, expected {loose[0]!r}"
                else:
                    out = free, {k - 1: s for k, s in loose.items() if k}
    else:
        out = f"not a formula: {phi!r}"
    sums[id(phi)] = out
    return out


def _uses(terms: tuple, sorts: tuple[str, ...], judg: str | None) -> _Summary:
    """The summary of an atom of ``judg``, or of an order (``judg`` None),
    whose terms sit at ``sorts``."""
    free: dict[str, str] = {}
    loose: dict[int, str] = {}
    for i, (t, want) in enumerate(zip(terms, sorts)):
        c = t.__class__
        have = (free.setdefault(t.name, want) if c is FreeV else loose.setdefault(t.k, want)
                if c is BoundV and t.k.__class__ is int and t.k >= 0 else None)
        if have != want:  # None for what is not a term
            err = f"not a term: {t!r}" if have is None else f"{t} used at sorts {have!r} and {want!r}"
            return f"argument {i} of {judg}: {err}" if judg is not None else f"order operand: {err}"
    return free, loose


def _merge(a: _Summary, b: _Summary) -> _Summary:
    """The summary of an implication whose sides' summaries are ``a`` and ``b``."""
    (fa, la), (fb, lb) = a, b
    for name, s in fb.items():
        if fa.get(name, s) != s:
            return f"{name} used at sorts {fa[name]!r} and {s!r}"
    for k, s in lb.items():
        if la.get(k, s) != s:
            return f"index {k} used at sorts {la[k]!r} and {s!r}"
    return ({**fa, **fb} if fa and fb else fa or fb), ({**la, **lb} if la and lb else la or lb)


def _check_formula(phi: Formula, ctx: dict[str, str], sums: _Summaries) -> str | None:
    summary = sums.get(id(phi)) or _summary(phi, sums)
    if summary.__class__ is str:
        return summary
    free, loose = summary
    if loose:
        return f"unbound index, {min(loose) + 1} past its binders"
    for name, want in free.items():
        have = ctx.get(name)
        if have is None:
            return f"variable {name!r} not in context"
        if have != want:
            return f"variable {name!r} has sort {have!r}, expected {want!r}"
    return None


def _check_past(seq: Sequent, n_ctx: int, below: dict[str, str],
                ctxs: dict[int, dict[str, str]]) -> dict[str, str] | str:
    """Check the context variables of ``seq`` past ``n_ctx``, the first ones
    being those of a well-formed context ``below``; returns ``seq``'s
    context as a dict, or what is wrong.  ``ctxs`` holds the dict of each
    context object found well formed, its sorts included (``check_proof``
    adds one after the node's rule check)."""
    ctx = ctxs.get(id(seq.ctx))
    if ctx is None:
        ctx = dict(below)
        for v, s in seq.ctx[n_ctx:]:
            if v in ctx:
                return "repeated context variable"
            ctx[v] = s
    return ctx


def _check_pair(sums: _Summaries, ctxs: dict[int, dict[str, str]], seq: Sequent) -> dict[str, str] | str:
    """Check the context and hypotheses of ``seq`` in full."""
    ctx = _check_past(seq, 0, {}, ctxs)
    if ctx.__class__ is str:
        return ctx
    for i, h in enumerate(seq.hyps):
        if err := _check_formula(h, ctx, sums):
            return f"hypothesis {i}: {err}"
    return ctx


def _matches(pat: Formula, tgt: Formula, m: tuple[str, ...] | dict[str, str],
             sums: _Summaries, depth: int = 0) -> bool:
    """Whether ``tgt`` is ``pat`` with its terms mapped by ``m``: the answer
    ``==`` gives on the mapped copy (hints aside), in one walk that builds
    nothing.  A tuple ``m`` of k names opens the body under k binders at
    those variables, outermost first: loose index ``depth + i`` becomes
    ``m[k-1-i]`` for i < k, and a higher index drops by k.  A dict ``m``
    renames free variables.  Where ``tgt`` holds ``pat``'s own object and
    its summary shows that ``m`` leaves it as it is, it matches."""
    opening = m.__class__ is tuple
    while True:
        cls = pat.__class__
        if tgt.__class__ is not cls:
            return False
        if pat is tgt:
            s = sums.get(id(pat)) or _summary(pat, sums)
            if s.__class__ is not str and (
                    not s[1] or max(s[1]) < depth if opening else m.keys().isdisjoint(s[0])):
                return True
        if cls is Imp:
            if not _matches(pat.lhs, tgt.lhs, m, sums, depth):
                return False
            pat, tgt = pat.rhs, tgt.rhs
            continue
        if cls is Forall:
            if pat.sort != tgt.sort:
                return False
            pat, tgt, depth = pat.body, tgt.body, depth + 1
            continue
        if cls is Atom:
            if pat.judg != tgt.judg or len(pat.args) != len(tgt.args):
                return False
            ps, ts = pat.args, tgt.args
        elif cls is Geq or cls is Gt:
            if pat.sort != tgt.sort:
                return False
            ps, ts = (pat.left, pat.right), (tgt.left, tgt.right)
        else:
            return False
        for p, t in zip(ps, ts):
            c = p.__class__
            if opening and c is BoundV and p.k >= depth:  # the opening changes p
                if p.k - depth < len(m):
                    if t.__class__ is not FreeV or t.name != m[depth - p.k - 1]:
                        return False
                elif t.__class__ is not BoundV or t.k != p.k - len(m):
                    return False
            elif not opening and c is FreeV and p.name in m:  # the renaming changes p
                if t.__class__ is not FreeV or t.name != m[p.name]:
                    return False
            elif p is not t and p != t:  # p is left as it is
                return False
        return True


# Each rule's shape: its premise count (None where the rule counts its own
# premises from its data), whether it reads rule data, the premise whose
# conclusion enters and the premise whose pair enters (see ``check_proof``),
# and whether each other premise extends (True) or keeps (False) the
# sequent's context, and its hypotheses.
_RULES: dict[str, tuple[int | None, bool, int | None, int | None, bool, bool]] = {
    "assumption": (0, True, None, None, False, False),
    "inst": (None, True, 0, 0, False, False),
    "imp_intro": (1, False, None, None, False, True),
    "imp_elim": (2, False, 1, None, False, False),
    "forall_intro": (1, False, None, None, True, False),
    "forall_elim": (1, True, None, None, False, False),
    "geq_refl": (0, False, None, None, False, False),
    "trans": (2, False, 0, None, False, False),
    "geq_subsum": (1, False, None, None, False, False),
    "gt_ind": (1, False, None, None, True, True),
    "c_rule": (None, True, None, None, True, True),
}


def _check_node(system: CyclicSystem, d: Deriv, ctx: dict[str, str], sums: _Summaries) -> str | None:
    """What is wrong with the rule at ``d``, whose context is ``ctx``."""
    seq, kids, r = d.seq, d.children, d.rule
    if r not in _RULES:
        return f"unknown rule {r!r}"
    n, reads_data, _concl, pair, wide_ctx, wide_hyps = _RULES[r]
    if d.data and not reads_data:
        return f"{r} takes no rule data, got {list(d.data)!r}"
    if n is not None and len(kids) != n:
        return f"{r} expects {n} premises, got {len(kids)}"
    for i, kid in enumerate(kids):
        p = kid.seq
        if i == pair:
            continue
        if p.ctx is not seq.ctx and (p.ctx[:len(seq.ctx)] if wide_ctx else p.ctx) != seq.ctx:
            return f"{r} premise {i} must {'extend' if wide_ctx else 'keep'} the context"
        if p.hyps is not seq.hyps and (p.hyps[:len(seq.hyps)] if wide_hyps else p.hyps) != seq.hyps:
            return f"{r} premise {i} must {'extend' if wide_hyps else 'keep'} the hypotheses"
    if r == "assumption":
        if len(d.data) != 1 or type(d.data[0]) is not int:
            return "assumption needs one integer hypothesis position"
        (k,) = d.data
        if not 0 <= k < len(seq.hyps):
            return f"assumption position {k} out of range for {len(seq.hyps)} hypotheses"
        if seq.concl is not seq.hyps[k] and seq.concl != seq.hyps[k]:
            return f"assumption conclusion is not hypothesis {k}"
        return None
    if r == "inst":
        if not kids:
            return "inst expects a premise"
        p = kids[0].seq
        if len(d.data) != len(p.ctx) or not all(isinstance(y, str) for y in d.data):
            return f"inst needs one target variable per premise context entry ({len(p.ctx)})"
        for (v, s), y in zip(p.ctx, d.data):
            ys = ctx.get(y)
            if ys is None:
                return f"inst target {y!r} for {v!r} not in context"
            if ys != s:
                return f"inst target {y!r} has sort {ys!r}, expected {s!r}"
        if len(kids) != 1 + len(p.hyps):
            return f"inst expects {len(p.hyps)} minor premises, got {len(kids) - 1}"
        sub = {v: y for (v, _s), y in zip(p.ctx, d.data) if v != y}
        if not (_matches(p.concl, seq.concl, sub, sums) if sub else seq.concl == p.concl):
            return "inst conclusion is not the renamed premise conclusion"
        for i, kid in enumerate(kids[1:]):
            if not (_matches(p.hyps[i], kid.seq.concl, sub, sums) if sub else kid.seq.concl == p.hyps[i]):
                return f"inst minor {i} must conclude renamed premise hypothesis {i}"
        return None
    if r == "imp_intro":
        p, c, n = kids[0].seq, seq.concl, len(seq.hyps)
        if not isinstance(c, Imp):
            return "imp_intro conclusion must be an implication"
        if (len(p.hyps) != n + 1 or p.hyps[n] is not c.lhs and p.hyps[n] != c.lhs
                or p.concl is not c.rhs and p.concl != c.rhs):
            return "imp_intro premise must move the antecedent into the hypotheses"
        return None
    if r == "imp_elim":
        i, m = kids[0].seq.concl, kids[1].seq.concl
        if (not isinstance(i, Imp) or i.lhs is not m and i.lhs != m
                or i.rhs is not seq.concl and i.rhs != seq.concl):
            return "imp_elim major premise must be minor -> conclusion"
        return None
    if r == "forall_intro":
        p, n = kids[0].seq, len(seq.ctx)
        if len(p.ctx) <= n:
            return "forall_intro premise must extend the context by one or more variables"
        body = seq.concl
        for _x, s in p.ctx[n:]:
            if not isinstance(body, Forall) or body.sort != s:
                return "forall_intro conclusion must quantify at the new variables' sorts, in order"
            body = body.body
        if not _matches(body, p.concl, tuple(x for x, _s in p.ctx[n:]), sums):  # see check_proof
            return "forall_intro conclusion body does not match the premise"
        return None
    if r == "forall_elim":
        ys, body = d.data, kids[0].seq.concl
        if not ys or not all(isinstance(y, str) for y in ys):
            return "forall_elim needs one or more target variables"
        for y in ys:
            if not isinstance(body, Forall):
                return "forall_elim premise must conclude a quantified formula per target"
            s = ctx.get(y)
            if s is None:
                return f"forall_elim target {y!r} not in context"
            if s != body.sort:
                return f"forall_elim target has sort {s!r}, expected {body.sort!r}"
            body = body.body
        if not _matches(body, seq.concl, ys, sums):
            return "forall_elim conclusion is not the instantiated body"
        return None
    if r == "geq_refl":
        c = seq.concl
        if not isinstance(c, Geq) or c.left != c.right or not isinstance(c.left, FreeV):
            return "geq_refl concludes x >= x for a context variable"
        s = ctx.get(c.left.name)
        if s is None:
            return "geq_refl variable not in context"
        if s != c.sort:
            return "geq_refl sort mismatch"
        return None
    if r == "trans":
        a, b = kids[0].seq.concl, kids[1].seq.concl
        if not (isinstance(a, (Geq, Gt)) and isinstance(b, (Geq, Gt))):
            return "trans premises must conclude orders"
        if not isinstance(seq.concl, Gt if isinstance(a, Gt) or isinstance(b, Gt) else Geq):
            return "trans must conclude > exactly when a premise is >"
        if not (a.sort == b.sort == seq.concl.sort):
            return "trans sort mismatch"
        if a.right != b.left or seq.concl.left != a.left or seq.concl.right != b.right:
            return "trans endpoints do not chain"
        return None
    if r == "geq_subsum":
        q, c = kids[0].seq.concl, seq.concl
        if (not isinstance(q, Gt) or not isinstance(c, Geq) or c.sort != q.sort
                or c.left is not q.left and c.left != q.left or c.right is not q.right and c.right != q.right):
            return "geq_subsum conclusion must weaken the premise"
        return None
    if r == "gt_ind":
        p = kids[0].seq
        if not isinstance(seq.concl, Forall):
            return "gt_ind conclusion must be quantified"
        sort = seq.concl.sort
        if sort not in system.ind_sorts:
            return f"gt_ind at non-inductive sort {sort!r}"
        if len(p.ctx) != len(seq.ctx) + 1:
            return "gt_ind premise must extend the context by the induction variable"
        x, s = p.ctx[-1]
        if s != sort:
            return "gt_ind variable sort mismatch"
        # the new hypothesis is all x'. x > x' -> body
        body, n = seq.concl.body, len(seq.hyps)
        h = p.hyps[n] if len(p.hyps) == n + 1 else None
        i = h.body if isinstance(h, Forall) and h.sort == sort else None
        g = i.lhs if isinstance(i, Imp) else None
        if (not isinstance(g, Gt) or g.sort != sort or g.left.__class__ is not FreeV or g.left.name != x
                or g.right.__class__ is not BoundV or g.right.k != 0 or i.rhs is not body and i.rhs != body):
            return "gt_ind premise must carry the induction hypothesis"
        if not _matches(body, p.concl, (x,), sums):
            return "gt_ind premise conclusion does not open the quantified body"
        return None
    # c_rule
    if len(d.data) != 1 or not isinstance(d.data[0], str):
        return "c_rule needs one rule scheme id"
    (rid,) = d.data
    scheme = system.rules.get(rid)
    if scheme is None:
        return f"unknown rule scheme {rid!r}"
    # the kernel does not rely on validate_system: the scheme must fit, each
    # edge joining two positions of one inductive sort
    judg = system.judgments.get(scheme.conclusion)
    prems = [system.judgments.get(j) for j in scheme.premises]
    if judg is None or any(q is None or (g.src_arity, g.dst_arity) != (judg.ob, q.ob)
                           or any(judg.sorts[a] != q.sorts[b] or q.sorts[b] not in system.ind_sorts
                                  for a, b, _lab in g.edges)
                           for g, q in zip(scheme.graphs, prems)):
        return f"rule scheme {rid!r} does not fit the judgments of the system"
    if len(kids) != len(scheme.premises):
        return f"c_rule expects {len(scheme.premises)} premises, got {len(kids)}"
    c = seq.concl
    if not isinstance(c, Atom) or c.judg != judg.id:
        return f"c_rule {rid} must conclude a {judg.id} atom"
    if not all(isinstance(t, FreeV) for t in c.args):
        return "c_rule arguments must be context variables"
    xs = tuple(t.name for t in c.args)
    for i, (kid, prem) in enumerate(zip(kids, prems)):
        p = kid.seq
        if len(p.ctx) != len(seq.ctx) + prem.ob:
            return f"premise {i} must extend the context by {prem.ob} fresh variables"
        ys = p.ctx[len(seq.ctx):]
        for j, (yv, ysort) in enumerate(ys):
            if ysort != prem.sorts[j]:
                return f"premise {i}: variable {j} has sort {ysort!r}, expected {prem.sorts[j]!r}"
        # the edge facts: an order per edge, from an argument to a new variable
        edges, hs, n = scheme.graphs[i].sorted_edges(), p.hyps, len(seq.hyps)
        if len(hs) != n + len(edges) or not all(
                h.__class__ is (Gt if lab == GT else Geq) and h.sort == judg.sorts[a]
                and h.left.__class__ is FreeV and h.left.name == xs[a]
                and h.right.__class__ is FreeV and h.right.name == ys[b][0]
                for h, (a, b, lab) in zip(hs[n:], edges)):
            return f"premise {i} must extend the hypotheses by the edge facts"
        q = p.concl
        if not isinstance(q, Atom) or q.judg != prem.id or len(q.args) != len(ys) or not all(
                t.__class__ is FreeV and t.name == y for t, (y, _s) in zip(q.args, ys)):
            return f"premise {i} must conclude {prem.id} at the fresh variables"
    return None


def _path_to(root: Deriv, target: Deriv) -> tuple[int, ...]:
    """The path at which the walk of :func:`check_proof` first reaches
    ``target``: that walk again, with a link (the parent's link, child
    index) on each entry."""
    seen: set[int] = set()
    stack: list[tuple[Deriv, tuple | None]] = [(root, None)]
    while True:
        node, link = stack.pop()
        if node is target:
            steps: list[int] = []
            while link is not None:
                link, i = link
                steps.append(i)
            return tuple(reversed(steps))
        if id(node) in seen:
            continue
        seen.add(id(node))
        kids = node.children
        for i in reversed(range(len(kids))):
            stack.append((kids[i], (link, i)))


def check_proof(system: CyclicSystem, root: Deriv) -> None:
    """Verify a derivation; raises :class:`LogicError` locating the first defect.

    Each part of a sequent is checked for well formedness where it enters:

    - a context and hypothesis list, in full, at the root and at ``inst``'s
      premise 0 (an arbitrary sequent): distinct context variables of known
      sorts, and hypotheses well formed over them;
    - the new context variables of ``forall_intro``, ``gt_ind`` and ``c_rule``:
      distinct, outside the context below, of known sorts;
    - a conclusion, at the root, at ``inst``'s premise 0, at ``imp_elim``'s
      minor (its conclusion ``A`` is the new antecedent) and at ``trans``'s
      left premise (its right end is the new middle term).

    Every other part of a premise is compared, by value, with one that its
    rule builds from well-formed parts, so it is well formed once the rule's
    check passes below it.  Contexts and hypotheses are the sequent's own,
    kept or extended as ``_RULES`` says for each rule; one loop checks that
    for every premise but ``inst``'s premise 0, before the rule's own check
    of what a premise adds.  The premise conclusions, and what they add, are:

    - ``imp_intro``: the conclusion's consequent, with its antecedent as a
      new hypothesis;
    - ``forall_intro``: the body under the conclusion's k binders, opened at
      the premise's k new context variables, of the binders' sorts in order;
    - ``gt_ind``: the same for one variable ``x``, with the new hypothesis
      ``all x'. x > x' -> body``, at a sort the rule checks is inductive;
    - ``forall_elim``: the premise's body under k binders, opened at k
      context variables of the binders' sorts, is the conclusion;
    - ``geq_subsum``: the conclusion's terms and sort under ``>``;
    - ``c_rule``: an atom of the premise judgment at its new context
      variables, of the judgment's sorts, with the edge facts as new
      hypotheses: orders from the conclusion's arguments to those variables,
      at the one inductive sort of both ends that the scheme check demands;
    - ``inst`` minors: premise 0's hypotheses (checked at premise 0) renamed
      to context variables of the same sorts;
    - ``imp_elim`` major: the minor's conclusion implies the conclusion;
    - ``trans`` right premise: the left premise's right end, related to the
      conclusion's right end at the conclusion's sort.

    An instance is matched against its pattern (:func:`_matches`), never
    built.  ``forall_intro`` matches the premise's conclusion against the
    body opened at the premise's k new variables.  That is exact, the same
    as closing the premise's conclusion over them, because they are distinct
    and fresh: the premise's check finds them so, outside the context below,
    which holds every free variable of the body.  A part of the
    instance that is the pattern's own object matches at once where the map
    leaves it as it is: an opening, when its highest loose index is below
    the binders passed; a renaming, when none of its free names is renamed.
    That shortcut and the well-formedness checks read one summary per formula
    object (:func:`_summary`), built from its parts' and blind to where the
    object sits, so it is computed once per call however often it is shared.

    A node shared by several parents is checked once, at the first path that
    reaches it, with its pair and conclusion checked as that path enters
    there; any one parent's rule check is enough, whichever comes first.  So
    the cost is per distinct node, plus a full check per distinct entering
    ``(ctx, hyps)`` pair and a conclusion per entering node, all by object
    identity.  The proof keeps these immutable objects alive for the whole
    call, so ``id`` keys are exact.  A premise that adds no context variable
    reuses the context map below.  The walk keeps no parent links: when a
    check fails, the same walk runs again from the root to find the path.
    """
    sums = _Summaries(system)
    ctxs: dict[int, dict[str, str]] = {}
    pairs: dict[tuple[int, int], dict[str, str] | str] = {}
    seen: set[int] = set()
    # each entry: a node, whether its conclusion enters, and, when its pair
    # does not enter, the context length of the sequent below and its map
    stack: list[tuple[Deriv, bool, int | None, dict[str, str] | None]] = [(root, True, None, None)]
    while stack:
        node, enters, n_below, below_ctx = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        seq = node.seq
        if n_below is None:
            pair = (id(seq.ctx), id(seq.hyps))
            ctx = pairs.get(pair)
            if ctx is None:
                ctx = pairs[pair] = _check_pair(sums, ctxs, seq)
        elif len(seq.ctx) == n_below:
            ctx = below_ctx
        else:
            ctx = _check_past(seq, n_below, below_ctx, ctxs)
        if ctx.__class__ is str:
            err = ctx
        elif enters and (err := _check_formula(seq.concl, ctx, sums)):
            err = f"conclusion: {err}"
        else:
            err = _check_node(system, node, ctx, sums)
        # a context met for the first time (not the map below): its new sorts
        if err is None and ctx is not below_ctx and id(seq.ctx) not in ctxs:
            ctxs[id(seq.ctx)] = ctx
            err = next((f"variable {v!r} has unknown sort {s!r}"
                        for v, s in seq.ctx[n_below or 0:] if s not in sums.known), None)
        if err is not None:
            raise LogicError(err, _path_to(root, node))
        kids = node.children
        if not kids:
            continue
        _n, _data, concl_entry, pair_entry, _ctx, _hyps = _RULES[node.rule]
        for i in reversed(range(len(kids))):
            stack.append((kids[i], i == concl_entry, None if i == pair_entry else len(seq.ctx), ctx))


def states_judgment(system: CyclicSystem, seq: Sequent, judg: str) -> bool:
    """Whether ``seq`` is the plain statement of the judgment ``judg``: no
    hypotheses, one context variable per argument at the judgment's sorts,
    and ``judg`` applied to those variables in context order."""
    j = system.judgments.get(judg)
    return (j is not None and not seq.hyps and tuple(s for _v, s in seq.ctx) == j.sorts
            and seq.concl == Atom(judg, tuple(FreeV(v) for v, _s in seq.ctx)))


def distinct_nodes(root: Deriv) -> Iterator[Deriv]:
    """Each node of the proof DAG once, by object identity (not by value:
    hashing a ``Deriv`` by value walks its whole subproof)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        d = stack.pop()
        if id(d) in seen:
            continue
        seen.add(id(d))
        yield d
        stack.extend(d.children)


def proof_size(root: Deriv) -> int:
    """Number of distinct nodes, by object identity: a subproof shared by
    several parents counts once.  This is the row count of
    :func:`cycind.formats.proof_to_doc`."""
    return sum(1 for _ in distinct_nodes(root))


def count_rule(root: Deriv, rule: str) -> int:
    """Number of distinct nodes (by object identity, as in :func:`proof_size`)
    that apply ``rule``."""
    return sum(1 for d in distinct_nodes(root) if d.rule == rule)
