"""A small sorted natural-deduction kernel with well-founded order rules.

Formulas are judgment atoms over variables, the two order relations ``>`` and
``>=`` at inductive sorts, implication, and sorted universal quantification
(De Bruijn indices under the binders, named free variables elsewhere).  A
sequent is ``ctx; hyps |- concl`` where ``ctx`` is an *ordered* list of sorted
variables: quantifier rules bind the last context entry, so the context
discipline is part of the proof structure.

The trusted kernel is this module alone, 712 lines, with eleven rules:

- ``assumption``: conclude any hypothesis;
- ``inst``: rename the premise's context variables to variables of the same
  sorts in the conclusion's context, and replace the premise's hypotheses by
  derivations of their renamed copies from other hypotheses;
- ``imp_intro`` and ``imp_elim``;
- ``forall_intro`` and ``forall_elim``;
- ``geq_refl``: ``x >= x``;
- ``trans``: chain ``l R m`` and ``m R' r`` into ``l > r`` if either premise
  is strict, ``l >= r`` otherwise;
- ``geq_subsum``: ``>`` implies ``>=``;
- ``gt_ind``: well-founded induction on ``>``;
- ``c_rule``: one case analysis per rule scheme of the ambient cyclic system.

``check_proof`` verifies a derivation bottom-up and is the only authority on
validity; the builders of :mod:`cycind.builders` merely construct candidate
derivations.  It checks each part of a sequent where that part enters the
proof.  A context and hypothesis list are checked in full at the root and at
``inst``'s premise 0; at any other premise, only the variables and
hypotheses it adds to the sequent below are.  A conclusion is checked at the
root, at ``inst``'s premise 0, at ``imp_elim``'s minor and at ``trans``'s
left premise.  Every other rule builds those parts of its premises from the
sequent below, so its own check covers them.  The kernel matches an instance
against its pattern without building it; the term maps that build instances
are the builders'.

It imports nothing of this package but :mod:`cycind.core`.  The two formula
shapes that a rule checks and a builder builds, :func:`gt_ind_hypothesis`
and :func:`edge_facts`, are written here once.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .core import GT, CyclicSystem, Record, SizeChangeGraph


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


def ordered(sort: str, label: str, left: Term, right: Term) -> Formula:
    return Gt(sort, left, right) if label == GT else Geq(sort, left, right)


def gt_ind_hypothesis(sort: str, x: str, body: Formula) -> Formula:
    """The hypothesis ``gt_ind`` adds when it inducts on ``x`` to conclude
    ``all x. body``: ``all x'. x > x' -> body``."""
    return Forall(sort, Imp(Gt(sort, FreeV(x), BoundV(0)), body), hint=f"{x}'")


def edge_facts(
    sorts: tuple[str, ...], graph: SizeChangeGraph, xs: tuple[str, ...], ys: tuple[str, ...]
) -> tuple[Formula, ...]:
    """The hypotheses ``c_rule`` adds to a premise: one order per edge of the
    premise's size-change graph, from the conclusion's variables ``xs`` (of
    ``sorts``) to the premise's fresh variables ``ys``."""
    return tuple(ordered(sorts[a], lab, FreeV(xs[a]), FreeV(ys[b]))
                 for a, b, lab in graph.sorted_edges())


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

    def sort_of(self, name: str) -> str:
        for v, s in self.ctx:
            if v == name:
                return s
        raise KeyError(f"variable {name!r} not in context")

    def render(self) -> str:
        cv = ", ".join(f"{v}:{s}" for v, s in self.ctx)
        hy = ", ".join(render_formula(h) for h in self.hyps)
        return f"[{cv}] {hy} |- {render_formula(self.concl)}"


class Deriv(Record):
    __slots__ = ("rule", "seq", "children", "data")
    rule: str
    seq: Sequent
    children: tuple[Deriv, ...]
    data: tuple
    _defaults = {"children": (), "data": ()}


class LogicError(Exception):
    """A derivation failed to check; ``path`` locates the offending node."""

    def __init__(self, message: str, path: tuple[int, ...] = ()) -> None:
        self.path = path
        loc = "/".join(map(str, path)) if path else "root"
        super().__init__(f"at {loc}: {message}")


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

# Formula objects are shared structurally between the sequents of a
# derivation, so their context-independent wellformedness (arities, sort
# agreement, known binder sorts, bound indices in scope) plus the sorts they
# demand of their free variables are computed once per object.  The cache
# lives for one ``check_proof`` call and is keyed by ``id``: the proof keeps
# every formula alive for that long.
_Summary = dict[str, str] | str


def _formula_summary(
    system: CyclicSystem, known: frozenset[str], phi: Formula, cache: dict[int, _Summary]
) -> _Summary:
    hit = cache.get(id(phi))
    if hit is not None:
        return hit
    req: dict[str, str] = {}

    def walk(f: Formula, binders: list[str]) -> str | None:
        if isinstance(f, Atom):
            judg = system.judgments.get(f.judg)
            if judg is None:
                return f"unknown judgment {f.judg!r}"
            if len(f.args) != judg.ob:
                return f"{f.judg} expects {judg.ob} arguments, got {len(f.args)}"
            for i, t in enumerate(f.args):
                if err := use(t, judg.sorts[i], binders):
                    return f"argument {i} of {f.judg}: {err}"
            return None
        if isinstance(f, (Geq, Gt)):
            if f.sort not in system.ind_sorts:
                return f"order at non-inductive sort {f.sort!r}"
            for t in (f.left, f.right):
                if err := use(t, f.sort, binders):
                    return f"order operand: {err}"
            return None
        if isinstance(f, Imp):
            return walk(f.lhs, binders) or walk(f.rhs, binders)
        if isinstance(f, Forall):
            if f.sort not in known:
                return f"quantifier over unknown sort {f.sort!r}"
            binders.append(f.sort)
            try:
                return walk(f.body, binders)
            finally:
                binders.pop()
        return f"not a formula: {f!r}"

    def use(t: Term, want: str, binders: list[str]) -> str | None:
        if isinstance(t, FreeV):
            have = req.setdefault(t.name, want)
            if have != want:
                return f"{t.name} used at sorts {have!r} and {want!r}"
            return None
        if isinstance(t, BoundV):
            if t.k >= len(binders):
                return f"unbound index {t.k}"
            if binders[-1 - t.k] != want:
                return f"bound variable has sort {binders[-1 - t.k]!r}, expected {want!r}"
            return None
        return f"not a term: {t!r}"

    res: _Summary = walk(phi, []) or req
    cache[id(phi)] = res
    return res


def _check_formula(
    system: CyclicSystem, known: frozenset[str], phi: Formula, ctx: dict[str, str],
    cache: dict[int, _Summary],
) -> str | None:
    summary = _formula_summary(system, known, phi, cache)
    if isinstance(summary, str):
        return summary
    for name, want in summary.items():
        have = ctx.get(name)
        if have is None:
            return f"variable {name!r} not in context"
        if have != want:
            return f"variable {name!r} has sort {have!r}, expected {want!r}"
    return None


# ``ctxs`` maps each context object found well formed to its entries as a
# dict; ``check_proof`` adds one once its new entries' sorts pass, after the
# node's rule check (see ``check_proof`` for where pairs enter).
def _check_past(
    system: CyclicSystem,
    known: frozenset[str],
    seq: Sequent,
    n_ctx: int,
    n_hyps: int,
    below: dict[str, str],
    cache: dict[int, _Summary],
    ctxs: dict[int, dict[str, str]],
) -> dict[str, str] | str:
    """Check the context variables of ``seq`` past ``n_ctx`` and its
    hypotheses past ``n_hyps``, the first ones being those of a well-formed
    context ``below``; returns ``seq``'s context as a dict, or what is wrong."""
    ctx = below
    if len(seq.ctx) > n_ctx:
        ctx = ctxs.get(id(seq.ctx))
        if ctx is None:
            ctx = dict(below)
            for v, s in seq.ctx[n_ctx:]:
                if v in ctx:
                    return "repeated context variable"
                ctx[v] = s
    for i in range(n_hyps, len(seq.hyps)):
        if err := _check_formula(system, known, seq.hyps[i], ctx, cache):
            return f"hypothesis {i}: {err}"
    return ctx


def _check_pair(system: CyclicSystem, known: frozenset[str], seq: Sequent,
                cache: dict[int, _Summary], ctxs: dict[int, dict[str, str]]) -> dict[str, str] | str:
    """Check the context and hypotheses of ``seq`` in full."""
    return _check_past(system, known, seq, 0, 0, {}, cache, ctxs)


def _same(a: Sequent, b: Sequent) -> bool:
    return (a.ctx is b.ctx or a.ctx == b.ctx) and (a.hyps is b.hyps or a.hyps == b.hyps)


# ``term(p, t, d)`` says whether the target term ``t`` is the image of the
# pattern term ``p`` under ``d`` binders
_TermMatch = Callable[[Term, Term, int], bool]


def _matches(pat: Formula, tgt: Formula, term: _TermMatch, depth: int = 0) -> bool:
    """Whether ``tgt`` is ``pat`` with its terms mapped as ``term`` says: the
    answer ``==`` gives on the mapped copy (hints aside), in one walk that
    builds nothing."""
    cls = pat.__class__
    if tgt.__class__ is not cls:
        return False
    if cls is Atom:
        if pat.judg != tgt.judg or len(pat.args) != len(tgt.args):
            return False
        for p, t in zip(pat.args, tgt.args):
            if not term(p, t, depth):
                return False
        return True
    if cls is Geq or cls is Gt:
        return (pat.sort == tgt.sort and term(pat.left, tgt.left, depth)
                and term(pat.right, tgt.right, depth))
    if cls is Imp:
        return _matches(pat.lhs, tgt.lhs, term, depth) and _matches(pat.rhs, tgt.rhs, term, depth)
    if cls is Forall:
        return pat.sort == tgt.sort and _matches(pat.body, tgt.body, term, depth + 1)
    return False


def _opening(name: str) -> _TermMatch:
    """Matches the opening of a quantifier body at the variable ``name``: its
    own index becomes ``name``, and the indices of outer binders drop by one."""
    def term(p: Term, t: Term, d: int) -> bool:
        if p.__class__ is BoundV and p.k >= d:
            if p.k == d:
                return t.__class__ is FreeV and t.name == name
            return t.__class__ is BoundV and t.k == p.k - 1
        return p is t or p == t
    return term


def _renaming(sub: dict[str, str]) -> _TermMatch:
    """Matches the renaming of free variables by ``sub``."""
    def term(p: Term, t: Term, _d: int) -> bool:
        if p.__class__ is FreeV and p.name in sub:
            return t.__class__ is FreeV and t.name == sub[p.name]
        return p is t or p == t
    return term


# Each rule's shape: its premise count (None where the rule counts its own
# premises from its data), whether it reads rule data, the premise whose
# conclusion enters and the premise whose pair enters (see ``check_proof``).
_RULES: dict[str, tuple[int | None, bool, int | None, int | None]] = {
    "assumption": (0, True, None, None),
    "inst": (None, True, 0, 0),
    "imp_intro": (1, False, None, None),
    "imp_elim": (2, False, 1, None),
    "forall_intro": (1, False, None, None),
    "forall_elim": (1, True, None, None),
    "geq_refl": (0, False, None, None),
    "trans": (2, False, 0, None),
    "geq_subsum": (1, False, None, None),
    "gt_ind": (1, False, None, None),
    "c_rule": (None, True, None, None),
}


def _check_node(system: CyclicSystem, d: Deriv) -> str | None:
    seq, kids, r = d.seq, d.children, d.rule
    if r not in _RULES:
        return f"unknown rule {r!r}"
    n, reads_data, _concl, _pair = _RULES[r]
    if d.data and not reads_data:
        return f"{r} takes no rule data, got {list(d.data)!r}"
    if n is not None and len(kids) != n:
        return f"{r} expects {n} premises, got {len(kids)}"
    if r == "assumption":
        if len(d.data) != 1 or type(d.data[0]) is not int:
            return "assumption needs one integer hypothesis position"
        (k,) = d.data
        if not 0 <= k < len(seq.hyps):
            return f"assumption position {k} out of range for {len(seq.hyps)} hypotheses"
        if seq.concl != seq.hyps[k]:
            return f"assumption conclusion is not hypothesis {k}"
        return None
    if r == "inst":
        if not kids:
            return "inst expects a premise"
        p = kids[0].seq
        if len(d.data) != len(p.ctx) or not all(isinstance(y, str) for y in d.data):
            return f"inst needs one target variable per premise context entry ({len(p.ctx)})"
        ctx = dict(seq.ctx)
        for (v, s), y in zip(p.ctx, d.data):
            ys = ctx.get(y)
            if ys is None:
                return f"inst target {y!r} for {v!r} not in context"
            if ys != s:
                return f"inst target {y!r} has sort {ys!r}, expected {s!r}"
        if len(kids) != 1 + len(p.hyps):
            return f"inst expects {len(p.hyps)} minor premises, got {len(kids) - 1}"
        sub = {v: y for (v, _s), y in zip(p.ctx, d.data) if v != y}
        renamed = _renaming(sub)
        if not (_matches(p.concl, seq.concl, renamed) if sub else seq.concl == p.concl):
            return "inst conclusion is not the renamed premise conclusion"
        for i, kid in enumerate(kids[1:]):
            if not _same(seq, kid.seq):
                return f"inst minor {i} must share the sequent context and hypotheses"
            if not (_matches(p.hyps[i], kid.seq.concl, renamed) if sub else kid.seq.concl == p.hyps[i]):
                return f"inst minor {i} must conclude renamed premise hypothesis {i}"
        return None
    if r == "imp_intro":
        p = kids[0].seq
        if not isinstance(seq.concl, Imp):
            return "imp_intro conclusion must be an implication"
        if p.hyps != seq.hyps + (seq.concl.lhs,) or p.concl != seq.concl.rhs:
            return "imp_intro premise must move the antecedent into the hypotheses"
        if seq.ctx != p.ctx:
            return "imp_intro must preserve context"
        return None
    if r == "imp_elim":
        maj, mnr = kids[0].seq, kids[1].seq
        if not (_same(seq, maj) and _same(seq, mnr)):
            return "imp_elim premises must share the sequent context and hypotheses"
        if maj.concl != Imp(mnr.concl, seq.concl):
            return "imp_elim major premise must be minor -> conclusion"
        return None
    if r == "forall_intro":
        p = kids[0].seq
        if len(p.ctx) != len(seq.ctx) + 1 or p.ctx[:-1] != seq.ctx:
            return "forall_intro premise must extend the context by one variable"
        x, s = p.ctx[-1]
        if not isinstance(seq.concl, Forall) or seq.concl.sort != s:
            return "forall_intro conclusion must quantify at the bound variable's sort"
        if p.hyps != seq.hyps:
            return "forall_intro must preserve hypotheses"
        if not _matches(seq.concl.body, p.concl, _opening(x)):  # see check_proof
            return "forall_intro conclusion body does not match the premise"
        return None
    if r == "forall_elim":
        if len(d.data) != 1 or not isinstance(d.data[0], str):
            return "forall_elim needs one target variable"
        (y,) = d.data
        p = kids[0].seq
        if not _same(seq, p):
            return "forall_elim must preserve context and hypotheses"
        if not isinstance(p.concl, Forall):
            return "forall_elim premise must conclude a quantified formula"
        try:
            s = seq.sort_of(y)
        except KeyError:
            return f"forall_elim target {y!r} not in context"
        if s != p.concl.sort:
            return f"forall_elim target has sort {s!r}, expected {p.concl.sort!r}"
        if not _matches(p.concl.body, seq.concl, _opening(y)):
            return "forall_elim conclusion is not the instantiated body"
        return None
    if r == "geq_refl":
        c = seq.concl
        if not isinstance(c, Geq) or c.left != c.right or not isinstance(c.left, FreeV):
            return "geq_refl concludes x >= x for a context variable"
        try:
            s = seq.sort_of(c.left.name)
        except KeyError:
            return "geq_refl variable not in context"
        if s != c.sort:
            return "geq_refl sort mismatch"
        return None
    if r == "trans":
        a, b = kids[0].seq.concl, kids[1].seq.concl
        if not (_same(seq, kids[0].seq) and _same(seq, kids[1].seq)):
            return "trans premises must share the sequent context and hypotheses"
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
        p = kids[0].seq
        if not _same(seq, p):
            return "geq_subsum must preserve context and hypotheses"
        if not isinstance(p.concl, Gt) or seq.concl != Geq(p.concl.sort, p.concl.left, p.concl.right):
            return "geq_subsum conclusion must weaken the premise"
        return None
    if r == "gt_ind":
        p = kids[0].seq
        if not isinstance(seq.concl, Forall):
            return "gt_ind conclusion must be quantified"
        sort = seq.concl.sort
        if sort not in system.ind_sorts:
            return f"gt_ind at non-inductive sort {sort!r}"
        if len(p.ctx) != len(seq.ctx) + 1 or p.ctx[:-1] != seq.ctx:
            return "gt_ind premise must extend the context by the induction variable"
        x, s = p.ctx[-1]
        if s != sort:
            return "gt_ind variable sort mismatch"
        body = seq.concl.body
        if p.hyps != seq.hyps + (gt_ind_hypothesis(sort, x, body),):
            return "gt_ind premise must carry the induction hypothesis"
        if not _matches(body, p.concl, _opening(x)):
            return "gt_ind premise conclusion does not open the quantified body"
        return None
    # c_rule
    if len(d.data) != 1 or not isinstance(d.data[0], str):
        return "c_rule needs one rule scheme id"
    (rid,) = d.data
    scheme = system.rules.get(rid)
    if scheme is None:
        return f"unknown rule scheme {rid!r}"
    # the kernel does not rely on validate_system: the scheme must fit
    judg = system.judgments.get(scheme.conclusion)
    prems = [system.judgments.get(j) for j in scheme.premises]
    if judg is None or any(q is None or (g.src_arity, g.dst_arity) != (judg.ob, q.ob)
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
    for i, kid in enumerate(kids):
        p = kid.seq
        prem = prems[i]
        if len(p.ctx) != len(seq.ctx) + prem.ob or p.ctx[: len(seq.ctx)] != seq.ctx:
            return f"premise {i} must extend the context by {prem.ob} fresh variables"
        ys = p.ctx[len(seq.ctx):]
        for j, (yv, ysort) in enumerate(ys):
            if ysort != prem.sorts[j]:
                return f"premise {i}: variable {j} has sort {ysort!r}, expected {prem.sorts[j]!r}"
        names = tuple(y for y, _ in ys)
        if p.hyps != seq.hyps + edge_facts(judg.sorts, scheme.graphs[i], xs, names):
            return f"premise {i} must extend the hypotheses by the edge facts"
        if p.concl != Atom(prem.id, tuple(map(FreeV, names))):
            return f"premise {i} must conclude {prem.id} at the fresh variables"
    return None


def _path(link: tuple | None) -> tuple[int, ...]:
    # a link is (the parent's link, child index), None at the root
    steps: list[int] = []
    while link is not None:
        link, i = link
        steps.append(i)
    return tuple(reversed(steps))


def check_proof(system: CyclicSystem, root: Deriv) -> None:
    """Verify a derivation; raises :class:`LogicError` locating the first defect.

    Each part of a sequent is checked for well formedness where it enters the
    proof.  A context and hypothesis list enter at the root and at ``inst``'s
    premise 0 (an arbitrary sequent), where they are checked in full: distinct
    context variables of known sorts, and hypotheses well formed over them.
    Every other rule compares its premises' contexts and hypotheses, by value,
    with extensions of its own, so there only the added entries are checked:
    the new context variables of ``forall_intro``, ``gt_ind`` and ``c_rule``
    (distinct from each other and from the context below, of known sorts) and
    the new hypotheses of ``imp_intro``, ``gt_ind`` and ``c_rule``.

    A conclusion enters at the root, at ``inst``'s premise 0, at
    ``imp_elim``'s minor (its conclusion ``A`` is the new antecedent) and at
    ``trans``'s left premise (its right end is the new middle term).  Every
    other premise conclusion is built by its rule from well-formed parts, so
    it is well formed once the rule's check passes below it:

    - ``imp_intro``: the consequent of the conclusion;
    - ``forall_intro``, ``gt_ind``: the conclusion's body opened at the
      premise's new context variable, of the binder's sort;
    - ``forall_elim``: the premise's body opened at a context variable of the
      binder's sort is the conclusion;
    - ``geq_subsum``: the conclusion's terms and sort under ``>``;
    - ``c_rule``: an atom of the premise judgment at its new context
      variables, of the judgment's sorts;
    - ``inst`` minors: premise 0's hypotheses (checked at premise 0) renamed
      to context variables of the same sorts;
    - ``imp_elim`` major: the minor's conclusion implies the conclusion;
    - ``trans`` right premise: the left premise's right end, related to the
      conclusion's right end at the conclusion's sort.

    An instance is matched against its pattern (:func:`_matches`), never
    built.  ``forall_intro`` matches the premise's conclusion against the
    conclusion's body opened at the premise's new variable.  That is exact,
    the same as closing the premise's conclusion over the variable, because
    the variable is fresh: the premise's check finds it outside the context
    below, which holds every free variable of the body.

    A node shared by several parents is checked once, at the first path that
    reaches it, with its pair and conclusion checked as that path enters
    there; any one parent's rule check is enough, whichever comes first.  So
    the cost is per distinct node, plus a full check per distinct entering
    ``(ctx, hyps)`` pair and a conclusion per entering node, all by object
    identity.  The proof keeps these immutable objects alive for the whole
    call, so ``id`` keys are exact.  A failure's path is rebuilt from parent
    links only when it is raised.
    """
    cache: dict[int, _Summary] = {}
    ctxs: dict[int, dict[str, str]] = {}
    pairs: dict[tuple[int, int], dict[str, str] | str] = {}
    # a context or quantifier uses only sorts that a judgment takes or induction
    # runs over
    known = system.ind_sorts.union(*(j.sorts for j in system.judgments.values()))
    seen: set[int] = set()
    # each entry: a node, its link, whether its conclusion enters, and, when
    # its pair does not enter, the sizes and context of the pair below it
    stack: list[tuple[Deriv, tuple | None, bool, tuple | None]] = [(root, None, True, None)]
    while stack:
        node, link, enters, prefix = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        seq = node.seq
        if prefix is None:
            pair = (id(seq.ctx), id(seq.hyps))
            ctx = pairs.get(pair)
            if ctx is None:
                ctx = pairs[pair] = _check_pair(system, known, seq, cache, ctxs)
        else:
            ctx = _check_past(system, known, seq, *prefix, cache, ctxs)
        if isinstance(ctx, str):
            err = ctx
        elif enters and (err := _check_formula(system, known, seq.concl, ctx, cache)):
            err = f"conclusion: {err}"
        else:
            err = _check_node(system, node)
        if err is None and id(seq.ctx) not in ctxs:
            ctxs[id(seq.ctx)] = ctx
            err = next((f"variable {v!r} has unknown sort {s!r}"
                        for v, s in seq.ctx[0 if prefix is None else prefix[0]:] if s not in known), None)
        if err is not None:
            raise LogicError(err, _path(link))
        kids = node.children
        _n, _data, concl_entry, pair_entry = _RULES[node.rule]
        prefix = (len(seq.ctx), len(seq.hyps), ctx)
        for i in reversed(range(len(kids))):
            stack.append((kids[i], (link, i), i == concl_entry, None if i == pair_entry else prefix))


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
