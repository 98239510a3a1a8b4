"""Untrusted builders of kernel derivations, and the strong induction macro.

Every function here only constructs a candidate :class:`~cycind.logic.Deriv`;
:func:`cycind.logic.check_proof` alone decides whether it is valid.  The
rule builders take premises and compute the conclusion their kernel rule
demands, or, for ``trans``, take its object from a caller that holds it;
:func:`forall_intro` and :func:`forall_elim` close or open a whole block of
binders in one node and one term-map walk.  The derived strong
induction principle (inducting on an entire sequent rather than a single
formula) is a macro of kernel rules only.  :func:`ind_hypothesis` gives its
hypothesis the exact shape of the one that ``gt_ind`` introduces,
``all x'. x > x' -> all ys'. chain`` (:func:`gt_ind_hypothesis`), closing
``x`` and all of ``ys`` in one term walk, so :func:`ind_prime` discharges it
by one ``assumption`` of the hypothesis that its own ``gt_ind`` introduces.
No walk renames or reopens what the macro holds: it builds that hypothesis
around its premise's own closed body, the :func:`gt_ind` builder takes its
conclusion's body from it, and the instance that closes the macro is the
premise's own formulas.  The formulas that the kernel compares in place
(:func:`gt_ind_hypothesis`, :func:`edge_facts`) and the term maps that build
instances (:func:`subst_free`, :func:`open_bound`, :func:`close_free`) live
here too: the kernel builds no formula.  The builders make one bound-term
object per index, so equal bound terms are one object.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Mapping

from .core import GT, CyclicSystem, SizeChangeGraph
from .logic import (
    Atom,
    BoundV,
    Deriv,
    Forall,
    Formula,
    FreeV,
    Geq,
    Gt,
    Imp,
    Sequent,
    Term,
    fresh_name,
)


# ---------------------------------------------------------------------------
# Formula helpers
# ---------------------------------------------------------------------------

# One bound-term object per index, so the kernel's matcher finds two equal
# bound terms identical and compares neither by value.
_bound = cache(BoundV)


def _map_terms(phi: Formula, f: Callable[[Term, int], Term], depth: int = 0) -> Formula:
    # Returns ``phi`` itself when nothing changes, so untouched subtrees stay
    # shared between input and output.
    if isinstance(phi, Atom):
        args = tuple(f(t, depth) for t in phi.args)
        return phi if args == phi.args else Atom(phi.judg, args)
    if isinstance(phi, Geq):
        left, right = f(phi.left, depth), f(phi.right, depth)
        return phi if left is phi.left and right is phi.right else Geq(phi.sort, left, right)
    if isinstance(phi, Gt):
        left, right = f(phi.left, depth), f(phi.right, depth)
        return phi if left is phi.left and right is phi.right else Gt(phi.sort, left, right)
    if isinstance(phi, Imp):
        lhs = _map_terms(phi.lhs, f, depth)
        rhs = _map_terms(phi.rhs, f, depth)
        return phi if lhs is phi.lhs and rhs is phi.rhs else Imp(lhs, rhs)
    if isinstance(phi, Forall):
        body = _map_terms(phi.body, f, depth + 1)
        return phi if body is phi.body else Forall(phi.sort, body, hint=phi.hint)
    raise TypeError(f"not a formula: {phi!r}")


def subst_free(phi: Formula, sub: Mapping[str, str]) -> Formula:
    """Rename free variables; bound variables are indices, so no capture."""
    def f(t: Term, _d: int) -> Term:
        if isinstance(t, FreeV) and t.name in sub:
            return FreeV(sub[t.name])
        return t
    return _map_terms(phi, f)


def open_bound(body: Formula, names: tuple[str, ...]) -> Formula:
    """Instantiate the body under ``len(names)`` binders at the free
    variables ``names``, outermost binder first."""
    k = len(names)

    def f(t: Term, d: int) -> Term:
        if isinstance(t, BoundV) and t.k >= d:
            return FreeV(names[d - t.k - 1]) if t.k - d < k else _bound(t.k - k)
        return t
    return _map_terms(body, f)


def close_free(phi: Formula, names: tuple[str, ...]) -> Formula:
    """Abstract the distinct free variables ``names`` into the positions of
    ``len(names)`` binders, outermost binder first: the inverse of
    :func:`open_bound`."""
    k, index = len(names), {v: i for i, v in enumerate(names)}

    def f(t: Term, d: int) -> Term:
        if isinstance(t, FreeV) and t.name in index:
            return _bound(d + k - 1 - index[t.name])
        if isinstance(t, BoundV) and t.k >= d:
            return _bound(t.k + k)
        return t
    return _map_terms(phi, f)


def fold_imp(hyps: Iterable[Formula], concl: Formula) -> Formula:
    acc = concl
    for phi in reversed(tuple(hyps)):
        acc = Imp(phi, acc)
    return acc


def ordered(sort: str, label: str, left: Term, right: Term) -> Formula:
    return Gt(sort, left, right) if label == GT else Geq(sort, left, right)


def gt_ind_hypothesis(sort: str, x: str, body: Formula) -> Formula:
    """The hypothesis ``gt_ind`` adds when it inducts on ``x`` to conclude
    ``all x. body``: ``all x'. x > x' -> body``."""
    return Forall(sort, Imp(Gt(sort, FreeV(x), _bound(0)), body), hint=f"{x}'")


def _gt_ind_body(h: Formula, x: str) -> Formula:
    """The body ``B`` of ``h``, which must have the shape of the hypothesis
    ``gt_ind`` adds when it inducts on ``x``, ``all x'. x > x' -> B``
    (:func:`gt_ind_hypothesis`).  Only the shape is checked, not ``B``."""
    i = h.body if isinstance(h, Forall) else None
    g = i.lhs if isinstance(i, Imp) else None
    assert (isinstance(g, Gt) and isinstance(g.left, FreeV) and g.left.name == x
            and isinstance(g.right, BoundV) and g.right.k == 0), \
        "last hypothesis is not the induction hypothesis"
    return i.rhs


def edge_facts(
    sorts: tuple[str, ...], graph: SizeChangeGraph, xs: tuple[str, ...], ys: tuple[str, ...]
) -> tuple[Formula, ...]:
    """The hypotheses ``c_rule`` adds to a premise: one order per edge of the
    premise's size-change graph, from the conclusion's variables ``xs`` (of
    ``sorts``) to the premise's fresh variables ``ys``."""
    return tuple(ordered(sorts[a], lab, FreeV(xs[a]), FreeV(ys[b]))
                 for a, b, lab in graph.sorted_edges())


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def imp_intro(d: Deriv) -> Deriv:
    s = d.seq
    return Deriv("imp_intro", Sequent(s.ctx, s.hyps[:-1], Imp(s.hyps[-1], s.concl)), (d,))


def imp_elim(major: Deriv, minor: Deriv) -> Deriv:
    s = major.seq
    assert isinstance(s.concl, Imp)
    return Deriv("imp_elim", Sequent(s.ctx, s.hyps, s.concl.rhs), (major, minor))


def forall_intro(d: Deriv, k: int) -> Deriv:
    """Close over the last ``k`` context variables in one node."""
    assert k >= 1
    s, block = d.seq, d.seq.ctx[-k:]
    concl = close_free(s.concl, tuple(v for v, _s in block))
    for v, sort in reversed(block):
        concl = Forall(sort, concl, hint=v)
    return Deriv("forall_intro", Sequent(s.ctx[:-k], s.hyps, concl), (d,))


def forall_elim(d: Deriv, ys: tuple[str, ...]) -> Deriv:
    """Instantiate the outermost ``len(ys)`` binders at ``ys`` in one node."""
    s = d.seq
    body = s.concl
    for _y in ys:
        assert isinstance(body, Forall)
        body = body.body
    return Deriv("forall_elim", Sequent(s.ctx, s.hyps, open_bound(body, ys)), (d,), ys)


def trans(ctx: tuple[tuple[str, str], ...], hyps: tuple[Formula, ...], concl: Formula,
          *premises: Deriv) -> Deriv:
    """Conclude the order ``concl`` on ``ctx; hyps`` from a chain of 0 to 2
    order ``premises``.  The caller passes the object it holds, so the
    kernel finds it identical to the fact it proves."""
    return Deriv("trans", Sequent(ctx, hyps, concl), premises)


def gt_ind(d: Deriv) -> Deriv:
    """Induct on ``d``'s last context variable ``x``, discharging its last
    hypothesis ``all x'. x > x' -> B``, to conclude ``all x. B``.  ``B`` is
    the hypothesis's own object, no walk closes ``d``'s conclusion over
    ``x``, and nothing here compares the two: :func:`cycind.logic.check_proof`
    alone judges whether that conclusion opens ``B``."""
    s = d.seq
    x, sort = s.ctx[-1]
    body = _gt_ind_body(s.hyps[-1] if s.hyps else None, x)
    return Deriv("gt_ind", Sequent(s.ctx[:-1], s.hyps[:-1], Forall(sort, body, hint=x)), (d,))


def c_apply(system: CyclicSystem, rid: str, ctx, hyps, args: tuple[str, ...], children: tuple[Deriv, ...]) -> Deriv:
    scheme = system.rules[rid]
    concl = Atom(scheme.conclusion, tuple(FreeV(a) for a in args))
    return Deriv("c_rule", Sequent(ctx, hyps, concl), children, (rid,))


def assumption(ctx: tuple[tuple[str, str], ...], hyps: tuple[Formula, ...], k: int) -> Deriv:
    """Conclude hypothesis ``k`` of ``hyps``: one ``assumption`` node."""
    return Deriv("assumption", Sequent(ctx, hyps, hyps[k]), (), (k,))


def inst(
    d: Deriv,
    hyps: tuple[Formula, ...],
    minors: Iterable[Deriv],
    sub: Mapping[str, str] | None = None,
    ctx: tuple[tuple[str, str], ...] | None = None,
) -> Deriv:
    """Move ``d`` onto ``ctx; hyps`` in one node: ``sub`` renames every
    context variable of ``d`` (no renaming by default; ``ctx`` defaults to
    ``d``'s own), and ``minors`` derive ``d``'s renamed hypotheses from
    ``hyps``."""
    s = d.seq
    names = tuple(v for v, _s in s.ctx)
    targets = names if sub is None else tuple(sub[v] for v in names)
    concl = s.concl if sub is None else subst_free(s.concl, sub)
    return Deriv("inst", Sequent(s.ctx if ctx is None else ctx, hyps, concl), (d, *minors), targets)


# ---------------------------------------------------------------------------
# Induction hypotheses and the strong induction macro
# ---------------------------------------------------------------------------

def ind_hypothesis(target: Sequent, x: str) -> Formula:
    """The induction hypothesis for inducting on ``x`` over a whole sequent,
    in the shape that ``gt_ind`` introduces (:func:`gt_ind_hypothesis`):
    ``all x'. x > x' -> all ys'. chain``, where ``chain`` is the sequent
    formula and ``ys`` are the other context variables, in context order.
    Only ``x`` is free in it.  One :func:`close_free` walk abstracts ``x``
    and all of ``ys`` at once; the binders are wrapped around the result.
    """
    ys = tuple((v, s) for v, s in target.ctx if v != x)
    body = close_free(fold_imp(target.hyps, target.concl), (x, *(v for v, _s in ys)))
    for v, s in reversed(ys):
        body = Forall(s, body, hint=f"{v}'")
    return gt_ind_hypothesis(dict(target.ctx)[x], x, body)


def ind_prime(dp: Deriv, x: str) -> Deriv:
    """Strong induction on ``x`` over a whole sequent: discharge the last
    hypothesis of ``dp``, which must be :func:`ind_hypothesis` of the rest of
    ``dp``'s sequent.

    Uses one ``gt_ind`` plus implication/quantifier bookkeeping: the sequent
    formula is universally closed over the context variables but ``x``, by
    one ``forall_intro``, and proved by well-founded induction on a fresh
    copy ``u`` of ``x``.  The copy of each other variable ``v`` is named
    ``v'``, as the hypothesis names its binder, so the ``gt_ind`` builder
    takes the hypothesis's body as it is.  One ``inst`` node renames ``dp``
    onto the copies and discharges its hypotheses: the copies of the others
    by ``assumption``, and the induction hypothesis by the one ``gt_ind``
    introduces for ``u``, which is its renamed copy.  Only ``x`` is free in the hypothesis
    ``all x'. x > x' -> B``, so the copy is built around the hypothesis's
    own bound term and closed body ``B``, with no renaming walk; its shape
    is checked first, so a last hypothesis of another shape fails here.
    ``dp`` itself is shared, never rebuilt.  One ``forall_elim`` then
    instantiates the closed formula back at ``x`` and the other original
    variables, concluding the chain of ``dp``'s other hypotheses and its
    conclusion, built from those objects; ``check_proof`` judges that it is
    the instance.  The leaves that discharge the chain share the context
    and hypotheses of that node.
    """
    ih = dp.seq.hyps[-1]
    body, guard = _gt_ind_body(ih, x), ih.body.lhs
    ctx, gamma, delta = dp.seq.ctx, dp.seq.hyps[:-1], dp.seq.concl
    sort = dict(ctx)[x]
    avoid = {v for v, _s in ctx}
    u = fresh_name("u", avoid)
    avoid.add(u)
    others = [(v, s) for v, s in ctx if v != x]
    copies = {}
    for v, _s in others:
        copies[v] = fresh_name(f"{v}'", avoid)
        avoid.add(copies[v])
    sub = {x: u, **copies}
    wide = ctx + ((u, sort),) + tuple((copies[v], s) for v, s in others)

    # the induction hypothesis at u, around its own bound term and closed body
    ih_u = Forall(ih.sort, Imp(Gt(guard.sort, FreeV(u), guard.right), body), hint=ih.hint)
    core_hyps = gamma + (ih_u,) + tuple(subst_free(g, sub) for g in gamma)

    # dp renamed onto the copies, its hypotheses discharged by assumption
    minors = [assumption(wide, core_hyps, len(gamma) + 1 + i) for i in range(len(gamma))]
    d = inst(dp, core_hyps, minors + [assumption(wide, core_hyps, len(gamma))], sub, wide)

    # close over the copies and induct
    for _ in range(len(gamma)):
        d = imp_intro(d)
    if others:
        d = forall_intro(d, len(others))
    d = gt_ind(d)

    # instantiate back at the original variables, whose instance dp holds, and discharge
    below = Sequent(d.seq.ctx, d.seq.hyps, fold_imp(gamma, delta))
    d = Deriv("forall_elim", below, (d,), (x, *(v for v, _s in others)))
    for i in range(len(gamma)):
        d = imp_elim(d, assumption(below.ctx, below.hyps, i))
    assert d.seq == Sequent(ctx, gamma, delta)
    return d


def hyp_monotone(
    hyp: Formula,
    hyp_index: int,
    y: str,
    ctx: tuple[tuple[str, str], ...],
    hyps: tuple[Formula, ...],
    geq_fact: Callable[[tuple[tuple[str, str], ...], tuple[Formula, ...]], Deriv],
) -> Deriv:
    """Derive ``hyp[y/w]`` from ``hyp`` (at ``hyp_index``) and ``w >= y``.

    ``hyp`` must be an induction hypothesis ``all w'. w > w' -> B``
    (:func:`ind_hypothesis`), so ``w`` is its only free variable.  ``geq_fact``
    must produce a derivation of ``w >= y`` over any extension of the given
    sequent.  Under a fresh ``t`` and ``y > t``: ``w > t`` by ``trans``, so
    ``B`` at ``t``; then close over ``y > t`` and ``t``.
    """
    assert isinstance(hyp, Forall) and isinstance(hyp.body, Imp) and isinstance(hyp.body.lhs, Gt)
    sort, w = hyp.sort, hyp.body.lhs.left.name
    t = fresh_name(f"{w}^", {v for v, _s in ctx})
    inner_ctx = ctx + ((t, sort),)
    inner_hyps = hyps + (Gt(sort, FreeV(y), FreeV(t)),)
    a = forall_elim(assumption(inner_ctx, inner_hyps, hyp_index), (t,))
    wt = trans(inner_ctx, inner_hyps, Gt(sort, FreeV(w), FreeV(t)),
               geq_fact(inner_ctx, inner_hyps), assumption(inner_ctx, inner_hyps, len(hyps)))
    a = forall_intro(imp_intro(imp_elim(a, wt)), 1)
    assert a.seq.concl == subst_free(hyp, {w: y})
    return a
