"""Untrusted builders of kernel derivations, and the strong induction macro.

Every function here only constructs a candidate :class:`~cycind.logic.Deriv`;
:func:`cycind.logic.check_proof` alone decides whether it is valid.  The
rule builders take premises and compute the conclusion their kernel rule
demands.  The derived strong induction principle (inducting on an entire
sequent rather than a single formula) is a macro: :func:`ind_prime`
discharges an induction hypothesis made by :func:`ind_hypothesis` with kernel
rules only.  The term maps that build instances (:func:`subst_free`,
:func:`open_bound`, :func:`close_free`) live here too: the kernel compares an
instance with its pattern without building it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .core import CyclicSystem
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
    gt_ind_hypothesis,
)


# ---------------------------------------------------------------------------
# Formula helpers
# ---------------------------------------------------------------------------

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


def open_bound(body: Formula, name: str) -> Formula:
    """Instantiate the outermost binder of a quantifier body with a free variable."""
    def f(t: Term, d: int) -> Term:
        if isinstance(t, BoundV):
            if t.k == d:
                return FreeV(name)
            if t.k > d:
                return BoundV(t.k - 1)
        return t
    return _map_terms(body, f)


def close_free(phi: Formula, name: str) -> Formula:
    """Abstract a free variable into the outermost binder position."""
    def f(t: Term, d: int) -> Term:
        if isinstance(t, FreeV) and t.name == name:
            return BoundV(d)
        if isinstance(t, BoundV) and t.k >= d:
            return BoundV(t.k + 1)
        return t
    return _map_terms(phi, f)


def free_vars(phi: Formula) -> set[str]:
    out: set[str] = set()
    def f(t: Term, _d: int) -> Term:
        if isinstance(t, FreeV):
            out.add(t.name)
        return t
    _map_terms(phi, f)
    return out


def fold_imp(hyps: Iterable[Formula], concl: Formula) -> Formula:
    acc = concl
    for phi in reversed(tuple(hyps)):
        acc = Imp(phi, acc)
    return acc


def peel_forall(phi: Formula) -> tuple[list[tuple[str, str]], Formula]:
    """Strip leading quantifiers; returns [(sort, hint)] and the raw body."""
    binders: list[tuple[str, str]] = []
    while isinstance(phi, Forall):
        binders.append((phi.sort, phi.hint))
        phi = phi.body
    return binders, phi


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


def forall_intro(d: Deriv) -> Deriv:
    s = d.seq
    x, sort = s.ctx[-1]
    body = close_free(s.concl, x)
    return Deriv("forall_intro", Sequent(s.ctx[:-1], s.hyps, Forall(sort, body, hint=x)), (d,))


def forall_elim(d: Deriv, y: str) -> Deriv:
    s = d.seq
    assert isinstance(s.concl, Forall)
    return Deriv("forall_elim", Sequent(s.ctx, s.hyps, open_bound(s.concl.body, y)), (d,), (y,))


def geq_refl(ctx: tuple[tuple[str, str], ...], hyps: tuple[Formula, ...], sort: str, y: str) -> Deriv:
    return Deriv("geq_refl", Sequent(ctx, hyps, Geq(sort, FreeV(y), FreeV(y))))


def trans(a: Deriv, b: Deriv) -> Deriv:
    """Chain ``l R m`` and ``m R' r``: ``l > r`` if either premise is ``>``."""
    s, left, right = a.seq, a.seq.concl, b.seq.concl
    kind = Gt if isinstance(left, Gt) or isinstance(right, Gt) else Geq
    return Deriv("trans", Sequent(s.ctx, s.hyps, kind(left.sort, left.left, right.right)), (a, b))


def geq_subsum(d: Deriv) -> Deriv:
    s = d.seq
    return Deriv("geq_subsum", Sequent(s.ctx, s.hyps, Geq(s.concl.sort, s.concl.left, s.concl.right)), (d,))


def gt_ind(d: Deriv) -> Deriv:
    s = d.seq
    x, sort = s.ctx[-1]
    body = close_free(s.concl, x)
    ih = gt_ind_hypothesis(sort, x, body)
    assert s.hyps and s.hyps[-1] == ih, "gt_ind builder: last hypothesis is not the induction hypothesis"
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


def forall_elims(d: Deriv, ys: Iterable[str]) -> Deriv:
    for y in ys:
        d = forall_elim(d, y)
    return d


# ---------------------------------------------------------------------------
# Induction hypotheses and the strong induction macro
# ---------------------------------------------------------------------------

def ind_block(target: Sequent, x: str) -> list[tuple[str, str]]:
    """The quantifier block of the induction hypothesis for ``target`` and ``x``:
    the context variables free in the sequent formula (plus ``x``), in context
    order, with their sorts."""
    chain = fold_imp(target.hyps, target.concl)
    fv = free_vars(chain) | {x}
    return [(v, s) for v, s in target.ctx if v in fv]


def ind_hypothesis(target: Sequent, x: str) -> Formula:
    """The induction hypothesis for inducting on ``x`` over a whole sequent.

    Universally closes the sequent formula over the context variables that
    occur free in it (plus ``x``), in context order, guarding with
    ``x > x-copy``: the result only has ``x`` free.
    """
    sort = dict(target.ctx)[x]
    chain = fold_imp(target.hyps, target.concl)
    block = ind_block(target, x)
    avoid = {v for v, _s in target.ctx}
    temps: dict[str, str] = {}
    for v, _s in block:
        temps[v] = fresh_name(f"{v}'", avoid)
        avoid.add(temps[v])
    phi: Formula = Imp(Gt(sort, FreeV(x), FreeV(temps[x])), subst_free(chain, temps))
    for v, s in reversed(block):
        phi = Forall(s, close_free(phi, temps[v]), hint=f"{v}'")
    return phi


def ind_prime(dp: Deriv, x: str) -> Deriv:
    """Strong induction on ``x`` over a whole sequent: discharge the last
    hypothesis of ``dp``, which must be :func:`ind_hypothesis` of the rest of
    ``dp``'s sequent.

    Uses one ``gt_ind`` plus implication/quantifier bookkeeping: the sequent
    formula is universally closed, proved by well-founded induction on a fresh
    copy of ``x`` (one ``inst`` node renames ``dp`` onto the copies and
    discharges its hypotheses; ``dp`` itself is shared, never rebuilt), and
    then instantiated back at the original variables.
    """
    ctx, gamma, delta = dp.seq.ctx, dp.seq.hyps[:-1], dp.seq.concl
    target = Sequent(ctx, gamma, delta)
    sort = dict(ctx)[x]
    avoid = {v for v, _s in ctx}
    u = fresh_name("u", avoid)
    avoid.add(u)
    others = [(v, s) for v, s in ctx if v != x]
    copies = {}
    for v, _s in others:
        copies[v] = fresh_name(f"{v}*", avoid)
        avoid.add(copies[v])
    sub = {x: u, **copies}
    wide = ctx + ((u, sort),) + tuple((copies[v], s) for v, s in others)

    # the closed sequent formula, as a function of u
    phi_u = subst_free(fold_imp(gamma, delta), sub)
    for v, s in reversed(others):
        phi_u = Forall(s, close_free(phi_u, copies[v]), hint=f"{v}*")
    ih_u = gt_ind_hypothesis(sort, u, close_free(phi_u, u))

    core_hyps = gamma + (ih_u,) + tuple(subst_free(g, sub) for g in gamma)

    # H[u/x] from the kernel induction hypothesis, by pure plumbing
    block = ind_block(target, x)
    ts = {}
    for v, _s in block:
        ts[v] = fresh_name(f"{v}^", avoid)
        avoid.add(ts[v])
    inner_ctx = wide + tuple((ts[v], s) for v, s in block)
    guard = Gt(sort, FreeV(u), FreeV(ts[x]))
    inner_hyps = core_hyps + (guard,)
    a = assumption(inner_ctx, inner_hyps, len(gamma))  # ih_u
    a = forall_elim(a, ts[x])
    g = assumption(inner_ctx, inner_hyps, len(inner_hyps) - 1)
    a = imp_elim(a, g)  # phi at ts[x]
    a = forall_elims(a, [ts[v] if v in ts else copies[v] for v, _s in others])
    a = imp_intro(a)
    for _v, _s in reversed(block):
        a = forall_intro(a)
    assert dp.seq.hyps and a.seq.concl == subst_free(dp.seq.hyps[-1], {x: u}), (
        "ind_prime: last hypothesis is not the induction hypothesis"
    )

    # dp renamed onto the copies, its hypotheses discharged by them and H[u/x]
    copied = [assumption(wide, core_hyps, len(gamma) + 1 + i) for i in range(len(gamma))]
    d = inst(dp, core_hyps, copied + [a], sub, wide)

    # close over the copies and induct
    for _ in range(len(gamma)):
        d = imp_intro(d)
    for _v, _s in reversed(others):
        d = forall_intro(d)
    d = gt_ind(d)

    # instantiate back at the original variables and discharge
    d = forall_elim(d, x)
    d = forall_elims(d, [v for v, _s in others])
    for i in range(len(gamma)):
        d = imp_elim(d, assumption(ctx, gamma, i))
    assert d.seq == target
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

    ``hyp`` must be an induction hypothesis: a quantifier block over a guard
    ``w > copy`` with ``w`` its only free variable.  ``geq_fact`` must produce
    a derivation of ``w >= y`` over any extension of the given sequent.
    """
    (w,) = free_vars(hyp)
    binders, body = peel_forall(hyp)
    assert isinstance(body, Imp) and isinstance(body.lhs, Gt) and body.lhs.left == FreeV(w)
    sort = body.lhs.sort
    avoid = {v for v, _s in ctx}
    ts = []
    for bsort, hint in binders:
        t = fresh_name(hint.rstrip("'") + "^", avoid)
        avoid.add(t)
        ts.append((t, bsort))
    inner_ctx = ctx + tuple(ts)
    opened = hyp
    for t, _s in ts:
        opened = open_bound(opened.body, t)  # type: ignore[union-attr]
    assert isinstance(opened, Imp)
    guard_ix = opened.lhs  # w > t_x
    assert isinstance(guard_ix, Gt)
    tx = guard_ix.right
    assert isinstance(tx, FreeV)
    new_guard = Gt(sort, FreeV(y), tx)
    inner_hyps = hyps + (new_guard,)
    a = assumption(inner_ctx, inner_hyps, hyp_index)
    a = forall_elims(a, [t for t, _s in ts])
    wy = geq_fact(inner_ctx, inner_hyps)
    yg = assumption(inner_ctx, inner_hyps, len(inner_hyps) - 1)
    a = imp_elim(a, trans(wy, yg))
    a = imp_intro(a)
    for _ in ts:
        a = forall_intro(a)
    assert a.seq.concl == subst_free(hyp, {w: y})
    return a
