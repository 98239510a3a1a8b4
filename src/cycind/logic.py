"""A small sorted natural-deduction kernel with well-founded order rules.

Formulas are judgment atoms over variables, the two order relations ``>`` and
``>=`` at inductive sorts, implication, and sorted universal quantification
(De Bruijn indices under the binders, named free variables elsewhere).  A
sequent is ``ctx; hyps |- concl`` where ``ctx`` is an *ordered* list of sorted
variables: quantifier rules bind the last context entry, so the context
discipline is part of the proof structure.

The kernel has eleven rules:

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
validity; all builder helpers merely construct candidate derivations.

The derived strong induction principle (inducting on an entire sequent rather
than a single formula) is provided as a macro: :func:`ind_prime` discharges
an induction hypothesis made by :func:`ind_hypothesis` with kernel rules only.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from .core import GT, CyclicSystem, Record, set_field


# ---------------------------------------------------------------------------
# Terms and formulas
# ---------------------------------------------------------------------------

class FreeV(Record):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        set_field(self, "name", name)

    def __str__(self) -> str:
        return self.name


class BoundV(Record):
    __slots__ = ("k",)
    k: int

    def __init__(self, k: int) -> None:
        set_field(self, "k", k)

    def __str__(self) -> str:
        return f"^{self.k}"


Term = FreeV | BoundV


class Atom(Record):
    __slots__ = ("judg", "args")
    judg: str
    args: tuple[Term, ...]

    def __init__(self, judg: str, args: tuple[Term, ...]) -> None:
        set_field(self, "judg", judg)
        set_field(self, "args", args)


class Geq(Record):
    __slots__ = ("sort", "left", "right")
    sort: str
    left: Term
    right: Term

    def __init__(self, sort: str, left: Term, right: Term) -> None:
        set_field(self, "sort", sort)
        set_field(self, "left", left)
        set_field(self, "right", right)


class Gt(Record):
    __slots__ = ("sort", "left", "right")
    sort: str
    left: Term
    right: Term

    def __init__(self, sort: str, left: Term, right: Term) -> None:
        set_field(self, "sort", sort)
        set_field(self, "left", left)
        set_field(self, "right", right)


class Imp(Record):
    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula

    def __init__(self, lhs: Formula, rhs: Formula) -> None:
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class Forall(Record):
    """``hint`` names the bound variable for rendering only."""

    __slots__ = ("sort", "body", "hint")
    sort: str
    body: Formula
    hint: str
    _nocompare = ("hint",)

    def __init__(self, sort: str, body: Formula, hint: str = "x") -> None:
        set_field(self, "sort", sort)
        set_field(self, "body", body)
        set_field(self, "hint", hint)


Formula = Atom | Geq | Gt | Imp | Forall


def ordered(sort: str, label: str, left: Term, right: Term) -> Formula:
    return Gt(sort, left, right) if label == GT else Geq(sort, left, right)


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

    def __init__(self, ctx: tuple[tuple[str, str], ...], hyps: tuple[Formula, ...], concl: Formula) -> None:
        set_field(self, "ctx", ctx)
        set_field(self, "hyps", hyps)
        set_field(self, "concl", concl)

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

    def __init__(self, rule: str, seq: Sequent, children: tuple[Deriv, ...] = (), data: tuple = ()) -> None:
        set_field(self, "rule", rule)
        set_field(self, "seq", seq)
        set_field(self, "children", children)
        set_field(self, "data", data)


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
# agreement, bound indices in scope) plus the sorts they demand of their free
# variables are computed once per object.  The cache lives for one
# ``check_proof`` call and is keyed by ``id``: the proof keeps every formula
# alive for that long.
_Summary = dict[str, str] | str


def _formula_summary(system: CyclicSystem, phi: Formula, cache: dict[int, _Summary]) -> _Summary:
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
    system: CyclicSystem, phi: Formula, ctx: dict[str, str], cache: dict[int, _Summary]
) -> str | None:
    summary = _formula_summary(system, phi, cache)
    if isinstance(summary, str):
        return summary
    for name, want in summary.items():
        have = ctx.get(name)
        if have is None:
            return f"variable {name!r} not in context"
        if have != want:
            return f"variable {name!r} has sort {have!r}, expected {want!r}"
    return None


def _check_sequent(
    system: CyclicSystem,
    seq: Sequent,
    cache: dict[int, _Summary],
    contexts: dict[tuple[int, int], dict[str, str]],
) -> str | None:
    # ``contexts`` maps each (id(ctx), id(hyps)) pair found well formed to its
    # context as a dict, so a pair shared by many sequents is checked once
    pair = (id(seq.ctx), id(seq.hyps))
    ctx = contexts.get(pair)
    if ctx is None:
        names = [v for v, _s in seq.ctx]
        if len(set(names)) != len(names):
            return "repeated context variable"
        ctx = dict(seq.ctx)
        for i, h in enumerate(seq.hyps):
            if err := _check_formula(system, h, ctx, cache):
                return f"hypothesis {i}: {err}"
        contexts[pair] = ctx
    if err := _check_formula(system, seq.concl, ctx, cache):
        return f"conclusion: {err}"
    return None


def _same(a: Sequent, b: Sequent) -> bool:
    return a.ctx == b.ctx and a.hyps == b.hyps


# the other rules read their data, and an unknown rule is unknown whatever its data
_RULES_WITHOUT_DATA = frozenset({"imp_intro", "imp_elim", "forall_intro", "geq_refl", "trans",
                                 "geq_subsum", "gt_ind"})


def _check_node(system: CyclicSystem, d: Deriv) -> str | None:
    seq = d.seq
    kids = d.children
    r = d.rule

    def arity(n: int) -> str | None:
        return None if len(kids) == n else f"{r} expects {n} premises, got {len(kids)}"

    if d.data and r in _RULES_WITHOUT_DATA:
        return f"{r} takes no rule data, got {list(d.data)!r}"
    if r == "assumption":
        if err := arity(0):
            return err
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
        if seq.concl != (subst_free(p.concl, sub) if sub else p.concl):
            return "inst conclusion is not the renamed premise conclusion"
        for i, kid in enumerate(kids[1:]):
            if not _same(seq, kid.seq):
                return f"inst minor {i} must share the sequent context and hypotheses"
            if kid.seq.concl != (subst_free(p.hyps[i], sub) if sub else p.hyps[i]):
                return f"inst minor {i} must conclude renamed premise hypothesis {i}"
        return None
    if r == "imp_intro":
        if err := arity(1):
            return err
        p = kids[0].seq
        if not isinstance(seq.concl, Imp):
            return "imp_intro conclusion must be an implication"
        if p.hyps != seq.hyps + (seq.concl.lhs,) or p.concl != seq.concl.rhs:
            return "imp_intro premise must move the antecedent into the hypotheses"
        if seq.ctx != p.ctx:
            return "imp_intro must preserve context"
        return None
    if r == "imp_elim":
        if err := arity(2):
            return err
        maj, mnr = kids[0].seq, kids[1].seq
        if not (_same(seq, maj) and _same(seq, mnr)):
            return "imp_elim premises must share the sequent context and hypotheses"
        if maj.concl != Imp(mnr.concl, seq.concl):
            return "imp_elim major premise must be minor -> conclusion"
        return None
    if r == "forall_intro":
        if err := arity(1):
            return err
        p = kids[0].seq
        if len(p.ctx) != len(seq.ctx) + 1 or p.ctx[:-1] != seq.ctx:
            return "forall_intro premise must extend the context by one variable"
        x, s = p.ctx[-1]
        if not isinstance(seq.concl, Forall) or seq.concl.sort != s:
            return "forall_intro conclusion must quantify at the bound variable's sort"
        if p.hyps != seq.hyps:
            return "forall_intro must preserve hypotheses"
        if seq.concl.body != close_free(p.concl, x):
            return "forall_intro conclusion body does not match the premise"
        return None
    if r == "forall_elim":
        if err := arity(1):
            return err
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
        if seq.concl != open_bound(p.concl.body, y):
            return "forall_elim conclusion is not the instantiated body"
        return None
    if r == "geq_refl":
        if err := arity(0):
            return err
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
        if err := arity(2):
            return err
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
        if err := arity(1):
            return err
        p = kids[0].seq
        if not _same(seq, p):
            return "geq_subsum must preserve context and hypotheses"
        if not isinstance(p.concl, Gt) or seq.concl != Geq(p.concl.sort, p.concl.left, p.concl.right):
            return "geq_subsum conclusion must weaken the premise"
        return None
    if r == "gt_ind":
        if err := arity(1):
            return err
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
        ih = Forall(sort, Imp(Gt(sort, FreeV(x), BoundV(0)), body))
        if p.hyps != seq.hyps + (ih,):
            return "gt_ind premise must carry the induction hypothesis"
        if p.concl != open_bound(body, x):
            return "gt_ind premise conclusion does not open the quantified body"
        return None
    if r == "c_rule":
        if len(d.data) != 1 or not isinstance(d.data[0], str):
            return "c_rule needs one rule scheme id"
        (rid,) = d.data
        scheme = system.rules.get(rid)
        if scheme is None:
            return f"unknown rule scheme {rid!r}"
        if err := arity(len(scheme.premises)):
            return err
        judg = system.judgments[scheme.conclusion]
        c = seq.concl
        if not isinstance(c, Atom) or c.judg != judg.id:
            return f"c_rule {rid} must conclude a {judg.id} atom"
        if not all(isinstance(t, FreeV) for t in c.args):
            return "c_rule arguments must be context variables"
        xs = tuple(t.name for t in c.args)
        for i, kid in enumerate(kids):
            p = kid.seq
            prem = system.judgments[scheme.premises[i]]
            if len(p.ctx) != len(seq.ctx) + prem.ob or p.ctx[: len(seq.ctx)] != seq.ctx:
                return f"premise {i} must extend the context by {prem.ob} fresh variables"
            ys = p.ctx[len(seq.ctx):]
            for j, (yv, ysort) in enumerate(ys):
                if ysort != prem.sorts[j]:
                    return f"premise {i}: variable {j} has sort {ysort!r}, expected {prem.sorts[j]!r}"
            block = tuple(
                ordered(judg.sorts[a], lab, FreeV(xs[a]), FreeV(ys[b][0]))
                for a, b, lab in scheme.graphs[i].sorted_edges()
            )
            if p.hyps != seq.hyps + block:
                return f"premise {i} must extend the hypotheses by the edge facts"
            if p.concl != Atom(prem.id, tuple(FreeV(y) for y, _ in ys)):
                return f"premise {i} must conclude {prem.id} at the fresh variables"
        return None
    return f"unknown rule {r!r}"


def check_proof(system: CyclicSystem, root: Deriv) -> None:
    """Verify a derivation; raises :class:`LogicError` locating the first defect.

    The cost is per distinct node and per distinct ``(ctx, hyps)`` pair, both
    by object identity: a subproof shared by several parents is checked once,
    at the first path that reaches it, and the context and hypotheses of a
    sequent are checked once per pair of tuple objects, leaving only the
    conclusion to check at each node.  The proof keeps these immutable
    objects alive for the whole call, so ``id`` keys are exact.
    """
    cache: dict[int, _Summary] = {}
    contexts: dict[tuple[int, int], dict[str, str]] = {}
    seen: set[int] = set()
    stack: list[tuple[Deriv, tuple[int, ...]]] = [(root, ())]
    while stack:
        node, path = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        err = _check_sequent(system, node.seq, cache, contexts)
        if err is None:
            err = _check_node(system, node)
        if err is not None:
            raise LogicError(err, path)
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], path + (i,)))


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


class FormulaNumbering:
    """Numbers formulas by value, visiting each formula object once.

    Calling the numbering on a formula returns its row in ``rows``.  A row is
    the leaf itself (an atom or an order, hashed by its few terms), or
    ``("imp", lhs, rhs)`` / ``("all", sort, hint, body)`` over the rows of
    the subformulas; the hint takes no part in formula equality but does in
    the row.  Objects are remembered by ``id``, so the caller keeps every
    numbered formula alive while it uses the numbering.
    """

    def __init__(self) -> None:
        self.rows: list = []
        self._row_of_key: dict = {}
        self._row_of_obj: dict[int, int] = {}

    def __call__(self, phi: Formula) -> int:
        row = self._row_of_obj.get(id(phi))
        if row is not None:
            return row
        if isinstance(phi, Imp):
            key: object = ("imp", self(phi.lhs), self(phi.rhs))
        elif isinstance(phi, Forall):
            key = ("all", phi.sort, phi.hint, self(phi.body))
        else:
            key = phi
        row = self._row_of_key.get(key)
        if row is None:
            row = self._row_of_key[key] = len(self.rows)
            self.rows.append(key)
        self._row_of_obj[id(phi)] = row
        return row


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
    ih = Forall(sort, Imp(Gt(sort, FreeV(x), BoundV(0)), body), hint=f"{x}'")
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
    sort = target.sort_of(x)
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
    sort = target.sort_of(x)
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
    ih_u = Forall(sort, Imp(Gt(sort, FreeV(u), BoundV(0)), close_free(phi_u, u)), hint=f"{u}'")

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
