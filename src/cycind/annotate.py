"""Per-branch stack annotations over size-change graphs.

Walking down a branch, every argument position carries a stack of *names*:
aliases for the chain of still-relevant strictly decreasing ancestors of the
value at that position.  Following an edge of a size-change graph either
carries a stack over (on a ``>=`` edge), extends it with a fresh name (on a
``>`` edge), or starts a new singleton stack (no edge).  When one name is
covered by a younger name on every stack, the older name's information is
redundant; the stacks are then truncated at the covered name (a *reset*) and
names that no longer occur anywhere are forgotten, so the alphabet of names in
use stays bounded.  Resets are the progress signals later used to place
back-edges and to pick induction variables.
"""

from __future__ import annotations

from .core import GT, Record, VarRef


def name_token(i: int) -> str:
    """The i-th name: a..z, then a26, a27, ..."""
    if i < 26:
        return chr(ord("a") + i)
    return f"a{i}"


class Reset(Record):
    """One reset: ``name`` was uniformly covered by ``cover`` and truncated away.

    ``cover_var`` is the variable that carried the covering name; the cover
    itself is pruned by the truncation, so its binding is recorded here.
    """

    __slots__ = ("name", "cover", "cover_var")
    name: str
    cover: str
    cover_var: VarRef


class Annotation(Record):
    """Annotation of a single node on a branch.

    ``names`` lists the live names in age order (oldest first) and ``binding``
    gives, in parallel, the variable each name refers to.  ``stacks`` are the
    final per-position stacks; ``pre_stacks`` are the stacks as selected before
    any resets (their extra suffixes are the names struck out at this node).
    """

    __slots__ = ("names", "binding", "stacks", "pre_stacks", "resets", "depth")
    names: tuple[str, ...]
    binding: tuple[VarRef, ...]
    stacks: tuple[tuple[str, ...], ...]
    pre_stacks: tuple[tuple[str, ...], ...]
    resets: tuple[Reset, ...]
    depth: int

    def var_of(self, name: str) -> VarRef:
        return self.binding[self.names.index(name)]

    def age_of(self, name: str) -> int:
        return self.names.index(name)

    def reset_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.resets)

    def cover_of(self, name: str) -> Reset:
        for r in self.resets:
            if r.name == name:
                return r
        raise KeyError(f"no reset on {name!r} at this node")

    def struck(self, j: int) -> tuple[str, ...]:
        """Names removed from position j's stack by the resets at this node."""
        return self.pre_stacks[j][len(self.stacks[j]):]

    @property
    def ob(self) -> int:
        return len(self.stacks)

    def key(self) -> tuple:
        """Bud-matching key: the literal name list and stacks."""
        return (self.names, self.stacks)


def init_annotation(ob: int) -> Annotation:
    names = tuple(name_token(j) for j in range(ob))
    return Annotation(
        names=names,
        binding=tuple(VarRef(0, j) for j in range(ob)),
        stacks=tuple((n,) for n in names),
        pre_stacks=tuple((n,) for n in names),
        resets=(),
        depth=0,
    )


def candidate_older(s1: frozenset[str], f1: bool, s2: frozenset[str], f2: bool, age: dict[str, int]) -> bool:
    """Is candidate stack (s1 + optional shared fresh name) strictly older?

    A stack is older than another if it contains the oldest name in the
    symmetric difference of their element sets.  The fresh name is the same
    for all candidates of one target position and is younger than every live
    name, so it only decides when the real elements coincide.
    """
    diff = s1 ^ s2
    if diff:
        oldest = min(diff, key=lambda n: age[n])
        return oldest in s1
    if f1 == f2:
        return False
    return f1


def uniform_covers(names: tuple[str, ...], stacks: tuple[tuple[str, ...], ...]) -> dict[str, str]:
    """For each name on some stack: its oldest uniform cover, if any.

    A strictly younger name covers an older one if it occurs on every stack on
    which the older name occurs.  Names on no stack are not considered; they
    are simply forgotten at the end of a step.
    """
    age = {n: k for k, n in enumerate(names)}
    occurs: dict[str, set[int]] = {}
    for j, st in enumerate(stacks):
        for n in st:
            occurs.setdefault(n, set()).add(j)
    out: dict[str, str] = {}
    for n, positions in occurs.items():
        best: str | None = None
        for m, mpos in occurs.items():
            if age[m] > age[n] and positions <= mpos:
                if best is None or age[m] < age[best]:
                    best = m
        if best is not None:
            out[n] = best
    return out


def _truncate(stacks: tuple[tuple[str, ...], ...], name: str) -> tuple[tuple[str, ...], ...]:
    out = []
    for st in stacks:
        if name in st:
            out.append(st[: st.index(name) + 1])
        else:
            out.append(st)
    return tuple(out)


def step(ann: Annotation, g) -> Annotation:
    """Annotation of the next node along an edge labelled with graph ``g``."""
    if g.src_arity != ann.ob:
        raise ValueError(f"graph source arity {g.src_arity} does not match node arity {ann.ob}")
    depth = ann.depth + 1
    age = {n: k for k, n in enumerate(ann.names)}

    in_edges: list[list[tuple[int, str]]] = [[] for _ in range(g.dst_arity)]
    for i, j, lab in g.sorted_edges():
        in_edges[j].append((i, lab))

    # Pick the oldest candidate per target position; fresh names are compared
    # abstractly and only minted afterwards, for the positions that use one.
    picks: list[tuple[int | None, bool]] = []  # (source position, uses_fresh)
    for j2 in range(g.dst_arity):
        best: tuple[frozenset[str], bool, int] | None = None
        for i, lab in in_edges[j2]:
            cand = (frozenset(ann.stacks[i]), lab == GT, i)
            if best is None or candidate_older(cand[0], cand[1], best[0], best[1], age):
                best = cand
        picks.append((None, True) if best is None else (best[2], best[1]))

    # A position with no incoming edge takes back its own initial token when
    # that token is free; the other fresh names then take the smallest unused
    # tokens, in position order.
    used = set(ann.names)
    fresh_at: dict[int, str] = {}
    for j2, (src, _uses_fresh) in enumerate(picks):
        if src is None and name_token(j2) not in used:
            fresh_at[j2] = name_token(j2)
            used.add(fresh_at[j2])
    pool = (name_token(i) for i in range(10 ** 9))
    for j2, (_src, uses_fresh) in enumerate(picks):
        if uses_fresh and j2 not in fresh_at:
            nm = next(n for n in pool if n not in used)
            used.add(nm)
            fresh_at[j2] = nm

    names = ann.names + tuple(fresh_at[j2] for j2 in sorted(fresh_at))
    binding = ann.binding + tuple(VarRef(depth, j2) for j2 in sorted(fresh_at))
    # a >= edge carries its source stack, a > edge extends it with the fresh
    # name, and a position with no incoming edge starts a fresh singleton
    pre_stacks = tuple(
        (() if src is None else ann.stacks[src]) + ((fresh_at[j2],) if uses_fresh else ())
        for j2, (src, uses_fresh) in enumerate(picks)
    )

    var_by_name = dict(zip(names, binding))
    stacks = pre_stacks
    resets: list[Reset] = []
    while True:
        covers = uniform_covers(names, stacks)
        if not covers:
            break
        target = max(covers, key=lambda n: names.index(n))  # youngest covered first
        cover = covers[target]
        resets.append(Reset(target, cover, var_by_name[cover]))
        stacks = _truncate(stacks, target)

    live = {n for st in stacks for n in st}
    kept = tuple(n for n in names if n in live)
    kept_binding = tuple(var_by_name[n] for n in kept)
    # A later truncation can cut an already-reset name off its last stack; such
    # a name is forgotten here and now, so it cannot witness progress either.
    return Annotation(
        names=kept,
        binding=kept_binding,
        stacks=stacks,
        pre_stacks=pre_stacks,
        resets=tuple(r for r in resets if r.name in live),
        depth=depth,
    )


def render_annotation(ann: Annotation) -> str:
    """One-line rendering: live stacks with struck-out names, e.g. ``(a ~c~ | b)``."""
    parts = []
    for j in range(ann.ob):
        bits = list(ann.stacks[j]) + [f"~{n}~" for n in ann.struck(j)]
        parts.append(" ".join(bits) if bits else "-")
    return "(" + " | ".join(parts) + ")"
