"""Data model: size-change graphs, cyclic systems, and regular derivations.

A size-change graph relates the argument positions of a caller to those of a
callee with edges labelled ``>=`` (the value is preserved or shrinks) or ``>``
(the value strictly shrinks).  Cyclic call systems and cyclic proof systems are
two views of the same structure: functions with recursive calls, or judgments
with rules whose premises carry size-change graphs.  A regular derivation is a
possibly-infinite derivation tree with finitely many distinct subtrees, stored
here as a finite rooted graph (one node per distinct subtree).
"""
from __future__ import annotations

from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Mapping

# Edge labels.  GT ("progressing") subsumes GEQ ("preserving"): whenever both
# would relate the same pair of positions, only the > edge is kept.
GEQ = ">="
GT = ">"

DEFAULT_SORT = "*"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

# Explicit ``__init__`` methods of records set their fields with this.
set_field = object.__setattr__


class Record:
    """Immutable value record; its ``__slots__`` name its fields, in order.

    Records of one class are equal when their compared fields are (records of
    different classes never are), and hash over those fields.  ``_defaults``
    maps fields to default values and ``_nocompare`` names fields left out of
    equality and hashing; both still show in the ``repr``.  The generic
    ``__init__`` takes fields by position or keyword and then runs
    ``_validate``; records built in bulk define their own ``__init__``.
    """

    __slots__ = ()
    _defaults = {}
    _nocompare = ()

    # Fields are declared in ``__slots__``, not derived from annotations by a
    # metaclass: ``isinstance`` against a class whose metaclass is not ``type``
    # takes a slower path, and the formula walks are mostly ``isinstance`` tests.
    def __init_subclass__(cls) -> None:
        cls._fields = cls.__slots__
        cls._key = attrgetter(*(f for f in cls._fields if f not in cls._nocompare))

    def __init__(self, *args, **kw) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for f in kw:
            if f in values or f not in fields:
                raise TypeError(f"{cls.__name__}: unexpected or repeated field {f!r}")
        values = {**cls._defaults, **values, **kw}
        for f in fields:
            if f not in values:
                raise TypeError(f"{cls.__name__}: missing field {f!r}")
            set_field(self, f, values[f])
        self._validate()

    def _validate(self) -> None:
        pass

    def replace(self, **changes) -> Record:
        """A copy with ``changes`` applied, built (and validated) by ``__init__``."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def best_label(a: str, b: str) -> str:
    return GT if GT in (a, b) else GEQ


@total_ordering
class SizeChangeGraph(Record):
    """Bipartite labelled graph between src_arity and dst_arity positions.

    ``edges`` holds (src, dst, label) triples with at most one edge per
    (src, dst) pair; construction normalizes duplicates, preferring ``>``.
    Graphs are totally ordered by ``(src_arity, dst_arity, sorted_edges())``,
    which agrees with equality because of that normalization.
    """

    __slots__ = ("src_arity", "dst_arity", "edges")
    src_arity: int
    dst_arity: int
    edges: frozenset[tuple[int, int, str]]

    def __init__(self, src_arity: int, dst_arity: int, edges: frozenset[tuple[int, int, str]]) -> None:
        by_pair: dict[tuple[int, int], str] = {}
        for i, j, lab in edges:
            if not (0 <= i < src_arity and 0 <= j < dst_arity):
                raise ValueError(f"edge ({i},{j}) out of range for {src_arity}->{dst_arity}")
            if lab not in (GEQ, GT):
                raise ValueError(f"bad edge label {lab!r}")
            prev = by_pair.get((i, j))
            by_pair[(i, j)] = lab if prev is None else best_label(prev, lab)
        set_field(self, "src_arity", src_arity)
        set_field(self, "dst_arity", dst_arity)
        set_field(self, "edges", frozenset((i, j, lab) for (i, j), lab in by_pair.items()))

    @classmethod
    def of(cls, src_arity: int, dst_arity: int, edges: Iterable[tuple[int, int, str]]) -> "SizeChangeGraph":
        return cls(src_arity, dst_arity, frozenset(edges))

    def sorted_edges(self) -> list[tuple[int, int, str]]:
        """Edges in the canonical (src, dst) lexicographic order."""
        return sorted(self.edges, key=lambda e: (e[0], e[1]))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, SizeChangeGraph):
            return NotImplemented
        return (self.src_arity, self.dst_arity, self.sorted_edges()) < (
            other.src_arity, other.dst_arity, other.sorted_edges())

    def __str__(self) -> str:
        inner = ", ".join(f"{i}{lab}{j}" for i, j, lab in self.sorted_edges())
        return "{" + inner + "}"


def compose(g: SizeChangeGraph, h: SizeChangeGraph) -> SizeChangeGraph:
    """Two-step path composition: an edge j -> j'' for every j -> j' -> j'' pair,
    progressing iff some witnessing pair contains a progressing edge."""
    if g.dst_arity != h.src_arity:
        raise ValueError(f"arity mismatch: {g.dst_arity} vs {h.src_arity}")
    out: dict[tuple[int, int], str] = {}
    by_src: dict[int, list[tuple[int, str]]] = {}
    for j, j2, lab in h.edges:
        by_src.setdefault(j, []).append((j2, lab))
    for i, j, lab1 in g.edges:
        for j2, lab2 in by_src.get(j, ()):
            lab = GT if GT in (lab1, lab2) else GEQ
            prev = out.get((i, j2))
            out[(i, j2)] = lab if prev is None else best_label(prev, lab)
    return SizeChangeGraph.of(g.src_arity, h.dst_arity, ((i, j, lab) for (i, j), lab in out.items()))


def path_relation(graphs: Iterable[SizeChangeGraph]) -> SizeChangeGraph:
    """Fold of compose over a nonempty sequence of compatible graphs."""
    it = iter(graphs)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("path_relation needs at least one graph")
    for g in it:
        acc = compose(acc, g)
    return acc


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

class Judgment(Record):
    __slots__ = ("id", "ob", "sorts")
    id: str
    ob: int
    sorts: tuple[str, ...]

    def _validate(self) -> None:
        if len(self.sorts) != self.ob:
            raise ValueError(f"judgment {self.id}: {len(self.sorts)} sorts for {self.ob} objects")


class RuleScheme(Record):
    __slots__ = ("id", "conclusion", "premises", "graphs")
    id: str
    conclusion: str
    premises: tuple[str, ...]
    graphs: tuple[SizeChangeGraph, ...]

    def _validate(self) -> None:
        if len(self.graphs) != len(self.premises):
            raise ValueError(f"rule {self.id}: {len(self.graphs)} graphs for {len(self.premises)} premises")


class CyclicSystem(Record):
    __slots__ = ("judgments", "rules", "ind_sorts")
    judgments: Mapping[str, Judgment]
    rules: Mapping[str, RuleScheme]
    ind_sorts: frozenset[str]
    _defaults = {"ind_sorts": frozenset({DEFAULT_SORT})}

    def judgment_of_rule(self, rule_id: str) -> Judgment:
        return self.judgments[self.rules[rule_id].conclusion]


class Call(Record):
    __slots__ = ("id", "dom", "codom", "graph")
    id: str
    dom: str
    codom: str
    graph: SizeChangeGraph


class CallSystem(Record):
    """Functions with per-argument sorts plus recursive calls carrying graphs."""

    __slots__ = ("functions", "calls", "ind_sorts")
    functions: Mapping[str, tuple[str, ...]]  # fun id -> argument sorts
    calls: tuple[Call, ...]
    ind_sorts: frozenset[str]
    _defaults = {"ind_sorts": frozenset({DEFAULT_SORT})}

    def arity(self, f: str) -> int:
        return len(self.functions[f])


class DerivNode(Record):
    __slots__ = ("rule", "children")
    rule: str
    children: tuple[str, ...]


class RegularDerivation(Record):
    __slots__ = ("nodes", "root")
    nodes: Mapping[str, DerivNode]
    root: str


@total_ordering
class VarRef(Record):
    """The variable introduced at branch depth ``depth`` for position ``pos``.

    The order (depth, pos) is the age order on variables of a branch.
    """

    __slots__ = ("depth", "pos")
    depth: int
    pos: int

    def __init__(self, depth: int, pos: int) -> None:
        set_field(self, "depth", depth)
        set_field(self, "pos", pos)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not VarRef:
            return NotImplemented
        return (self.depth, self.pos) < (other.depth, other.pos)

    def __str__(self) -> str:
        return f"x{self.depth}_{self.pos}"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_system(sys: CyclicSystem) -> list[str]:
    """Structural diagnostics for a cyclic system; empty list means valid."""
    out: list[str] = []
    for jid, judg in sys.judgments.items():
        if jid != judg.id:
            out.append(f"judgment key {jid!r} does not match id {judg.id!r}")
    for rid, rule in sys.rules.items():
        if rid != rule.id:
            out.append(f"rule key {rid!r} does not match id {rule.id!r}")
        concl = sys.judgments.get(rule.conclusion)
        if concl is None:
            out.append(f"rule {rid}: unknown conclusion judgment {rule.conclusion!r}")
            continue
        for i, pid in enumerate(rule.premises):
            prem = sys.judgments.get(pid)
            if prem is None:
                out.append(f"rule {rid}: unknown premise judgment {pid!r}")
                continue
            g = rule.graphs[i]
            if g.src_arity != concl.ob or g.dst_arity != prem.ob:
                out.append(
                    f"rule {rid} premise {i}: graph is {g.src_arity}->{g.dst_arity}, "
                    f"expected {concl.ob}->{prem.ob}"
                )
                continue
            for a, b, _lab in g.sorted_edges():
                sa, sb = concl.sorts[a], prem.sorts[b]
                if sa != sb:
                    out.append(f"rule {rid} premise {i}: edge {a}->{b} joins sorts {sa!r} and {sb!r}")
                elif sa not in sys.ind_sorts:
                    out.append(f"rule {rid} premise {i}: edge {a}->{b} touches non-inductive sort {sa!r}")
    return out


def validate_call_system(cs: CallSystem) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for c in cs.calls:
        if c.id in seen:
            out.append(f"duplicate call id {c.id!r}")
        seen.add(c.id)
        if c.dom not in cs.functions:
            out.append(f"call {c.id}: unknown function {c.dom!r}")
            continue
        if c.codom not in cs.functions:
            out.append(f"call {c.id}: unknown function {c.codom!r}")
            continue
        if c.graph.src_arity != cs.arity(c.dom) or c.graph.dst_arity != cs.arity(c.codom):
            out.append(
                f"call {c.id}: graph is {c.graph.src_arity}->{c.graph.dst_arity}, "
                f"expected {cs.arity(c.dom)}->{cs.arity(c.codom)}"
            )
            continue
        dsorts, csorts = cs.functions[c.dom], cs.functions[c.codom]
        for a, b, _lab in c.graph.sorted_edges():
            if dsorts[a] != csorts[b]:
                out.append(f"call {c.id}: edge {a}->{b} joins sorts {dsorts[a]!r} and {csorts[b]!r}")
            elif dsorts[a] not in cs.ind_sorts:
                out.append(f"call {c.id}: edge {a}->{b} touches non-inductive sort {dsorts[a]!r}")
    return out


def validate_derivation(d: RegularDerivation, sys: CyclicSystem) -> list[str]:
    out: list[str] = []
    if d.root not in d.nodes:
        return [f"root {d.root!r} is not a node"]
    reached: set[str] = set()
    todo = [d.root]
    while todo:
        nid = todo.pop()
        if nid in reached:
            continue
        reached.add(nid)
        node = d.nodes.get(nid)
        if node is None:
            out.append(f"node {nid!r} missing")
            continue
        rule = sys.rules.get(node.rule)
        if rule is None:
            out.append(f"node {nid}: unknown rule {node.rule!r}")
            continue
        if len(node.children) != len(rule.premises):
            out.append(f"node {nid}: {len(node.children)} children for {len(rule.premises)} premises")
            continue
        for i, cid in enumerate(node.children):
            child = d.nodes.get(cid)
            if child is None:
                out.append(f"node {nid}: child {cid!r} missing")
                continue
            crule = sys.rules.get(child.rule)
            if crule is not None and crule.conclusion != rule.premises[i]:
                out.append(
                    f"node {nid} child {i}: rule {child.rule} concludes "
                    f"{crule.conclusion!r}, expected {rule.premises[i]!r}"
                )
            todo.append(cid)
    for nid in d.nodes:
        if nid not in reached:
            out.append(f"node {nid!r} unreachable from root")
    return out


# ---------------------------------------------------------------------------
# Induced systems
# ---------------------------------------------------------------------------

def induced_proof_system(cs: CallSystem) -> tuple[CyclicSystem, dict[str, RegularDerivation]]:
    """One judgment and one rule per function; one premise per outgoing call.

    The accompanying derivation for function f is the call graph itself rooted
    at f (nodes are functions, the child list follows the call list order).
    """
    problems = validate_call_system(cs)
    if problems:
        raise ValueError("invalid call system: " + "; ".join(problems))
    judgments = {f: Judgment(f, len(sorts), tuple(sorts)) for f, sorts in cs.functions.items()}
    calls_from: dict[str, list[Call]] = {f: [] for f in cs.functions}
    for c in cs.calls:
        calls_from[c.dom].append(c)
    rules = {
        f: RuleScheme(
            f,
            f,
            tuple(c.codom for c in calls_from[f]),
            tuple(c.graph for c in calls_from[f]),
        )
        for f in cs.functions
    }
    sys = CyclicSystem(judgments, rules, cs.ind_sorts)
    nodes = {f: DerivNode(f, tuple(c.codom for c in calls_from[f])) for f in cs.functions}

    derivations: dict[str, RegularDerivation] = {}
    for f in cs.functions:
        reach: set[str] = set()
        todo = [f]
        while todo:
            g = todo.pop()
            if g in reach:
                continue
            reach.add(g)
            todo.extend(nodes[g].children)
        derivations[f] = RegularDerivation({g: nodes[g] for g in reach}, f)
    return sys, derivations


def induced_call_graph(d: RegularDerivation, sys: CyclicSystem) -> CallSystem:
    """Inverse plumbing: one function per derivation node, one call per child edge."""
    problems = validate_derivation(d, sys)
    if problems:
        raise ValueError("invalid derivation: " + "; ".join(problems))
    functions = {
        nid: sys.judgment_of_rule(node.rule).sorts for nid, node in d.nodes.items()
    }
    calls = []
    for nid in sorted(d.nodes):
        node = d.nodes[nid]
        rule = sys.rules[node.rule]
        for i, cid in enumerate(node.children):
            calls.append(Call(f"{nid}.{i}", nid, cid, rule.graphs[i]))
    return CallSystem(functions, tuple(calls), sys.ind_sorts)


def minimize(d: RegularDerivation) -> RegularDerivation:
    """Bisimulation quotient: merge nodes with the same rule and pointwise-merged
    children (partition refinement until stable)."""
    ids = sorted(d.nodes)
    block: dict[str, int] = {}
    # initial partition by rule id
    by_rule: dict[str, int] = {}
    for nid in ids:
        r = d.nodes[nid].rule
        block[nid] = by_rule.setdefault(r, len(by_rule))
    while True:
        sig = {nid: (block[nid], tuple(block[c] for c in d.nodes[nid].children)) for nid in ids}
        renum: dict[tuple, int] = {}
        nxt = {nid: renum.setdefault(sig[nid], len(renum)) for nid in ids}
        if nxt == block:
            break
        block = nxt
    rep: dict[int, str] = {}
    for nid in ids:  # deterministic representative: first node id in sorted order
        rep.setdefault(block[nid], nid)
    nodes = {
        rep[b]: DerivNode(d.nodes[nid].rule, tuple(rep[block[c]] for c in d.nodes[nid].children))
        for nid in ids
        if (b := block[nid]) is not None and rep[b] == nid
    }
    root = rep[block[d.root]]
    reach: set[str] = set()
    todo = [root]
    while todo:
        nid = todo.pop()
        if nid in reach:
            continue
        reach.add(nid)
        todo.extend(nodes[nid].children)
    return RegularDerivation({nid: nodes[nid] for nid in reach}, root)
