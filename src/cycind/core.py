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

# Constructors set the fields of a record with this.
set_field = object.__setattr__


class Record:
    """Immutable value record; its ``__slots__`` name its fields, in order.

    Records of one class are equal when their compared fields are (records of
    different classes never are), and hash over those fields.  ``_defaults``
    maps fields to default values and ``_nocompare`` names fields left out of
    equality and hashing; both still show in the ``repr``.  Each class gets an
    ``__init__`` compiled when it is created: the fields by position or
    keyword, ``_defaults`` filled in, then ``_validate`` if the class defines
    one.  ``SizeChangeGraph`` normalises its edges in its own ``__init__``.
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
        if "__init__" in cls.__dict__:
            return
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls._fields)
        body = [f"    set_field(self, {f!r}, {f})" for f in cls._fields]
        if cls._validate is not Record._validate:
            body.append("    self._validate()")
        namespace = {"set_field": set_field, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):\n" + "\n".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _validate(self) -> None:
        """Checks of the fields, which ``__init__`` runs where a class defines them."""

    def replace(self, **changes) -> Record:
        """A copy with ``changes`` applied, built (and validated) by ``__init__``."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
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


class SizeChangeGraph(Record):
    """Bipartite labelled graph between src_arity and dst_arity positions.

    ``edges`` holds (src, dst, label) triples with at most one edge per
    (src, dst) pair; construction normalizes duplicates, preferring ``>``.
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


class DerivNode(Record):
    __slots__ = ("rule", "children")
    rule: str
    children: tuple[str, ...]


class RegularDerivation(Record):
    __slots__ = ("nodes", "root")
    nodes: Mapping[str, DerivNode]
    root: str


class VarRef(Record):
    """The variable introduced at branch depth ``depth`` for position ``pos``."""

    __slots__ = ("depth", "pos")
    depth: int
    pos: int

    def __str__(self) -> str:
        return f"x{self.depth}_{self.pos}"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def graph_problems(where: str, g: SizeChangeGraph, src: tuple[str, ...], dst: tuple[str, ...],
                   ind_sorts: frozenset[str]) -> list[str]:
    """Diagnostics of ``g`` as a graph from positions of the sorts ``src`` to
    positions of the sorts ``dst``, each prefixed by ``where``: its arities,
    then each edge joining two sorts, which must be one inductive sort."""
    if g.src_arity != len(src) or g.dst_arity != len(dst):
        return [f"{where}: graph is {g.src_arity}->{g.dst_arity}, expected {len(src)}->{len(dst)}"]
    out: list[str] = []
    for a, b, _lab in g.sorted_edges():
        if src[a] != dst[b]:
            out.append(f"{where}: edge {a}->{b} joins sorts {src[a]!r} and {dst[b]!r}")
        elif src[a] not in ind_sorts:
            out.append(f"{where}: edge {a}->{b} touches non-inductive sort {src[a]!r}")
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
        out += graph_problems(f"call {c.id}", c.graph, cs.functions[c.dom], cs.functions[c.codom],
                              cs.ind_sorts)
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
        node = d.nodes[nid]
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

