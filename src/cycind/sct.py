"""Size-change termination for call systems.

The decision procedure computes the composition closure of the call graphs
and applies the classic Ramsey-style criterion: the system is terminating
iff every reachable idempotent self-composition has a strictly decreasing
self-edge.  For non-terminating systems a shortest lasso (call path prefix
plus cycle) is produced as a counterexample.
"""

from __future__ import annotations

from collections import deque

from .core import (
    GT,
    CallSystem,
    CyclicSystem,
    Record,
    RegularDerivation,
    SizeChangeGraph,
    compose,
    induced_call_graph,
)


class ClosureElement(Record):
    """A composite call path ``src -> dst`` together with its net size-change graph."""

    __slots__ = ("src", "dst", "graph", "witness")
    src: str
    dst: str
    graph: SizeChangeGraph
    witness: tuple[str, ...]  # call ids, in path order

    def is_idempotent(self) -> bool:
        return self.src == self.dst and compose(self.graph, self.graph) == self.graph

    def has_progress(self) -> bool:
        return any(s == d and lab == GT for s, d, lab in self.graph.edges)


class Lasso(Record):
    """A counterexample to termination: a call path leading into a repeatable cycle."""

    __slots__ = ("prefix", "cycle")
    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __str__(self) -> str:
        pre = " ".join(self.prefix) if self.prefix else "(empty)"
        return f"prefix: {pre}; cycle: {' '.join(self.cycle)}"


class SctVerdict(Record):
    __slots__ = ("terminating", "counterexample", "closure_size", "culprit")
    terminating: bool
    counterexample: Lasso | None
    closure_size: int
    culprit: ClosureElement | None
    _defaults = {"counterexample": None, "closure_size": 0, "culprit": None}
    _nocompare = ("culprit",)


def closure(cs: CallSystem) -> list[ClosureElement]:
    """All composite size-change graphs of the system, shortest witness first.

    Elements are deduplicated by (src, dst, graph); breadth-first extension by
    single calls guarantees that the retained witness for each element is a
    shortest one.
    """
    seen: set[tuple[str, str, SizeChangeGraph]] = set()
    out: list[ClosureElement] = []
    queue: deque[ClosureElement] = deque()
    for call in cs.calls:
        elem = ClosureElement(call.dom, call.codom, call.graph, (call.id,))
        key = (elem.src, elem.dst, elem.graph)
        if key not in seen:
            seen.add(key)
            out.append(elem)
            queue.append(elem)
    by_dom: dict[str, list] = {}
    for call in cs.calls:
        by_dom.setdefault(call.dom, []).append(call)
    while queue:
        elem = queue.popleft()
        for call in by_dom.get(elem.dst, []):
            g = compose(elem.graph, call.graph)
            key = (elem.src, call.codom, g)
            if key in seen:
                continue
            seen.add(key)
            ext = ClosureElement(elem.src, call.codom, g, elem.witness + (call.id,))
            out.append(ext)
            queue.append(ext)
    return out


def _reachable_functions(cs: CallSystem, roots: frozenset[str]) -> tuple[set[str], dict[str, tuple[str, ...]]]:
    """Functions reachable from the roots, with a shortest call path to each."""
    paths: dict[str, tuple[str, ...]] = {f: () for f in roots}
    queue = deque(roots)
    by_dom: dict[str, list] = {}
    for call in cs.calls:
        by_dom.setdefault(call.dom, []).append(call)
    while queue:
        f = queue.popleft()
        for call in by_dom.get(f, []):
            if call.codom not in paths:
                paths[call.codom] = paths[f] + (call.id,)
                queue.append(call.codom)
    return set(paths), paths


def decide_termination(cs: CallSystem, roots: frozenset[str] | None = None) -> SctVerdict:
    """Decide size-change termination of the call system.

    Only call cycles reachable from ``roots`` (default: all functions) count.
    The first reachable idempotent composite without a progressing self-edge,
    in closure discovery order, yields the counterexample lasso.
    """
    if roots is None:
        roots = frozenset(cs.functions)
    reach, paths = _reachable_functions(cs, roots)
    elems = closure(cs)
    for elem in elems:
        if elem.src != elem.dst or elem.src not in reach:
            continue
        if elem.is_idempotent() and not elem.has_progress():
            lasso = Lasso(prefix=paths[elem.src], cycle=elem.witness)
            return SctVerdict(terminating=False, counterexample=lasso, closure_size=len(elems), culprit=elem)
    return SctVerdict(terminating=True, closure_size=len(elems))


def check_soundness(deriv: RegularDerivation, system: CyclicSystem) -> SctVerdict:
    """Soundness of a regular derivation = termination of its induced call graph."""
    cs = induced_call_graph(deriv, system)
    return decide_termination(cs, roots=frozenset({deriv.root}))
