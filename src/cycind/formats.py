"""Versioned JSON formats for the three document kinds: call systems,
derivations and proofs.

Every document carries a ``format`` tag (``cycind/<kind>@1``); loaders check
it and raise :class:`FormatError` on anything unexpected.  Node tables are
flat, so documents stay linear in the size of the shared structure and never
nest deeply.  A derivation node names its children by id, and a repeated id
is refused.  A proof node row is numbered by its position: its children are
earlier rows, and the root is a row index.  Formulas are arrays with
``["b", k]`` for bound references and ``["v", name]`` for free variables.

Proof documents also store formulas and context entries once, in tables:
``formulas`` has one row per distinct formula (the subformulas of ``imp`` and
``all`` rows are indices of earlier rows), ``variables`` one ``[name, sort]``
row per distinct context entry, and sequents are lists of indices into them.
The reader also accepts an inline formula array or ``[name, sort]`` pair
wherever it expects an index, for hand-written and mutated documents.  The
reader refuses formulas nested deeper than :data:`MAX_FORMULA_DEPTH`, so the
walks that still recurse (``==`` between distinct equal formulas, the
builders' term maps and :func:`~cycind.logic.render_formula`) stay within the
interpreter's recursion limit, and formulas larger than
:data:`MAX_FORMULA_SIZE` as a tree, which a few bytes a row describe when
each row names the row before twice.
"""

from __future__ import annotations

import json
from typing import Any

from . import logic
from .core import (
    Call,
    CallSystem,
    CyclicSystem,
    DerivNode,
    Judgment,
    RegularDerivation,
    RuleScheme,
    SizeChangeGraph,
    validate_call_system,
    validate_derivation,
    validate_system,
)

CALLSYSTEM = "cycind/callsystem@1"
DERIVATION = "cycind/derivation@1"
PROOF = "cycind/proof@1"

# Formula nesting and tree size accepted by the proof reader.  A formula table
# describes any depth, or a tree that doubles with each row, in a few bytes a
# row.  The kernel's summary and match walks keep explicit stacks, but
# ``Record.__eq__`` between distinct equal objects, ``builders._map_terms``
# and ``render_formula`` still recurse, as trees; the worked systems' proofs
# stay below 32 levels, and the largest real formula has 689 nodes.
MAX_FORMULA_DEPTH = 128
MAX_FORMULA_SIZE = 100_000


class FormatError(ValueError):
    pass


def _tag(doc: Any, want: str) -> None:
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    tag = doc.get("format")
    if tag != want:
        raise FormatError(f"expected format {want!r}, found {tag!r}")


# ---------------------------------------------------------------------------
# call systems
# ---------------------------------------------------------------------------

def call_system_to_doc(cs: CallSystem) -> dict:
    return {
        "format": CALLSYSTEM,
        "functions": {f: list(s) for f, s in cs.functions.items()},
        "ind_sorts": sorted(cs.ind_sorts),
        "calls": [
            {
                "id": c.id,
                "dom": c.dom,
                "codom": c.codom,
                "edges": [list(e) for e in c.graph.sorted_edges()],
            }
            for c in cs.calls
        ],
    }


def call_system_from_doc(doc: dict) -> CallSystem:
    _tag(doc, CALLSYSTEM)
    fdoc = _field(doc, "functions", dict, "document")
    functions = {f: _strings(fdoc, f, "functions") for f in fdoc}
    calls = []
    for i, c in enumerate(_field(doc, "calls", list, "document")):
        cid = _field(c, "id", str, f"call {i}")
        where = f"call {cid!r}"
        dom, codom = _field(c, "dom", str, where), _field(c, "codom", str, where)
        if dom not in functions or codom not in functions:
            raise FormatError(f"{where} refers to an undeclared function")
        edges = _edges(_field(c, "edges", list, where), where)
        try:
            graph = SizeChangeGraph(len(functions[dom]), len(functions[codom]), edges)
        except ValueError as e:
            raise FormatError(f"{where}: {e}") from None
        calls.append(Call(id=cid, dom=dom, codom=codom, graph=graph))
    cs = CallSystem(
        functions=functions,
        calls=tuple(calls),
        ind_sorts=frozenset(_strings(doc, "ind_sorts", "document")),
    )
    if problems := validate_call_system(cs):
        raise FormatError("call system: " + "; ".join(problems))
    return cs


# ---------------------------------------------------------------------------
# cyclic proof systems (embedded in other documents)
# ---------------------------------------------------------------------------

def system_to_doc(sys: CyclicSystem) -> dict:
    return {
        "judgments": [
            {"id": j.id, "ob": j.ob, "sorts": list(j.sorts)}
            for j in sys.judgments.values()
        ],
        "rules": [
            {
                "id": r.id,
                "conclusion": r.conclusion,
                "premises": list(r.premises),
                "graphs": [[list(e) for e in g.sorted_edges()] for g in r.graphs],
            }
            for r in sys.rules.values()
        ],
        "ind_sorts": sorted(sys.ind_sorts),
    }


def _field(d: Any, key: str, kind: type, where: str):
    """``d[key]``, checked to be present and of JSON type ``kind``."""
    if not isinstance(d, dict):
        raise FormatError(f"{where} must be an object, found {_json_type(d)}")
    if key not in d:
        raise FormatError(f"{where}: missing {key!r}")
    x = d[key]
    if not isinstance(x, kind) or (kind is int and isinstance(x, bool)):
        want = {dict: "an object", list: "an array", str: "a string", int: "an integer"}[kind]
        raise FormatError(f"{where}: {key} must be {want}, found {_json_type(x)}")
    return x


def _strings(d: Any, key: str, where: str) -> tuple[str, ...]:
    xs = _field(d, key, list, where)
    if not all(isinstance(x, str) for x in xs):
        raise FormatError(f"{where}: {key} must be an array of strings")
    return tuple(xs)


def _edges(ges: Any, where: str) -> frozenset[tuple[int, int, str]]:
    if not isinstance(ges, list):
        raise FormatError(f"{where} must be an array of edges, found {_json_type(ges)}")
    out = set()
    for e in ges:
        if not (isinstance(e, list) and len(e) == 3
                and all(type(k) is int for k in e[:2]) and isinstance(e[2], str)):
            raise FormatError(f"{where}: malformed edge {_short(e)}")
        out.add((e[0], e[1], e[2]))
    return frozenset(out)


def system_from_doc(doc: Any) -> CyclicSystem:
    """Read an embedded ``system`` section; any malformed part raises
    :class:`FormatError` naming it."""
    judgments = {}
    for i, j in enumerate(_field(doc, "judgments", list, "system")):
        where = f"system judgment {i}"
        jid, ob, sorts = _field(j, "id", str, where), _field(j, "ob", int, where), _strings(j, "sorts", where)
        if jid in judgments:
            raise FormatError(f"system judgment {jid!r} declared twice")
        try:
            judgments[jid] = Judgment(jid, ob, sorts)
        except ValueError as e:
            raise FormatError(f"system {e}") from None
    rules = {}
    for i, r in enumerate(_field(doc, "rules", list, "system")):
        where = f"system rule {i}"
        rid = _field(r, "id", str, where)
        where = f"system rule {rid!r}"
        if rid in rules:
            raise FormatError(f"{where} declared twice")
        conclusion = _field(r, "conclusion", str, where)
        premises = _strings(r, "premises", where)
        ggs = _field(r, "graphs", list, where)
        if conclusion not in judgments:
            raise FormatError(f"{where} concludes an unknown judgment")
        if len(ggs) != len(premises):
            raise FormatError(f"{where}: {len(ggs)} graphs for {len(premises)} premises")
        src = judgments[conclusion].ob
        graphs = []
        for k, (prem, ges) in enumerate(zip(premises, ggs)):
            if prem not in judgments:
                raise FormatError(f"{where} has an unknown premise {prem!r}")
            edges = _edges(ges, f"{where} graph {k}")
            try:
                graphs.append(SizeChangeGraph(src, judgments[prem].ob, edges))
            except ValueError as e:
                raise FormatError(f"{where} graph {k}: {e}") from None
        rules[rid] = RuleScheme(id=rid, conclusion=conclusion, premises=premises, graphs=tuple(graphs))
    sys = CyclicSystem(
        judgments=judgments, rules=rules, ind_sorts=frozenset(_strings(doc, "ind_sorts", "system"))
    )
    if problems := validate_system(sys):
        raise FormatError("system: " + "; ".join(problems))
    return sys


# ---------------------------------------------------------------------------
# regular derivations
# ---------------------------------------------------------------------------

def derivation_to_doc(deriv: RegularDerivation, sys: CyclicSystem) -> dict:
    return {
        "format": DERIVATION,
        "system": system_to_doc(sys),
        "nodes": [
            {"id": nid, "rule": n.rule, "children": list(n.children)}
            for nid, n in deriv.nodes.items()
        ],
        "root": deriv.root,
    }


def derivation_from_doc(doc: dict) -> tuple[CyclicSystem, RegularDerivation]:
    """Read a derivation document, checked to be a derivation of its own
    system (every id names a node)."""
    _tag(doc, DERIVATION)
    sys = system_from_doc(_field(doc, "system", dict, "document"))
    nodes = {}
    for i, n in enumerate(_field(doc, "nodes", list, "derivation")):
        at = f"derivation node {i}"
        nid = _field(n, "id", str, at)
        if nid in nodes:
            raise FormatError(f"{at}: repeated id {nid!r}")
        nodes[nid] = DerivNode(
            rule=_field(n, "rule", str, at), children=_strings(n, "children", at)
        )
    deriv = RegularDerivation(nodes=nodes, root=_field(doc, "root", str, "derivation"))
    if problems := validate_derivation(deriv, sys):
        raise FormatError("derivation: " + "; ".join(problems))
    return sys, deriv


# ---------------------------------------------------------------------------
# inductive proofs
# ---------------------------------------------------------------------------

def _term_to_doc(t) -> list:
    if isinstance(t, logic.FreeV):
        return ["v", t.name]
    if isinstance(t, logic.BoundV):
        return ["b", t.k]
    raise FormatError(f"unknown term {t!r}")


def _leaf_to_doc(phi) -> list:
    if isinstance(phi, logic.Atom):
        return ["atom", phi.judg, [_term_to_doc(a) for a in phi.args]]
    if isinstance(phi, logic.Geq):
        return [">=", phi.sort, _term_to_doc(phi.left), _term_to_doc(phi.right)]
    if isinstance(phi, logic.Gt):
        return [">", phi.sort, _term_to_doc(phi.left), _term_to_doc(phi.right)]
    raise FormatError(f"unknown formula {phi!r}")


def _short(x) -> str:
    r = repr(x)
    return r if len(r) <= 40 else r[:37] + "..."


def _json_type(x) -> str:
    """The JSON type of a decoded value, for error messages."""
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "a boolean"
    if isinstance(x, (int, float)):
        return "a number"
    if isinstance(x, str):
        return "a string"
    return "an array" if isinstance(x, list) else "an object"


def _array(x, what: str) -> list:
    if not isinstance(x, list):
        raise FormatError(f"{what} must be an array, found {_json_type(x)}")
    return x


def _term_from_doc(x):
    if isinstance(x, list) and len(x) == 2:
        if x[0] == "v" and isinstance(x[1], str):
            return logic.FreeV(x[1])
        if x[0] == "b" and type(x[1]) is int and x[1] >= 0:
            return logic.BoundV(x[1])
        if x[0] not in ("v", "b"):
            raise FormatError(f"unknown term tag {_short(x[0])}")
    raise FormatError(f"malformed term {_short(x)}")


def _leaf_from_doc(x: list):
    tag = x[0] if x else None
    if tag == "atom" and len(x) == 3 and isinstance(x[1], str) and isinstance(x[2], list):
        return logic.Atom(x[1], tuple(_term_from_doc(a) for a in x[2]))
    if tag in (">=", ">") and len(x) == 4 and isinstance(x[1], str):
        order = logic.Geq if tag == ">=" else logic.Gt
        return order(x[1], _term_from_doc(x[2]), _term_from_doc(x[3]))
    if tag in ("atom", ">=", ">", "imp", "all"):
        raise FormatError(f"malformed {tag!r} formula")
    raise FormatError(f"unknown formula tag {_short(tag)}")


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(isinstance(s, str) for s in x)


def _all_indices(refs: list, n: int) -> bool:
    """Whether every entry of ``refs`` is an int in ``range(n)``."""
    return set(map(type, refs)) <= {int} and (not refs or (min(refs) >= 0 and max(refs) < n))


class _ProofReader:
    """Resolves the table references of one proof document.

    Each row of ``formulas`` and ``variables`` is built once, so every sequent
    that names a row shares its object, and equal contexts and equal
    hypothesis lists written as indices share one tuple each.
    Wherever an index is expected, the value may instead be written inline: a
    formula array (whose ``imp``/``all`` subformulas are again indices or
    arrays) or a ``[name, sort]`` pair.
    """

    def __init__(self, doc: dict) -> None:
        self.variables: list[tuple[str, str]] = []
        for i, v in enumerate(_array(doc.get("variables", []), "variables")):
            if not _is_pair(v):
                raise FormatError(f"variable row {i} is not a [name, sort] pair")
            self.variables.append((v[0], v[1]))
        rows = _array(doc.get("formulas", []), "formulas")
        self.size = len(rows)
        self.formulas: list[logic.Formula] = []
        self.shapes: list[tuple[int, int]] = []  # each row's depth and tree size
        for i, x in enumerate(rows):
            if not isinstance(x, list):
                raise FormatError(f"formula row {i} must be an array, found {_json_type(x)}")
            try:
                phi, depth, size = self.formula(x, i)
            except FormatError as e:
                raise FormatError(f"formula row {i}: {e}") from None
            self.formulas.append(phi)
            self.shapes.append((depth, size))
        self.contexts: dict[tuple, tuple[tuple[str, str], ...]] = {}
        self.hyps: dict[tuple, tuple[logic.Formula, ...]] = {}

    def formula(self, ref, limit: int, above: int = 0) -> tuple[logic.Formula, int, int]:
        """The formula ``ref`` names, its depth and its size as a tree.
        Indices must be below ``limit``; ``above`` counts the inline levels
        that enclose ``ref``."""
        if type(ref) is int:
            if not 0 <= ref < limit:
                if limit <= ref < self.size:
                    raise FormatError(f"formula index {ref} is not an earlier row")
                raise FormatError(f"formula index {ref} out of range: the table has {self.size} rows")
            phi, (depth, size) = self.formulas[ref], self.shapes[ref]
        elif isinstance(ref, list):
            phi, depth, size = self._inline(ref, limit, above)
        else:
            raise FormatError(f"expected a formula index or array, found {_json_type(ref)}")
        if above + depth > MAX_FORMULA_DEPTH:
            raise FormatError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
        if size > MAX_FORMULA_SIZE:
            raise FormatError(f"formula has more than {MAX_FORMULA_SIZE} nodes as a tree")
        return phi, depth, size

    def _inline(self, x: list, limit: int, above: int) -> tuple[logic.Formula, int, int]:
        if above >= MAX_FORMULA_DEPTH:
            raise FormatError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
        tag = x[0] if x else None
        if tag == "imp" and len(x) == 3:
            lhs, dl, sl = self.formula(x[1], limit, above + 1)
            rhs, dr, sr = self.formula(x[2], limit, above + 1)
            return logic.Imp(lhs, rhs), 1 + max(dl, dr), 1 + sl + sr
        if tag == "all" and len(x) == 4 and isinstance(x[1], str) and isinstance(x[2], str):
            body, db, sb = self.formula(x[3], limit, above + 1)
            return logic.Forall(x[1], body, hint=x[2]), 1 + db, 1 + sb
        return _leaf_from_doc(x), 1, 1

    def variable(self, ref) -> tuple[str, str]:
        if type(ref) is int:
            if not 0 <= ref < len(self.variables):
                raise FormatError(
                    f"variable index {ref} out of range: the table has {len(self.variables)} rows"
                )
            return self.variables[ref]
        if _is_pair(ref):
            return (ref[0], ref[1])
        raise FormatError(f"expected a variable index or [name, sort] pair, found {_short(ref)}")

    @staticmethod
    def _entries(refs, what: str, rows: list, memo: dict, entry) -> tuple:
        """The entries ``refs`` names: a list of indices into ``rows`` becomes
        the one tuple shared by every equal list, and any other list is
        resolved by ``entry``, entry by entry."""
        refs = _array(refs, what)
        if not _all_indices(refs, len(rows)):
            return tuple(map(entry, refs))
        key = tuple(refs)
        out = memo.get(key)
        if out is None:
            out = memo[key] = tuple(map(rows.__getitem__, refs))
        return out

    def sequent(self, d) -> logic.Sequent:
        if not isinstance(d, dict):
            raise FormatError(f"sequent must be an object, found {_json_type(d)}")
        hyps = self._entries(d.get("hyps"), "hyps", self.formulas, self.hyps,
                             lambda h: self.formula(h, self.size)[0])
        return logic.Sequent(
            ctx=self._entries(d.get("ctx"), "ctx", self.variables, self.contexts, self.variable),
            hyps=hyps,
            concl=self.formula(d.get("concl"), self.size)[0],
        )


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

    def __call__(self, phi: logic.Formula) -> int:
        row = self._row_of_obj.get(id(phi))
        if row is not None:
            return row
        if isinstance(phi, logic.Imp):
            key: object = ("imp", self(phi.lhs), self(phi.rhs))
        elif isinstance(phi, logic.Forall):
            key = ("all", phi.sort, phi.hint, self(phi.body))
        else:
            key = phi
        row = self._row_of_key.get(key)
        if row is None:
            row = self._row_of_key[key] = len(self.rows)
            self.rows.append(key)
        self._row_of_obj[id(phi)] = row
        return row


def proof_to_doc(proof: logic.Deriv, sys: CyclicSystem) -> dict:
    """Flatten a proof DAG into tables, writing every shared object once.

    - ``nodes``: one row per distinct ``Deriv`` object, after its children,
      which it names by row index, so the row count is
      :func:`cycind.logic.proof_size`;
    - ``formulas``: one row per distinct formula; atoms and orders are written
      inline, and the subformulas of an ``imp`` or ``all`` row are indices of
      earlier rows;
    - ``variables``: one ``[name, sort]`` row per distinct context entry;
    - a sequent is ``{"ctx": [variable index…], "hyps": [formula index…],
      "concl": formula index}``.
    """
    formula = FormulaNumbering()
    variables: list[list] = []
    row_of_var: dict[tuple[str, str], int] = {}

    def variable(entry: tuple[str, str]) -> int:
        row = row_of_var.get(entry)
        if row is None:
            row = row_of_var[entry] = len(variables)
            variables.append(list(entry))
        return row

    rows: list[dict] = []
    memo: dict[int, int] = {}
    stack: list[tuple[logic.Deriv, bool]] = [(proof, False)]
    while stack:
        d, done = stack.pop()
        if id(d) in memo:
            continue
        if not done:
            stack.append((d, True))
            for c in d.children:
                if id(c) not in memo:
                    stack.append((c, False))
            continue
        memo[id(d)] = len(rows)
        seq = d.seq
        rows.append(
            {
                "rule": d.rule,
                "seq": {
                    "ctx": [variable(e) for e in seq.ctx],
                    "hyps": [formula(h) for h in seq.hyps],
                    "concl": formula(seq.concl),
                },
                "children": [memo[id(c)] for c in d.children],
                "data": list(d.data),
            }
        )
    return {
        "format": PROOF,
        "system": system_to_doc(sys),
        "variables": variables,
        "formulas": [list(k) if isinstance(k, tuple) else _leaf_to_doc(k) for k in formula.rows],
        "nodes": rows,
        "root": memo[id(proof)],
    }


def proof_from_doc(doc: dict) -> tuple[CyclicSystem, logic.Deriv]:
    """Load a proof document; any malformed part raises :class:`FormatError`."""
    _tag(doc, PROOF)
    sys = system_from_doc(_field(doc, "system", dict, "document"))
    reader = _ProofReader(doc)
    built: list[logic.Deriv] = []
    for i, row in enumerate(_array(doc.get("nodes"), "nodes")):
        try:
            if not isinstance(row, dict):
                raise FormatError(f"row must be an object, found {_json_type(row)}")
            kids = []
            for c in _array(row.get("children"), "children"):
                if type(c) is not int or c < 0:
                    raise FormatError(f"child {_short(c)} is not a node index")
                if c >= i:
                    raise FormatError(f"refers to a later node {_short(c)}")
                kids.append(built[c])
            if not isinstance(row.get("rule"), str):
                raise FormatError(f"rule must be a string, found {_json_type(row.get('rule'))}")
            built.append(logic.Deriv(
                rule=row["rule"],
                seq=reader.sequent(row.get("seq")),
                children=tuple(kids),
                data=tuple(_array(row.get("data"), "data")),
            ))
        except FormatError as e:
            raise FormatError(f"node {i}: {e}") from None
    root = doc.get("root")
    if type(root) is not int or not 0 <= root < len(built):
        raise FormatError("root not present in the node table")
    return sys, built[root]


# ---------------------------------------------------------------------------
# top-level helpers
# ---------------------------------------------------------------------------

_KINDS = {
    CALLSYSTEM: ("callsystem", call_system_from_doc),
    DERIVATION: ("derivation", derivation_from_doc),
    PROOF: ("proof", proof_from_doc),
}


def loads(text: str) -> tuple[str, Any]:
    """Parse any known document; returns (kind, loaded object(s))."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise FormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    tag = doc.get("format")
    if not isinstance(tag, str) or tag not in _KINDS:
        raise FormatError(f"unknown format tag {_short(tag)}")
    kind, loader = _KINDS[tag]
    return kind, loader(doc)


def dumps(doc: dict) -> str:
    """One line of compact JSON: proof documents are tables, not prose."""
    return json.dumps(doc, separators=(",", ":")) + "\n"
