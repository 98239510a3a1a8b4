"""A small first-order function-definition language and its call extraction.

The language defines sorts by constructors and functions by pattern-matching
clauses::

    sort Nat = 0 | suc(Nat)

    fun plus(Nat, Nat)
    plus(0, x1) := x1
    plus(suc(x0'), x1) := suc(plus(x1, x0'))

Identifiers may start with digits (so numerals can serve as constructor
names) and may contain primes.  ``+``, ``-`` and ``*`` parse as left
associative infix operators but stay entirely opaque: they build terms that
contribute nothing to the extracted graphs.  ``#`` starts a line comment.

Extraction turns every application of a defined function in a clause body
(collected in post-order, clauses in source order) into a call whose graph is
read off syntactically: argument ``t`` at call position ``m`` yields an edge
from head position ``i`` labelled ``>=`` when ``t`` equals the whole ``i``-th
head pattern, and ``>`` when ``t`` is a variable bound strictly inside it.
Anything else — in particular results of other calls or opaque operators —
yields no edge, which keeps the extraction sound but deliberately
incomplete: a definition can terminate for reasons this syntactic reading
cannot see.
"""

from __future__ import annotations

import re

from .core import GEQ, GT, Call, CallSystem, Record, SizeChangeGraph, validate_call_system


class MiniLangError(ValueError):
    pass


class Term(Record):
    __slots__ = ("name", "args")
    name: str
    args: tuple[Term, ...]
    _defaults = {"args": ()}

    def __str__(self) -> str:
        if not self.args:
            return self.name
        if self.name in _INFIX and len(self.args) == 2:
            return f"({self.args[0]} {self.name} {self.args[1]})"
        return f"{self.name}({', '.join(map(str, self.args))})"


class Clause(Record):
    __slots__ = ("fun", "patterns", "body", "line")
    fun: str
    patterns: tuple[Term, ...]
    body: Term
    line: int


class Program(Record):
    __slots__ = ("sorts", "funs", "clauses")
    sorts: dict  # sort -> {ctor: (arg sorts...)}
    funs: dict  # fun -> (arg sorts...)
    clauses: tuple[Clause, ...]


_INFIX = ("+", "-", "*")

# Term nesting accepted by the parser, clause heads included.  The parser,
# the extraction and the terms' comparisons all recurse on terms; the worked
# systems' terms stay below 8 levels.
MAX_TERM_DEPTH = 128

_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<assign>:=)
      | (?P<ident>[A-Za-z0-9_][A-Za-z0-9_']*)
      | (?P<sym>[()|,=+*-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos, line = 0, 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise MiniLangError(f"line {line}: unexpected character {text[pos]!r}")
        kind = m.lastgroup
        val = m.group()
        if kind == "ws":
            line += val.count("\n")
        else:
            out.append((kind, val, line))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        # end of input is reported at the line of the last token
        self.last_line = tokens[-1][2] if tokens else 1

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.last_line)

    def next(self):
        t = self.peek()
        if t[0] is None:
            raise MiniLangError(f"line {t[2]}: unexpected end of input")
        self.i += 1
        return t

    def name(self, what):
        """The next token, which must be an identifier naming ``what``."""
        kind, val, line = self.next()
        if kind != "ident":
            raise MiniLangError(f"line {line}: expected {what} name, found {val!r}")
        return val, line

    def expect(self, val):
        kind, got, line = self.next()
        if got != val:
            raise MiniLangError(f"line {line}: expected {val!r}, found {got!r}")
        return got

    def at_symbol(self, val):
        kind, got, _ = self.peek()
        return got == val and kind in ("sym", "assign")


def _too_deep(line: int) -> MiniLangError:
    return MiniLangError(f"line {line}: term nests deeper than {MAX_TERM_DEPTH} levels")


def _parse_atom(cur: _Cursor, above: int = 0) -> tuple[Term, int]:
    """The next atom and its depth; ``above`` counts the brackets that
    enclose it."""
    kind, val, line = cur.next()
    if above >= MAX_TERM_DEPTH:
        raise _too_deep(line)
    if val == "(":
        t = _parse_term(cur, above + 1)
        cur.expect(")")
        return t
    if kind != "ident":
        raise MiniLangError(f"line {line}: expected a term, found {val!r}")
    if cur.at_symbol("("):
        cur.next()
        args = [_parse_term(cur, above + 1)]
        while cur.at_symbol(","):
            cur.next()
            args.append(_parse_term(cur, above + 1))
        cur.expect(")")
        return Term(val, tuple(a for a, _ in args)), 1 + max(d for _, d in args)
    return Term(val), 1


def _parse_term(cur: _Cursor, above: int = 0) -> tuple[Term, int]:
    t, depth = _parse_atom(cur, above)
    while cur.peek()[1] in _INFIX:
        _, op, line = cur.next()
        rhs, rdepth = _parse_atom(cur, above + 1)
        # the chain nests to the left, one level per operator
        t, depth = Term(op, (t, rhs)), 1 + max(depth, rdepth)
        if above + depth > MAX_TERM_DEPTH:
            raise _too_deep(line)
    return t, depth


def parse(text: str) -> Program:
    cur = _Cursor(_tokenize(text))
    sorts: dict = {}
    funs: dict = {}
    clauses: list[Clause] = []
    while cur.peek()[0] is not None:
        kind, val, line = cur.peek()
        if val == "sort":
            cur.next()
            name, _ = cur.name("a sort")
            if name in sorts:
                raise MiniLangError(f"line {line}: sort {name!r} redeclared")
            cur.expect("=")
            ctors: dict = {}
            while True:
                cname, cline = cur.name("a constructor")
                args: list[str] = []
                if cur.at_symbol("("):
                    cur.next()
                    args.append(cur.name("a sort")[0])
                    while cur.at_symbol(","):
                        cur.next()
                        args.append(cur.name("a sort")[0])
                    cur.expect(")")
                if cname in ctors:
                    raise MiniLangError(f"line {cline}: constructor {cname!r} redeclared")
                ctors[cname] = tuple(args)
                if not cur.at_symbol("|"):
                    break
                cur.next()
            sorts[name] = ctors
        elif val == "fun":
            cur.next()
            name, fline = cur.name("a function")
            if name in funs:
                raise MiniLangError(f"line {fline}: fun {name!r} redeclared")
            cur.expect("(")
            args = [cur.name("a sort")[0]]
            while cur.at_symbol(","):
                cur.next()
                args.append(cur.name("a sort")[0])
            cur.expect(")")
            funs[name] = tuple(args)
        else:
            head, _ = _parse_atom(cur)
            cur.expect(":=")
            body, _ = _parse_term(cur)
            if head.name not in funs:
                raise MiniLangError(f"line {line}: clause head {head.name!r} is not a declared fun")
            if len(head.args) != len(funs[head.name]):
                raise MiniLangError(
                    f"line {line}: {head.name!r} takes {len(funs[head.name])} arguments,"
                    f" clause head has {len(head.args)}"
                )
            clauses.append(Clause(head.name, head.args, body, line))

    # every referenced sort must exist; constructor names must be unambiguous
    ctor_sort: dict = {}
    for s, ctors in sorts.items():
        for c, cargs in ctors.items():
            if c in ctor_sort:
                raise MiniLangError(f"constructor {c!r} declared in two sorts")
            ctor_sort[c] = s
            for a in cargs:
                if a not in sorts:
                    raise MiniLangError(f"constructor {c!r} refers to unknown sort {a!r}")
    for f, fargs in funs.items():
        for a in fargs:
            if a not in sorts:
                raise MiniLangError(f"fun {f!r} refers to unknown sort {a!r}")
    return Program(sorts=sorts, funs=funs, clauses=tuple(clauses))


def _pattern_vars(prog: Program, clause: Clause) -> dict:
    """Map each head variable to (position, sort, bound-strictly-inside)."""
    ctor_args = {c: a for ctors in prog.sorts.values() for c, a in ctors.items()}
    ctor_sort = {c: s for s, ctors in prog.sorts.items() for c in ctors}
    out: dict = {}

    def walk(t: Term, sort: str, i: int, depth: int) -> None:
        if t.name in ctor_args:
            if ctor_sort[t.name] != sort:
                raise MiniLangError(
                    f"line {clause.line}: constructor {t.name!r} is not of sort {sort!r}"
                )
            if len(t.args) != len(ctor_args[t.name]):
                raise MiniLangError(
                    f"line {clause.line}: constructor {t.name!r} applied to"
                    f" {len(t.args)} arguments"
                )
            for a, s2 in zip(t.args, ctor_args[t.name]):
                walk(a, s2, i, depth + 1)
            return
        if t.args:
            raise MiniLangError(
                f"line {clause.line}: {t.name!r} is not a constructor; patterns"
                " contain only constructors and variables"
            )
        if t.name in out:
            raise MiniLangError(f"line {clause.line}: variable {t.name!r} bound twice")
        out[t.name] = (i, sort, depth > 0)

    for i, (pat, sort) in enumerate(zip(clause.patterns, prog.funs[clause.fun])):
        walk(pat, sort, i, 0)
    return out


def extract(prog: Program) -> CallSystem:
    """The call system of a program, one call per function application."""
    counters = {f: 0 for f in prog.funs}
    calls: list[Call] = []
    for clause in prog.clauses:
        pvars = _pattern_vars(prog, clause)
        found: list[Term] = []

        def scan(t: Term) -> None:
            for a in t.args:
                scan(a)
            if t.name in prog.funs:
                if len(t.args) != len(prog.funs[t.name]):
                    raise MiniLangError(
                        f"line {clause.line}: {t.name!r} takes"
                        f" {len(prog.funs[t.name])} arguments"
                    )
                found.append(t)

        scan(clause.body)
        for call_term in found:
            edges = set()
            for m, arg in enumerate(call_term.args):
                for i, pat in enumerate(clause.patterns):
                    if arg == pat:
                        edges.add((i, m, GEQ))
                if not arg.args and arg.name in pvars:
                    i, _sort, strict = pvars[arg.name]
                    if strict:
                        edges.add((i, m, GT))
            graph = SizeChangeGraph(
                len(prog.funs[clause.fun]),
                len(prog.funs[call_term.name]),
                frozenset(edges),
            )
            calls.append(
                Call(
                    id=f"{clause.fun}.{counters[clause.fun]}",
                    dom=clause.fun,
                    codom=call_term.name,
                    graph=graph,
                )
            )
            counters[clause.fun] += 1
    cs = CallSystem(
        functions=dict(prog.funs),
        calls=tuple(calls),
        ind_sorts=frozenset(prog.sorts),
    )
    problems = validate_call_system(cs)
    if problems:
        raise MiniLangError("ill-sorted extraction: " + "; ".join(problems))
    return cs


def parse_call_system(text: str) -> CallSystem:
    return extract(parse(text))
