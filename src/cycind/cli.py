"""Command line frontend.

Four subcommands over the three document kinds (plus ``.fun`` sources for the
mini-language):

- ``sct``      decide termination / soundness; exit 0 terminating, 1 not;
- ``unravel``  unfold a sound input into an inductive proof file;
- ``verify``   run the proof checker over a proof file, and with ``--source``
  check that it proves the source's statement;
- ``show``     render any document as text or dot.

Exit codes: 0 ok / positive verdict, 1 negative verdict or failed check,
2 usage, I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

# verify and show need only the reader and the kernel; every other stage is
# imported by the command that runs it
from . import formats
from .core import induced_call_graph, induced_proof_system
from .logic import LogicError, check_proof, distinct_nodes, proof_size, states_judgment


class _CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _CliError(str(e)) from None
    except UnicodeDecodeError as e:
        raise _CliError(f"{path}: not UTF-8 text ({e})") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _CliError(str(e)) from None


def _load(path: str):
    text = _read(path)
    if path.endswith(".fun"):
        from .minilang import MiniLangError, parse_call_system

        try:
            return "callsystem", parse_call_system(text)
        except MiniLangError as e:
            raise _CliError(f"{path}: {e}") from None
    try:
        return formats.loads(text)
    except formats.FormatError as e:
        raise _CliError(f"{path}: {e}") from None


def _as_call_system(kind, obj):
    if kind == "callsystem":
        return obj
    if kind == "derivation":
        sys_, deriv = obj
        return induced_call_graph(deriv, sys_)
    raise _CliError(f"cannot run termination analysis on a {kind} document")


def render_trace(rep: ResetRep) -> str:
    """Preorder listing of the representation: one line per node with its
    annotation, resets, and back-edge.  The text ends in exactly one newline."""
    from .annotate import render_annotation

    lines = []
    stack = [rep.root]
    while stack:
        nid = stack.pop()
        n = rep.nodes[nid]
        line = f"{'  ' * n.depth}{nid} {n.rule}: {render_annotation(n.ann)}"
        for r in n.ann.resets:
            line += f" [reset {r.name} covered by {r.cover}]"
        if n.is_bud:
            line += f" => {n.sprout} on {n.prog}"
        lines.append(line)
        stack.extend(reversed(n.children))
    return "\n".join(lines) + "\n"


def _print_lasso(header: str, lasso, file=None, names: dict[str, str] | None = None) -> None:
    """Print ``lasso``, with each call renamed by ``names`` where it has an entry."""
    names = names or {}
    print(header, file=file)
    print(f"  prefix: {' '.join(names.get(c, c) for c in lasso.prefix) or '(empty)'}", file=file)
    print(f"  cycle:  {' '.join(names.get(c, c) for c in lasso.cycle)}", file=file)


def _call_ids(cs) -> dict[str, str]:
    """The source's id of each call of the derivation that
    :func:`~cycind.core.induced_proof_system` induces: call ``i`` of ``f``,
    ``f.i``, is the ``i``-th call out of ``f`` in the source's order."""
    out, count = {}, Counter()
    for c in cs.calls:
        out[f"{c.dom}.{count[c.dom]}"] = c.id
        count[c.dom] += 1
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sct(args) -> int:
    from .sct import decide_termination

    kind, obj = _load(args.path)
    cs = _as_call_system(kind, obj)
    roots = frozenset(args.roots) if args.roots else None
    if roots:
        unknown = roots - set(cs.functions)
        if unknown:
            raise _CliError(f"unknown roots: {', '.join(sorted(unknown))}")
    verdict = decide_termination(cs, roots=roots)
    if args.json:
        doc = {
            "terminating": verdict.terminating,
            "closure_size": verdict.closure_size,
            "counterexample": None
            if verdict.counterexample is None
            else {
                "prefix": list(verdict.counterexample.prefix),
                "cycle": list(verdict.counterexample.cycle),
            },
        }
        print(json.dumps(doc, indent=2))
    elif verdict.terminating:
        print(f"terminating (closure size {verdict.closure_size})")
    else:
        _print_lasso("non-terminating: cycle with no progressing trace", verdict.counterexample)
        print(f"  (closure size {verdict.closure_size})")
    return 0 if verdict.terminating else 1


def _pick_derivation(path, kind, obj, fun):
    if kind == "callsystem":
        if not obj.functions:
            raise _CliError(f"{path}: the call system has no function to unravel")
        sys_, derivs = induced_proof_system(obj)
        if fun is None:
            fun = next(iter(obj.functions))
        if fun not in derivs:
            raise _CliError(f"no function {fun!r} in the input")
        return sys_, derivs[fun]
    if kind == "derivation":
        if fun is not None:
            raise _CliError("--fun only applies to call-system inputs")
        return obj
    raise _CliError(f"cannot unravel a {kind} document")


def cmd_unravel(args) -> int:
    from .translate import prove_by_induction
    from .unfold import UnfoldCapError, UnsoundDerivationError

    kind, obj = _load(args.path)
    sys_, deriv = _pick_derivation(args.path, kind, obj, args.fun)
    try:
        rep, proof = prove_by_induction(deriv, sys_)
    except UnsoundDerivationError as e:
        _print_lasso("input is not sound: cycle with no progressing trace",
                     e.verdict.counterexample, file=sys.stderr,
                     names=_call_ids(obj) if kind == "callsystem" else None)
        return 1
    except UnfoldCapError as e:
        raise _CliError(str(e)) from None
    if args.trace:
        # the proof document alone goes to stdout when there is no --out
        (sys.stdout if args.out else sys.stderr).write(render_trace(rep))
    if args.dot:
        from .dot import rep_to_dot

        _write(args.dot, rep_to_dot(rep))
    doc = formats.dumps(formats.proof_to_doc(proof, sys_))
    if args.out:
        _write(args.out, doc)
        rules = [d.rule for d in distinct_nodes(proof)]
        print(
            f"wrote proof: {len(rules)} nodes,"
            f" {rules.count('gt_ind')} induction applications -> {args.out}"
        )
    else:
        sys.stdout.write(doc)
    return 0


def _check_statement(args, sys_, proof) -> str | None:
    """What keeps ``proof`` over ``sys_`` from proving the statement of
    ``--source``: the system that the source induces, and the judgment of its
    root function (``--fun``, by default the first) or root rule."""
    kind, obj = _load(args.source)
    if kind == "proof":
        raise _CliError("--source expects a call system or a derivation, found proof")
    src_sys, deriv = _pick_derivation(args.source, kind, obj, args.fun)
    judg = src_sys.rules[deriv.nodes[deriv.root].rule].conclusion
    if sys_ != src_sys:
        return f"the document's system is not the one {args.source} induces"
    if not states_judgment(sys_, proof.seq, judg):
        return f"the conclusion is not {judg} at its context variables with no hypotheses"
    return None


def cmd_verify(args) -> int:
    kind, obj = _load(args.path)
    if kind != "proof":
        raise _CliError(f"verify expects a proof document, found {kind}")
    if args.fun is not None and args.source is None:
        raise _CliError("--fun only applies with --source")
    sys_, proof = obj
    if args.source is not None and (err := _check_statement(args, sys_, proof)):
        print(f"invalid proof: {err}", file=sys.stderr)
        return 1
    try:
        check_proof(sys_, proof)
    except LogicError as e:
        print(f"invalid proof: {e}", file=sys.stderr)
        return 1
    print(f"ok: {proof_size(proof)} nodes, conclusion {proof.seq.render()}")
    return 0


def cmd_show(args) -> int:
    kind, obj = _load(args.path)
    if args.dot:
        from .dot import call_system_to_dot, derivation_to_dot

        if kind == "callsystem":
            out = call_system_to_dot(obj)
        elif kind == "derivation":
            out = derivation_to_dot(obj[1], obj[0])
        else:
            raise _CliError("no dot rendering for proof documents")
        sys.stdout.write(out)
        return 0
    if kind == "callsystem":
        print(f"call system: {len(obj.functions)} functions, {len(obj.calls)} calls")
        for f, sorts in obj.functions.items():
            print(f"  fun {f}({', '.join(sorts)})")
        for c in obj.calls:
            print(f"  {c.id}: {c.dom} -> {c.codom}  {c.graph}")
    elif kind == "derivation":
        sys_, deriv = obj
        print(f"derivation: {len(deriv.nodes)} nodes, root {deriv.root}")
        for nid, n in deriv.nodes.items():
            kids = ", ".join(n.children) if n.children else "-"
            print(f"  {nid}: {n.rule} [{kids}]")
    else:
        sys_, proof = obj
        hist = Counter(d.rule for d in distinct_nodes(proof))
        print(f"proof: {proof_size(proof)} nodes")
        print(f"  conclusion: {proof.seq.render()}")
        for rule in sorted(hist):
            print(f"  {rule}: {hist[rule]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cycind",
        description="size-change termination and unravelling of cyclic proofs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sct", help="decide termination of a call system or derivation")
    p.add_argument("path")
    p.add_argument("--roots", nargs="*", help="restrict entry points to these functions")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_sct)

    p = sub.add_parser("unravel", help="unfold a sound input into an inductive proof")
    p.add_argument("path")
    p.add_argument("--out", help="write the proof document here (default: stdout)")
    p.add_argument("--dot", help="also write the annotated representation as dot")
    p.add_argument("--trace", action="store_true", help="print the annotation trace (to stderr if no --out)")
    p.add_argument("--fun", help="which function to unravel (call-system inputs)")
    p.set_defaults(fn=cmd_unravel)

    p = sub.add_parser("verify", help="check a proof document")
    p.add_argument("path")
    p.add_argument("--source", help="also require the proof to state this source's root judgment")
    p.add_argument("--fun", help="which function's judgment (call-system sources)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("show", help="render any document as text or dot")
    p.add_argument("path")
    p.add_argument("--dot", action="store_true", help="emit graphviz instead of text")
    p.set_defaults(fn=cmd_show)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LogicError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
