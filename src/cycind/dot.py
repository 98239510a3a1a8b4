"""Graphviz (dot) renderings of call systems, derivations and representations."""

from __future__ import annotations

from html import escape

from .core import CallSystem, CyclicSystem, RegularDerivation


def _edges_label(graph) -> str:
    return ", ".join(f"{s}{lab}{d}" for s, d, lab in graph.sorted_edges())


def call_system_to_dot(cs: CallSystem) -> str:
    lines = ["digraph calls {", "  node [shape=box];"]
    for f, sorts in cs.functions.items():
        lines.append(f'  "{f}" [label="{f}({", ".join(sorts)})"];')
    for c in cs.calls:
        lines.append(f'  "{c.dom}" -> "{c.codom}" [label="{c.id}: {_edges_label(c.graph)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def derivation_to_dot(deriv: RegularDerivation, sys: CyclicSystem) -> str:
    lines = ["digraph derivation {", "  node [shape=box];"]
    for nid, n in deriv.nodes.items():
        judg = sys.rules[n.rule].conclusion
        lines.append(f'  "{nid}" [label="{nid}: {n.rule} : {judg}"];')
    for nid, n in deriv.nodes.items():
        for i, c in enumerate(n.children):
            lines.append(f'  "{nid}" -> "{c}" [label="{i}"];')
    lines.append(f'  "{deriv.root}" [penwidth=2];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ann_html(node) -> str:
    """The node's stacks, one cell per position, struck names struck out."""
    ann = node.ann
    cells = []
    for j in range(ann.ob):
        bits = [escape(a) for a in ann.stacks[j]]
        bits += [f"<s>{escape(a)}</s>" for a in ann.struck(j)]
        cells.append(" ".join(bits) if bits else "&#8208;")
    return " | ".join(cells)


def rep_to_dot(rep: ResetRep) -> str:
    """The representation as a tree with dashed back-edges.

    Internal nodes show rule, judgment and annotation; every bud carries a
    dashed edge to its sprout labelled with the progressing name.
    """
    lines = ["digraph rep {", "  node [shape=box];"]
    for nid, n in rep.nodes.items():
        judg = rep.judgment_of(nid)
        label = f"<B>{escape(nid)}</B> {escape(n.rule)} : {escape(judg)}<BR/>({_ann_html(n)})"
        style = ', style="filled", fillcolor="gray92"' if n.is_bud else ""
        lines.append(f'  "{nid}" [label=<{label}>{style}];')
    for nid, n in rep.nodes.items():
        for c in n.children:
            lines.append(f'  "{nid}" -> "{c}";')
        if n.is_bud:
            lines.append(
                f'  "{nid}" -> "{n.sprout}" [style=dashed, constraint=false,'
                f' label="{n.prog}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
