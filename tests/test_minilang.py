"""The definition language: parsing, validation, and call extraction."""

import pytest

from cycind import GEQ, GT, parse_call_system
from cycind.minilang import MAX_TERM_DEPTH, MiniLangError, Term, extract, parse

import systems


def graphs(cs):
    return {c.id: (c.dom, c.codom, set(c.graph.edges)) for c in cs.calls}


def test_parse_structure():
    prog = parse(systems.PLUS)
    assert prog.sorts == {"Nat": {"0": (), "suc": ("Nat",)}}
    assert prog.funs == {"plus": ("Nat", "Nat")}
    assert [c.line for c in prog.clauses] == [4, 5]
    head0 = prog.clauses[0]
    assert head0.patterns == (Term("0"), Term("x1"))
    assert head0.body == Term("x1")


def test_term_rendering_uses_infix():
    t = Term("+", (Term("+", (Term("a"), Term("b"))), Term("d", (Term("c"),))))
    assert str(t) == "((a + b) + d(c))"


def test_comments_and_numerals():
    cs = parse_call_system(
        "# numerals are just constructor names\n"
        "sort Nat = 0 | suc(Nat)  # two constructors\n"
        "fun f(Nat)\n"
        "f(suc(x)) := f(x)\n"
    )
    assert graphs(cs) == {"f.0": ("f", "f", {(0, 0, GT)})}


def test_plus_extraction():
    cs = systems.load("plus")
    assert graphs(cs) == {"plus.0": ("plus", "plus", {(0, 1, GT), (1, 0, GEQ)})}


def test_ack_extraction_orders_calls_innermost_first():
    cs = systems.load("ack")
    assert graphs(cs) == {
        "ack.0": ("ack", "ack", {(0, 0, GT)}),
        # the nested clause: the inner application is collected before the
        # outer one, and its first argument repeats the whole head pattern
        "ack.1": ("ack", "ack", {(0, 0, GEQ), (1, 1, GT)}),
        "ack.2": ("ack", "ack", {(0, 0, GT)}),
    }


def test_dist_extraction_sees_through_opaque_operators():
    cs = systems.load("dist")
    assert graphs(cs) == {
        "d.0": ("d", "d", {(1, 0, GT), (1, 1, GT)}),
        "d.1": ("d", "d", {(0, 0, GT), (1, 1, GT)}),
        "d.2": ("d", "d", {(0, 0, GT), (0, 1, GT)}),
    }


def test_argument_computed_by_a_call_contributes_no_edge():
    cs = systems.load("ack")
    # ack.2 passes ack(suc(x0'), x1') in position 1: nothing is known about it
    (g,) = [set(c.graph.edges) for c in cs.calls if c.id == "ack.2"]
    assert not any(m == 1 for (_i, m, _l) in g)


def test_whole_pattern_variable_is_weak_not_strict():
    cs = parse_call_system("sort Nat = 0 | suc(Nat)\nfun f(Nat)\nf(x0) := f(x0)\n")
    assert graphs(cs) == {"f.0": ("f", "f", {(0, 0, GEQ)})}


def test_tree_sort_extraction():
    cs = systems.load("treedist")
    assert cs.functions == {"d": ("Tree", "Tree")}
    assert cs.ind_sorts == frozenset({"Tree"})
    assert graphs(cs) == graphs(systems.load("dist"))


def _nested(k: int) -> str:
    """``suc`` applied ``k`` times to ``x``: a term ``k + 1`` levels deep."""
    return "suc(" * k + "x" + ")" * k


NAT_F = "sort Nat = 0 | suc(Nat)\nfun f(Nat)\n"
TOO_DEEP = f"line 3: term nests deeper than {MAX_TERM_DEPTH} levels"


@pytest.mark.parametrize(
    "src, msg",
    [
        ("sort Nat = 0\nsort Nat = 1\n", "line 2: sort 'Nat' redeclared"),
        ("sort Nat = 0 | 0\n", "line 1: constructor '0' redeclared"),
        ("sort Nat = 0\nfun f(Nat)\nfun f(Nat)\n", "line 3: fun 'f' redeclared"),
        ("sort Nat = 0\nfun f(Tree)\n", "fun 'f' refers to unknown sort 'Tree'"),
        ("sort Nat = 0 | suc(Tree)\n",
         "constructor 'suc' refers to unknown sort 'Tree'"),
        ("sort A = z\nsort B = z\n", "constructor 'z' declared in two sorts"),
        ("sort Nat = 0\nf(x0) := x0\n",
         "line 2: clause head 'f' is not a declared fun"),
        ("sort Nat = 0 | suc(Nat)\nfun f(Nat)\nf(x0, x1) := x0\n",
         "line 3: 'f' takes 1 arguments, clause head has 2"),
        ("sort Nat = 0 | suc(Nat)\nfun f(Nat, Nat)\nf(x, x) := x\n",
         "line 3: variable 'x' bound twice"),
        ("sort Nat = 0\nfun f(Nat)\nf(x) := x ? x\n",
         "line 3: unexpected character '?'"),
        ("sort Nat = 0 | suc(Nat)\nfun f(Nat)\nf(suc(x)) := f(x, x)\n",
         "line 3: 'f' takes 1 arguments"),
        ("sort Nat = 0 | suc(Nat)\nfun f(Nat)\nf(g(x)) := x\n",
         "line 3: 'g' is not a constructor; patterns contain only constructors"
         " and variables"),
        ("sort Nat = 0 | suc(Nat)\nsort T = leaf\nfun f(Nat, T)\nf(leaf, x1) := x1\n",
         "line 4: constructor 'leaf' is not of sort 'Nat'"),
        ("sort Nat = 0 | suc(Nat)\nfun f(Nat)\nf(suc(x, y)) := x\n",
         "line 3: constructor 'suc' applied to 2 arguments"),
        ("sort Nat = 0\nfun f(Nat)\nf(x) := ,\n",
         "line 3: expected a term, found ','"),
        ("sort Nat = 0\nfun f(Nat)\nf(x := x\n", "line 3: expected ')', found ':='"),
        # names are identifiers, and end of input is located at the last line
        ("sort Nat =", "line 1: unexpected end of input"),
        ("sort Nat = ( | )", "line 1: expected a constructor name, found '('"),
        ("sort = 0\n", "line 1: expected a sort name, found '='"),
        ("sort Nat = 0 | suc(,)\n", "line 1: expected a sort name, found ','"),
        ("sort Nat = 0\nfun (Nat)\n", "line 2: expected a function name, found '('"),
        ("sort Nat = 0\nfun f(Nat, =)\n", "line 2: expected a sort name, found '='"),
        ("sort Nat = 0\nfun f(Nat\n\n", "line 2: unexpected end of input"),
        ("sort Nat = 0\nfun f(Nat)\nf(x) :=\n# trailing comment\n", "line 3: unexpected end of input"),
        ("sort Nat = 0\nfun f(Nat)\nf(x) := (x", "line 3: unexpected end of input"),
        ("sort", "line 1: unexpected end of input"),
        (f"{NAT_F}f(suc(x)) := {_nested(MAX_TERM_DEPTH)}", TOO_DEEP),
        (f"{NAT_F}f({_nested(MAX_TERM_DEPTH - 1)}) := f(x)", TOO_DEEP),
        (NAT_F + "f(suc(x)) := " + " + ".join(["x"] * (MAX_TERM_DEPTH + 1)), TOO_DEEP),
        (NAT_F + "f(suc(x)) := " + "(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH, TOO_DEEP),
    ],
)
def test_rejections(src, msg):
    with pytest.raises(MiniLangError) as exc:
        parse_call_system(src)
    assert str(exc.value) == msg


def test_cross_sort_call_is_ill_sorted():
    src = (
        "sort Nat = 0 | suc(Nat)\n"
        "sort T = leaf | br(T)\n"
        "fun f(Nat)\n"
        "fun g(T)\n"
        "f(suc(x)) := g(x)\n"
        "g(br(y)) := f(y)\n"
    )
    with pytest.raises(MiniLangError) as exc:
        parse_call_system(src)
    assert str(exc.value) == (
        "ill-sorted extraction: call f.0: edge 0->0 joins sorts 'Nat' and 'T';"
        " call g.0: edge 0->0 joins sorts 'T' and 'Nat'"
    )


def test_extract_without_validation_needs_parse_first():
    prog = parse(systems.ACK)
    cs = extract(prog)
    assert cs == systems.load("ack")


@pytest.mark.parametrize("clause", [
    f"f(suc(x)) := {_nested(MAX_TERM_DEPTH - 1)}",
    f"f({_nested(MAX_TERM_DEPTH - 2)}) := f(x)",  # the head f(...) is a level
    "f(suc(x)) := " + " + ".join(["x"] * MAX_TERM_DEPTH),  # operators nest to the left
])
def test_terms_at_the_depth_limit_parse(clause):
    assert len(parse(f"{NAT_F}{clause}\n").clauses) == 1
