"""Value semantics of the records every module is built from (``core.Record``),
and the start-up cost they keep off every command-line call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycind import GEQ, GT, SizeChangeGraph, VarRef
from cycind.annotate import init_annotation
from cycind.formats import FormulaNumbering
from cycind.logic import Atom, BoundV, Deriv, Forall, FreeV, Geq, Gt, Imp, Sequent
from cycind.sct import ClosureElement, Lasso, SctVerdict
from cycind.unfold import RepNode

X, Y = FreeV("x"), FreeV("y")
PHI = Forall("Nat", Imp(Gt("Nat", FreeV("u"), BoundV(0)), Atom("plus", (BoundV(0), Y))), hint="u")


def test_records_of_different_classes_are_unequal():
    assert Geq("Nat", X, Y) != Gt("Nat", X, Y)
    assert Geq("Nat", X, Y) == Geq("Nat", FreeV("x"), FreeV("y"))
    assert hash(Geq("Nat", X, Y)) == hash(Geq("Nat", FreeV("x"), FreeV("y")))
    assert len({Geq("Nat", X, Y), Gt("Nat", X, Y)}) == 2


def test_forall_hint_is_out_of_equality_but_shown():
    other = PHI.replace(hint="v")
    assert other == PHI and hash(other) == hash(PHI)
    assert "hint='v'" in repr(other)
    number = FormulaNumbering()
    assert number(PHI) != number(other)
    assert number.rows[number(other)][2] == "v"


def test_verdict_culprit_is_out_of_equality():
    lasso = Lasso((), ("f.0",))
    graph = SizeChangeGraph(1, 1, frozenset())
    a = SctVerdict(False, lasso, 1, culprit=ClosureElement("f", "f", graph, ("f.0",)))
    assert a == SctVerdict(False, lasso, 1)
    assert a != SctVerdict(False, lasso, 2)


@pytest.mark.parametrize("record, field", [(X, "name"), (PHI, "hint"), (VarRef(0, 1), "pos"),
                                           (SctVerdict(True), "culprit")])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_a_subclass_without_slots_keeps_its_bases_fields():
    # the compiled constructor finds the base's slot, and the subclass stays
    # an immutable value record of its own class
    class Named(FreeV):
        pass

    a = Named("a")
    assert a.name == "a" and a == Named(name="a") and hash(a) == hash(Named("a"))
    assert a != FreeV("a")
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        a.name = "b"


def test_size_change_graphs_normalise():
    g = SizeChangeGraph(2, 1, frozenset({(0, 0, GEQ), (0, 0, GT), (1, 0, GEQ)}))
    assert g == SizeChangeGraph.of(2, 1, [(0, 0, GT), (1, 0, GEQ)])
    assert g.edges == frozenset({(0, 0, GT), (1, 0, GEQ)})
    assert g.replace(edges=frozenset({(1, 0, GT), (1, 0, GEQ)})).edges == frozenset({(1, 0, GT)})
    with pytest.raises(ValueError, match="out of range"):
        g.replace(dst_arity=0)


def test_keyword_construction_and_defaults():
    seq = Sequent(ctx=(("x", "Nat"),), hyps=(), concl=Geq("Nat", X, X))
    d = Deriv(rule="trans", seq=seq)
    assert (d.rule, d.seq, d.children, d.data) == ("trans", seq, (), ())
    assert d != Deriv("trans", seq, (), ())  # derivations compare by identity
    ann = init_annotation(1)
    node = RepNode(id="n0", deriv_node="f", rule="f", parent=None, children=(), ann=ann)
    assert (node.sprout, node.prog, node.is_bud) == (None, None, False)
    assert node == RepNode("n0", "f", "f", None, (), ann, None, None)
    assert SctVerdict(terminating=True) == SctVerdict(True, None, 0, None)
    with pytest.raises(TypeError, match=r"SctVerdict\.__init__\(\) missing 1 required positional "
                                        r"argument: 'terminating'"):
        SctVerdict()
    with pytest.raises(TypeError, match=r"SctVerdict\.__init__\(\) got multiple values for argument 'terminating'"):
        SctVerdict(True, terminating=True)
    with pytest.raises(TypeError):
        X.replace(nosuch=1)


def test_formula_repr_keeps_the_dataclass_text():
    assert repr(PHI) == (
        "Forall(sort='Nat', body=Imp(lhs=Gt(sort='Nat', left=FreeV(name='u'), right=BoundV(k=0)), "
        "rhs=Atom(judg='plus', args=(BoundV(k=0), FreeV(name='y')))), hint='u')"
    )


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # Either module costs every command-line call tens of milliseconds.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, cycind.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"
