"""Value semantics of the package's record classes.

Each record is an immutable value: built by position or by its field
names, equal only to an instance of the same class with equal fields,
hashable to match, and kept whole by pickle and deepcopy. The package's
errors are kept whole by pickle and copy too.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import skewbrace
from skewbrace import bundled_links, load_bundled_brace
from skewbrace.biquandle import Biquandle, derive_biquandle
from skewbrace.gauss import (
    CrossingConstraint,
    LinkDiagram,
    Passage,
    SemiarcSystem,
    build_constraints,
)
from skewbrace.invariants import (
    MoveTrialResult,
    Polynomial1,
    Polynomial2,
    both_polynomials,
    move_invariance_trials,
)
from skewbrace.plan import CompiledPlan, _compile
from skewbrace.properties import (
    AxiomCheck,
    AxiomReport,
    verify_biquandle_axioms,
)
from skewbrace.tables import FiniteGroup, OperationTable, SkewBrace, TableMalformed

# every record class with its constructor's field names, in order
FIELDS = {
    OperationTable: ("n", "rows"),
    FiniteGroup: ("table", "identity", "inverse"),
    SkewBrace: ("n", "circ", "star"),
    Biquandle: ("n", "under", "over"),
    AxiomCheck: ("name", "passed", "witness"),
    AxiomReport: ("checks",),
    Passage: ("crossing", "over", "sign"),
    LinkDiagram: ("components",),
    CrossingConstraint: ("crossing", "sign", "under_in", "over_in", "under_out", "over_out"),
    SemiarcSystem: ("semiarc_count", "constraints"),
    CompiledPlan: ("plan", "n", "semiarc_count", "free"),
    Polynomial2: ("terms",),
    Polynomial1: ("terms",),
    MoveTrialResult: (
        "trials", "all_invariant", "base_sb", "base_ideal", "first_mismatch", "mismatch_code"
    ),
}


def _instances() -> dict[type, object]:
    brace = load_bundled_brace("nab6")
    diagram = bundled_links()["trefoil"]
    bq = derive_biquandle(brace)
    report = verify_biquandle_axioms(bq)
    system = build_constraints(diagram)
    sb, ideal = both_polynomials(brace, diagram)
    found = [
        brace.circ.table,
        brace.circ,
        brace,
        bq,
        report.checks[0],
        report,
        diagram.components[0][0],
        diagram,
        system.constraints[0],
        system,
        _compile(bq, system),
        sb,
        ideal,
        move_invariance_trials(brace, diagram, trials=2, seed=0),
    ]
    return {type(x): x for x in found}


INSTANCES = _instances()
CLASSES = list(FIELDS)
IDS = [cls.__name__ for cls in CLASSES]


def test_every_record_class_has_an_instance():
    assert set(INSTANCES) == set(FIELDS)


def _rebuilt(x):
    """x built again from its fields, by keyword."""
    return type(x)(**{f: getattr(x, f) for f in FIELDS[type(x)]})


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_keyword_and_positional_construction(cls):
    x = INSTANCES[cls]
    by_name = _rebuilt(x)
    by_position = cls(*(getattr(x, f) for f in FIELDS[cls]))
    assert by_name == x and by_position == x
    assert by_name is not x
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = INSTANCES[cls]
    name = FIELDS[cls][0]
    before = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, before)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, name) is before


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_values_hash_equal(cls):
    x = INSTANCES[cls]
    assert hash(_rebuilt(x)) == hash(x)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_pickle_and_deepcopy_keep_the_value(cls):
    x = INSTANCES[cls]
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is cls
        assert y == x and hash(y) == hash(x)


def test_equality_is_type_strict():
    assert Polynomial1({}) != Polynomial2({})
    assert Polynomial1({2: 1}) != Polynomial2({2: 1})
    assert Passage(1, True, 1) != (1, True, 1)
    assert (1, True, 1) != Passage(1, True, 1)
    assert Passage(1, True, 1) == Passage(crossing=1, over=True, sign=1)
    assert Passage(1, True, 1) != Passage(1, True, -1)
    assert Passage(1, True, sign=-1) == Passage(1, True, -1)


def test_defaults():
    assert Polynomial2().terms == {} and Polynomial1().terms == {}
    assert Polynomial2({(1, 1): 0}).terms == {}
    assert Polynomial2({(1, 1): 0, (2, 2): 3}) == Polynomial2({(2, 2): 3})


def test_missing_or_unknown_fields_are_type_errors():
    with pytest.raises(TypeError):
        Passage(1, True)
    with pytest.raises(TypeError):
        Passage(1, True, 1, 0)
    with pytest.raises(TypeError):
        Passage(crossing=1, over=True, sign=1, side=0)
    with pytest.raises(TypeError):
        Passage(crossing=1, over=True)
    with pytest.raises(TypeError):
        Passage(crossing=1, sign=1)
    with pytest.raises(TypeError):
        Passage(1, crossing=1, over=True, sign=1)


def test_operation_table_copies_and_validates_its_rows():
    rows = [[1, 2], [2, 1]]
    t = OperationTable(n=2, rows=rows)
    rows[0][0] = 2
    assert t.rows == ((1, 2), (2, 1))
    assert t == OperationTable.from_rows([[1, 2], [2, 1]])
    assert hash(t) == hash(OperationTable(2, t.rows))


def test_repr_is_the_dataclass_form():
    assert repr(Passage(1, True, -1)) == "Passage(crossing=1, over=True, sign=-1)"
    assert repr(LinkDiagram(((), ()))) == "LinkDiagram(components=((), ()))"
    assert repr(OperationTable(2, [[1, 2], [2, 1]])) == (
        "OperationTable(n=2, rows=((1, 2), (2, 1)))"
    )
    assert repr(Polynomial2({(1, 1): 2})) == "Polynomial2(terms={(1, 1): 2})"
    assert repr(Polynomial1()) == "Polynomial1(terms={})"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_instances_are_slotted(cls):
    assert not hasattr(INSTANCES[cls], "__dict__")


# one instance of every error class the package exports, and TableMalformed
ERRORS = [
    skewbrace.DomainError("no such thing"),
    skewbrace.ValidationError("not a brace"),
    TableMalformed("empty brace file"),
    skewbrace.NotAssociative(1, 2, 3, "circ"),
    skewbrace.NoIdentity("circ"),
    skewbrace.NoInverse(2, "star"),
    skewbrace.DistributiveLawFails(1, 2, 3),
    skewbrace.IdentityMismatch(1, 2),
    skewbrace.EmptyGenerators("closure of the empty set is not defined"),
    skewbrace.GaussCodeError("bad code"),
    skewbrace.GaussSyntaxError(4, "expected O or U"),
    skewbrace.CrossingUsedWrong(2),
    skewbrace.SignMismatch(3),
    skewbrace.InvalidLocation("no component 3"),
    skewbrace.SearchTooLarge("too many colorings"),
]


def test_every_exported_error_class_has_an_instance():
    exported = {getattr(skewbrace, name) for name in skewbrace.__all__}
    exported = {x for x in exported if isinstance(x, type) and issubclass(x, BaseException)}
    assert exported <= {type(e) for e in ERRORS}


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickle_and_copy(error):
    for again in (
        pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)
    ):
        assert type(again) is type(error)
        assert str(again) == str(error)
        assert again.args == error.args
        assert vars(again) == vars(error)
