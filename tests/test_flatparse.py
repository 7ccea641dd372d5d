import pytest

from conftest import CORPUS_NAMES, compile_corpus, compile_text
from test_golden import EXPRESSION_MODEL, OBJECT_DATA, OBJECT_MODEL
from scomma.backend import compile_to_target, find_target
from scomma.flatparse import parse_flat


def assert_flat_round_trip(fm):
    text = compile_to_target(fm, find_target("flat"))
    again, diags = parse_flat(text, name=fm.name)
    assert again is not None, [d.render() for d in diags]
    assert [(v.name, v.base, v.shape, v.domain) for v in again.variables] == [
        (v.name, v.base, v.shape, v.domain) for v in fm.variables
    ]
    assert [v.enum_tag for v in again.variables] == [v.enum_tag for v in fm.variables]
    assert [c.expr for c in again.constraints] == [c.expr for c in fm.constraints]
    assert again.enum_types == fm.enum_types
    assert {n: (t.shape, t.values) for n, t in again.tables.items()} == {
        n: (t.shape, t.values) for n, t in fm.tables.items()
    }
    if fm.objective is None:
        assert again.objective is None
    else:
        assert again.objective.kind == fm.objective.kind
        assert again.objective.expr == fm.objective.expr


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_flat_emission_round_trips(name):
    assert_flat_round_trip(compile_corpus(name)[1])


@pytest.mark.parametrize("model, data", [
    (OBJECT_MODEL, OBJECT_DATA),  # tables, one of them a matrix
    (EXPRESSION_MODEL, None),  # reals, sets, bools, calls and literals
])
def test_golden_models_round_trip(model, data):
    assert_flat_round_trip(compile_text(model, data)[1])


def test_hand_written_flat_text_parses():
    text = """
    variables:

      int x[2] in [0,5];
      bool b in [0,1];

    constraints:

      x[1]+x[2]<=7;
      b -> x[1]=0;
    """
    fm, diags = parse_flat(text)
    assert fm is not None, [d.render() for d in diags]
    assert [v.name for v in fm.variables] == ["x", "b"]
    assert len(fm.constraints) == 2


def test_diagnostics_for_unknown_reference():
    text = """
    variables:

      int x in [0,5];

    constraints:

      y < 3;
    """
    fm, diags = parse_flat(text)
    assert fm is None
    assert any("unknown name 'y'" in d.message for d in diags)


def test_flatness_problem_is_reported_at_its_node():
    text = """variables:

  int x in [0,5];

constraints:

  x < 3;
  y > 1;
"""
    fm, diags = parse_flat(text)
    assert fm is None
    assert [d.render() for d in diags] == ["<flat>:8:3: error: constraint 1: unknown name 'y'"]


def test_real_model_round_trips():
    from conftest import FIXTURES, compile_text

    _tm, fm = compile_text((FIXTURES / "mix-real.scm").read_text())
    text = compile_to_target(fm, find_target("flat"))
    assert "real ratio in [0.5,2.5];" in text
    again, diags = parse_flat(text)
    assert again is not None, [d.render() for d in diags]
    assert again.variables[0].domain == fm.variables[0].domain
    assert [c.expr for c in again.constraints] == [c.expr for c in fm.constraints]


def test_each_bad_entry_gives_one_diagnostic():
    text = """
    variables:

      int x in [0,5];
      int y in 0..5;
      int z in [0,5];

    constraints:

      x < ;
      x < z;

    enum-types:

      color := red;
      shade := {dark};
    """
    fm, diags = parse_flat(text)
    assert fm is None
    assert [(d.span.line, d.message) for d in diags] == [
        (5, "expected '[' in domain, found '0'"),
        (10, "expected expression, found ';'"),
        (15, "expected '{' in enum table, found 'red'"),
    ]


def test_bad_entry_is_skipped_through_its_own_braces():
    # recovery skips a bad entry through its closing ';', past the '}' of
    # its own brace list, and resumes at the next entry; an entry missing
    # its ';' is skipped up to the section header that follows it
    text = """
    variables:

      int x in {0, y};
      int z in [0,5];

    constraints:

      x < z

    enum-types:

      color := {red, 3};
      shade := {dark, light};
      tone := {4};
    """
    fm, diags = parse_flat(text)
    assert fm is None
    assert [(d.span.line, d.message) for d in diags] == [
        (4, "expected an integer domain value"),
        (11, "expected ';' in constraint, found 'enum'"),
        (13, "expected identifier in enum value, found '3'"),
        (15, "expected identifier in enum value, found '4'"),
    ]


@pytest.mark.parametrize("constraint", ["x < -1", "y < -x"])
def test_less_than_a_negative_operand_reads_back_as_less_than(constraint):
    _tm, fm = compile_text(
        f"class A {{ int x in [-3,3]; int y in [-3,3]; constraint c {{ {constraint}; }} }}"
    )
    text = compile_to_target(fm, find_target("flat"))
    again, diags = parse_flat(text, name=fm.name)
    assert again is not None, [d.render() for d in diags]
    assert [c.expr for c in again.constraints] == [c.expr for c in fm.constraints]
    assert again.constraints[0].expr.op == "<"


def diagnostics(text):
    fm, diags = parse_flat(text)
    assert fm is None
    return [(d.span.line, d.message) for d in diags]


def test_objective_section_holds_one_entry():
    # a constraint after the objective, or a second objective, is reported
    # on its own line, not dropped, and reading goes on after it
    text = """
    variables:

      int x in [0,5];

    objective:

      maximize x;
      x <= 2;

    objective:

      minimize x;

    constraints:

      x < ;
    """
    assert diagnostics(text) == [
        (9, "expected 'minimize' or 'maximize'"),
        (13, "a flat model has one objective; this is a second one"),
        (17, "expected expression, found ';'"),
    ]


def test_each_bad_variable_line_gives_one_diagnostic():
    # a line that reads as a declaration but is not flat is reported once,
    # and the good line after it still counts
    text = """
    variables:

      int a;
      int b in [0,5];
      int c[n] in [0,5];
      int d in [0,n];
      int e in [0,1+2];
      int f in {1, n};
      int g in [5,0];
      int h[0] in [0,1];
      int i in [0,5]
    """
    assert diagnostics(text) == [
        (4, "expected 'in <domain>'"),
        (6, "expected an integer array size"),
        (7, "expected a number domain bound"),
        (8, "expected a number domain bound"),
        (9, "expected an integer domain value"),
        (10, "empty interval [5,0]"),
        (11, "array/matrix sizes must be >= 1, got (0,)"),
        (13, "expected ';' in attribute declaration, found end of file"),
    ]


def test_unknown_enum_type_is_reported_on_its_variable_line():
    text = """variables:
int y in [0,1];
color x in [1,2];
set of shade s in [1,2];
"""
    assert diagnostics(text) == [
        (3, "variable 'x' has unknown type 'color'"),
        (4, "variable 's' has unknown type 'shade'"),
    ]


def test_each_bad_table_gives_one_diagnostic():
    text = """
    variables:

      int x in [1,2];

    constant-arrays:

      ragged := [[1,2],[3]];
      keyed := [a: 1, b: 2];
      empty := [];
      rows := [[1,2],[3,4]];
      mixed := [1,[2]];
      symbol := [1,red];
    """
    needs = "needs a non-empty list of numbers or of rows, without keys"
    assert diagnostics(text) == [
        (8, "ragged rows in constant array 'ragged'"),
        (9, f"constant array 'keyed' {needs}"),
        (10, f"constant array 'empty' {needs}"),
        (12, "expected a number table value"),
        (13, "expected a number table value"),
    ]


def test_each_duplicate_name_is_reported_once():
    # 'x' is declared twice as a variable, 't' as a variable and a table
    text = """variables:

  int x in [0,5];
  int x in [0,5];
  int t in [0,5];

constant-arrays:

  t := [1,2];

constraints:

  x < 3;
"""
    assert diagnostics(text) == [
        (1, "duplicate flat name 't'"),
        (1, "duplicate flat name 'x'"),
    ]
