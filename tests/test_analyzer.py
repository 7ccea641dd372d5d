import pytest

from conftest import CORPUS_NAMES, FIXTURES, analyze_ok, compile_corpus, parse_data_ok, parse_ok
from scomma.analyzer import analyze, linearize_inheritance
from scomma.cli import corpus_dir
from scomma.diagnostics import DiagnosticSink
from scomma.flattener import flatten
from scomma.nodes import (
    DomainInterval,
    DomainSet,
    EnumType,
    IntLit,
    RealLit,
    Ref,
    RefPart,
    VInt,
    VList,
    VObj,
    VOmit,
)
from scomma.printer import render_expr
from scomma.solver import build_space, optimize


def analyze_err(model_text, data_text=None):
    model = parse_ok(model_text)
    data = parse_data_ok(data_text) if data_text else None
    tm, diags = analyze(model, data)
    assert tm is None
    return [d for d in diags if d.is_error]


class TestStructure:
    def test_stable_types(self):
        tm, _, _ = compile_corpus("stable")

    def test_wife_is_enum_typed(self):
        model = parse_ok((corpus_dir() / "stable.scm").read_text())
        data = parse_data_ok((corpus_dir() / "stable.dat").read_text())
        tm = analyze_ok(model, data)
        wife = next(a for a in tm.class_map["Man"].attributes if a.name == "wife")
        assert wife.type == EnumType("womenList")
        rank = next(a for a in tm.class_map["Man"].attributes if a.name == "rank")
        assert len(rank.shape) == 1

    def test_self_inheritance_cycle(self):
        errors = analyze_err("class A extends A { int x in [1,2]; }")
        assert any("cycle" in e.message and "A" in e.message for e in errors)

    def test_mutual_inheritance_cycle(self):
        errors = analyze_err("class A extends B {}\nclass B extends A {}")
        assert any("cycle" in e.message for e in errors)

    def test_composition_cycle(self):
        errors = analyze_err("class A { B b; }\nclass B { A a; }")
        assert any("composition cycle" in e.message for e in errors)

    def test_object_literal_arity(self):
        errors = analyze_err(
            "class M { P p; }\nclass P { int a in [0,1]; int b in [0,1]; }",
            "P M.p := {1, 0, 1};",
        )
        assert any("3 elements" in e.message for e in errors)

    def test_under_filled_object_literal_warns(self):
        model = parse_ok("class M { P p; }\nclass P { int a in [0,1]; int b in [0,1]; }")
        data = parse_data_ok("P M.p := {1};")
        tm, diags = analyze(model, data)
        assert tm is not None
        assert any(d.severity == "warning" and "unassigned" in d.message for d in diags)

    def test_empty_domain_is_analyzer_error(self):
        errors = analyze_err("class A { int x in [1,0]; }")
        assert any("empty" in e.message for e in errors)
        analyze_ok(parse_ok("class A { int x in [1, 8/2]; }"))
        for bound in ("7/2", "1/0"):
            errors = analyze_err(f"class A {{ int x in [1, {bound}]; }}")
            assert [e.message for e in errors] == ["domain bounds of 'A.x' must be constant"]

    def test_unknown_type(self):
        errors = analyze_err("class A { Widget w; }")
        assert any("unknown type 'Widget'" in e.message for e in errors)

    def test_enum_domain_conflict(self):
        errors = analyze_err(
            "class A { e x in [1,2]; }", "enum e := {P,Q,R};"
        )
        assert any("implicit" in e.message for e in errors)

    def test_two_objectives_rejected(self):
        errors = analyze_err(
            """
            class A {
              int x in [0,5];
              constraint z { [minimize] x; [maximize] x; }
            }
            """
        )
        assert any("at most one" in e.message for e in errors)

    def test_objective_count_error_is_at_the_second_objective(self):
        model = parse_ok(
            "class A {\n"
            "  int x in [0,5];\n"
            "  constraint z { [minimize] x; [maximize] x; }\n"
            "}",
            "m.scm",
        )
        _tm, diags = analyze(model, None)
        assert [d.render() for d in diags] == [
            "m.scm:3:32: error: model declares 2 objectives; at most one is allowed"
        ]

    def test_shape_must_be_positive(self):
        errors = analyze_err("class A { int a[0] in [1,2]; }")
        assert any("not positive" in e.message for e in errors)

    @pytest.mark.parametrize("model, data, owner", [
        ("class A { int a[m] in [0,1]; }", "int A.a := [1,0];", "A.a"),
        ("class A { int a[2,m] in [0,1]; }", "int A.a := [[1,0],[0,1]];", "A.a"),
        ("class A { B b; }\nclass B { int c[m] in [0,1]; int d in [0,1]; }",
         "B A.b := {[1,0], 1};", "B.c"),
    ], ids=["1-D", "2-D", "in-object-literal"])
    def test_bad_array_size_is_reported_once(self, model, data, owner):
        errors = analyze_err(model, data)
        assert [e.message for e in errors] == [
            f"array size 'm' of '{owner}' is not a constant or enum"
        ]


class TestLinearize:
    def test_superclass_attributes_first(self):
        model = parse_ok(
            "class Root { B b; }\nclass A { int x in [0,1]; }\n"
            "class B extends A { int y in [0,1]; }"
        )
        flat = linearize_inheritance(model)
        b = flat.class_named("B")
        assert [a.name for a in b.attributes] == ["x", "y"]

    def test_no_inheritance_is_identity(self):
        model = parse_ok("class A { int x in [0,1]; }\nclass B { int y in [0,1]; }")
        assert linearize_inheritance(model) == model

    def test_three_level_chain_order(self):
        model = parse_ok(
            "class Root { C c; }\n"
            "class A { int ax in [0,1]; constraint za { ax >= 0; } }\n"
            "class B extends A { int bx in [0,1]; }\n"
            "class C extends B { int cx in [0,1]; constraint zc { cx >= 0; } }"
        )
        flat = linearize_inheritance(model)
        c = flat.class_named("C")
        assert [a.name for a in c.attributes] == ["ax", "bx", "cx"]
        assert [z.name for z in c.zones] == ["za", "zc"]
        assert all(cls.superclass is None for cls in flat.classes)

    def test_inherited_name_collision(self):
        model = parse_ok(
            "class A { int x in [0,1]; }\nclass B extends A { int x in [0,1]; }"
        )
        sink = DiagnosticSink()
        assert linearize_inheritance(model, sink) is None
        assert any("collides" in d.message for d in sink.items)

    def test_zone_typing_sees_inherited_attributes(self):
        model = parse_ok(
            "class Root { B b; }\n"
            "class A { int x in [0,3]; }\n"
            "class B extends A { constraint z { x > 0; } }"
        )
        analyze_ok(model)


    def test_inherited_objective_is_counted_once(self):
        model = parse_ok(
            "class B extends A { int b in [0,3]; }\n"
            "class A { int a in [0,3]; constraint z { [maximize] a; } }"
        )
        fm, _trace = flatten(analyze_ok(model))
        best, _stats = optimize(build_space(fm))
        assert best.objective_value == 3

    def test_inherited_zone_resolves_names_in_its_declaring_class(self):
        # A's zone is typed once, in A, where 'red' is the enum literal; B's
        # attribute of the same name does not capture it
        model = parse_ok(
            "class B extends A { int red in [0,1]; }\n"
            "class A { Color c; constraint z { c = red; } }"
        )
        fm, _trace = flatten(analyze_ok(model, parse_data_ok("enum Color := {blue, red};")))
        assert [render_expr(c.expr) for c in fm.constraints] == ["c=2"]

    @pytest.mark.parametrize("model, rendered", [
        ("class B extends A { }\nclass A { Foo f; }", [
            "m.scm:2:11: error: unknown type 'Foo' for attribute 'A.f'"
            " (not a base type, enum, or class)",
        ]),
        ("class R { B b; }\n"
         "class A { int a[m] in [0,1]; constraint z { a[1] + true; } }\n"
         "class B extends A { }", [
             "m.scm:2:17: error: array size 'm' of 'A.a' is not a constant or enum",
             "m.scm:2:50: error: '+' needs numeric operands, got int and bool",
             "m.scm:2:45: error: constraint must be bool, got int",
         ]),
    ], ids=["attribute-type", "size-and-zone"])
    def test_inherited_member_is_reported_once_under_its_declaring_class(self, model, rendered):
        _tm, diags = analyze(parse_ok(model, "m.scm"), None)
        assert [d.render() for d in diags] == rendered

class TestTyping:
    @pytest.mark.parametrize("zone, message", [
        ("x + 1;", "constraint must be bool, got int"),
        ("if (x) x = 1;", "if condition must be bool, got int"),
        ("forall(i in 1..(x = 1)) x = i;", "loop bound must be int, got bool"),
        ("[minimize] x = 1;", "objective must be numeric, got bool"),
        ("not x;", "'not' needs a bool operand, got int"),
        ("cardinality(x) = 1;", "cardinality takes one set argument"),
    ])
    def test_context_diagnostic_text(self, zone, message):
        errors = analyze_err(f"class A {{ int x in [0,5]; constraint z {{ {zone} }} }}")
        assert message in [e.message for e in errors]

    def test_loop_variable_scoping(self):
        errors = analyze_err(
            """
            class A {
              int a[3] in [1,3];
              constraint z {
                forall(i in 1..3) a[i] = i;
                a[i] = 1;
              }
            }
            """
        )
        assert any("unknown name 'i'" in e.message for e in errors)

    def test_a_loop_bound_reads_an_attribute_that_shadows_a_constant(self):
        errors = analyze_err(
            "class R { int t[3] in [1,2]; int x[3] in [0,9];"
            " constraint c { forall (i in 1..t[1]) { x[i] = i; } } }",
            "int t[3] := [3,3,3];",
        )
        assert [e.message for e in errors] == [
            "loop bounds may only use constants and enclosing loop variables"
        ]

    def test_type_errors_reported(self):
        errors = analyze_err(
            """
            class A {
              int x in [0,5];
              bool b;
              constraint z { x and b; }
            }
            """
        )
        assert any("'and' needs bool" in e.message for e in errors)

    @pytest.mark.parametrize("zone, message", [
        ("alldifferent([b, true, x[1]]);", "array literals hold integer expressions"),
        ("x[1] in {b, true, 2};", "set literals hold integers"),
    ], ids=["array", "set"])
    def test_each_bad_literal_element_is_reported_at_its_own_position(self, zone, message):
        head = "class A { bool b; int x[2] in [0,3]; constraint z { "
        errors = analyze_err(head + zone + " } }")
        column = len(head) + zone.index("b") + 1
        assert [(e.message, e.span.line, e.span.column) for e in errors] == [
            (message, 1, column), (message, 1, column + 3)]

    def test_alldifferent_arity(self):
        errors = analyze_err(
            """
            class A {
              int a[3] in [1,3];
              constraint z { alldifferent(a, a); }
            }
            """
        )
        assert any("alldifferent takes exactly one" in e.message for e in errors)

    def test_objective_inside_loop_rejected(self):
        errors = analyze_err(
            """
            class A {
              int a[3] in [1,3];
              constraint z { forall(i in 1..3) [minimize] a[i]; }
            }
            """
        )
        assert any("inside loops" in e.message for e in errors)

    def test_comparing_enum_and_int_is_fine(self):
        model = parse_ok(
            """
            class A {
              e x;
              constraint z { x < 3; }
            }
            """
        )
        analyze_ok(model, parse_data_ok("enum e := {P,Q,R};"))


class TestStability:
    def test_idempotent_on_own_output(self):
        tm, _, _ = compile_corpus("stable")
        model = parse_ok((corpus_dir() / "stable.scm").read_text())
        data = parse_data_ok((corpus_dir() / "stable.dat").read_text())
        tm1 = analyze_ok(model, data)
        tm2 = analyze_ok(tm1.model, data)
        assert tm2.model == tm1.model

    def test_same_bad_input_same_diagnostics(self):
        bad = "class A extends A { Widget w; int x in [1,0]; }"
        model = parse_ok(bad)
        _, d1 = analyze(model)
        _, d2 = analyze(parse_ok(bad))
        assert [x.render() for x in d1] == [x.render() for x in d2]


SHARED_LABELS = "enum A := {x, y};\nenum B := {y, x, z};\n"


class TestDataValues:
    def test_bare_label_of_two_enums_is_an_error_at_the_label(self):
        errors = analyze_err("class R {\n  B free;\n  constraint c { free = x; }\n}",
                             SHARED_LABELS)
        assert [(e.message, e.span.line, e.span.column) for e in errors] == [(
            "label 'x' is a value of enums A, B; a bare label must belong to exactly"
            " one enum", 3, 25)]

    @pytest.mark.parametrize("model, data", [
        ("class R { int x in [0,3]; B free; constraint c { x = 1; } }", ""),
        ("class R { int a[2] in [0,3]; constraint c { forall(x in 1..2) a[x] = x; } }", ""),
        ("class R { int a in [0,3]; constraint c { a = x; } }", "int x := 2;\n"),
    ], ids=["attribute", "loop-variable", "constant"])
    def test_a_name_in_scope_takes_precedence_over_a_shared_label(self, model, data):
        analyze_ok(parse_ok(model), parse_data_ok(SHARED_LABELS + data))

    def test_an_int_constant_label_must_name_one_enum(self):
        errors = analyze_err("class R { int a in [0,3]; }", SHARED_LABELS + "int k := y;\n")
        assert [(e.message, e.span.line) for e in errors] == [(
            "label 'y' is a value of enums A, B; a bare label must belong to exactly"
            " one enum", 3)]
        tm = analyze_ok(parse_ok("class R { int a in [0,3]; }"),
                        parse_data_ok(SHARED_LABELS + "enum C := {w};\nint k := w;\n"))
        assert tm.constants["k"].value == VInt(1)

    def test_values_arrive_resolved(self):
        tm = analyze_ok(
            parse_ok("class R {\n  B pick;\n  int v[B, 2] in [0,9];\n  P p[2];\n}\n"
                     "class P { B b; int w[B] in [0,9]; }"),
            parse_data_ok(
                SHARED_LABELS
                + "int m := [[1, 2], [3, 4]];\nint t[B] := [z: 3, y: 1, x: 2];\n"
                "B R.pick := x;\nint R.v := [x: [5, _], z: [7, 8]];\n"
                "P R.p := [{z, [x: 4]}, _];\n"),
        )
        assert tm.constants["m"].shape == (IntLit(2), IntLit(2))
        assert tm.constants["m"].value == VList((VInt(1), VInt(2), VInt(3), VInt(4)))
        assert tm.constants["t"].value == VList((VInt(1), VInt(2), VInt(3)))
        assert [a.value for a in tm.assignments] == [
            VInt(2),
            VList((VOmit(), VOmit(), VInt(5), VOmit(), VInt(7), VInt(8))),
            VList((VObj((VInt(3), VList((VOmit(), VInt(4), VOmit())))), VOmit())),
        ]

    @pytest.mark.parametrize("data, message", [
        ("int k[2] := [1, _];", "constant 'k[2]' needs a value, not '_'"),
        ("int k := [a: 1];", "'k': keyed array entries require an enum-sized array"),
        ("int k := [[1, 2], [3]];", "'k[2]': array literal has 1 entries, expected 2"),
        ("int k[2] := 1;", "'k' is an array; expected an array literal"),
        ("int k := {1};", "'k' expects an integer value"),
        ("B k := w;", "'w' is not a value of enum 'B'"),
        ("R k := 1;", "constant 'k' has type 'R'; a constant is int, real, bool or of an"
                      " enum type"),
    ], ids=["gap", "keys-without-an-enum", "ragged-rows", "scalar-for-array",
            "object-for-int", "label-of-another-enum", "class-typed"])
    def test_constants_are_checked_like_assignments(self, data, message):
        errors = analyze_err("class R { int a in [0,3]; }", SHARED_LABELS + data)
        assert [(e.message, e.span.line, e.span.column) for e in errors] == [(message, 3, 1)]


def analyzed_corpus_and_fixtures():
    """Every corpus model with its own data or a fixture's, and every fixture
    model, analyzed."""
    for name in CORPUS_NAMES:
        yield name, compile_corpus(name)[0]
    for name, data in [("stable", "stable3.dat"), ("queens-10", "queens-5.dat"),
                       ("packing", "packing-mini.dat"), ("golfers", "golfers-tiny.dat")]:
        yield f"{name}+{data}", compile_corpus(name, data)[0]
    for path in sorted(FIXTURES.glob("*.scm")):
        yield path.name, analyze_ok(parse_ok(path.read_text()))


class TestShapesAndDomains:
    """Analysis hands on every shape and domain resolved to numbers."""

    def test_every_shape_and_domain_is_resolved(self):
        for where, tm in analyzed_corpus_and_fixtures():
            attributes = [a for c in tm.class_map.values() for a in c.attributes]
            bounds = [b for a in attributes for b in a.shape]
            bounds += [b for c in tm.constants.values() for b in c.shape]
            for b in bounds:
                assert isinstance(b, IntLit) or (
                    isinstance(b, Ref) and b.simple_name in tm.enums), (where, b)
            for a in attributes:
                dom = a.domain
                ends = () if dom is None else (
                    (dom.lo, dom.hi) if isinstance(dom, DomainInterval) else dom.elems)
                assert all(isinstance(e, (IntLit, RealLit)) for e in ends), (where, a)

    def test_bounds_resolve_to_literals_at_their_positions(self):
        tm = analyze_ok(
            parse_ok("class R {\n  int a[n, E] in [lo - 1, n * 2];\n  int s in {n, -lo};\n"
                     "  real r in [0, h / 2];\n}"),
            parse_data_ok("enum E := {x, y};\nint n := 3;\nint lo := 1;\nreal h := 1.5;\n"
                          "int k[n] := [1, 2, 3];\n"),
        )
        a, s, r = tm.main.attributes
        assert a.shape == (IntLit(3), Ref((RefPart("E"),)))
        assert (a.shape[0].span.line, a.shape[0].span.column) == (2, 9)
        assert a.domain == DomainInterval(IntLit(0), IntLit(6))
        assert s.domain == DomainSet((IntLit(3), IntLit(-1)))
        assert r.domain == DomainInterval(IntLit(0), RealLit(0.75))
        assert tm.constants["k"].shape == (IntLit(3),)

    @pytest.mark.parametrize("model, data, message", [
        ("class R { int x in [0, 2.5]; }", None, "domain bounds of 'R.x' must be integers"),
        ("class R { int x in [n, 3]; }", "real n := 1.5;",
         "domain bounds of 'R.x' must be integers"),
        ("class R { int x in {1, 2.5}; }", None, "domain values of 'R.x' must be integers"),
        ("class R { bool b in [0, 1.5]; }", None, "'R.b' has type bool; its domain is implicit"),
        ("class R { real r in {1, 2.5}; }", None, "domain values of 'R.r' must be integers"),
        # an empty interval is reported as empty, whatever its bounds
        ("class R { int x in [3, 1.5]; }", None, "domain of 'R.x' is empty: [3,1.5]"),
        ("class R { int x in [2.5, 1]; }", None, "domain of 'R.x' is empty: [2.5,1]"),
    ], ids=["real-bound", "real-constant-bound", "real-element", "bool", "real-set",
            "empty-real-upper", "empty-real-lower"])
    def test_a_domain_that_is_not_integral_is_an_error_at_the_attribute(
        self, model, data, message
    ):
        errors = analyze_err(model, data)
        assert [(e.message, e.span.line, e.span.column) for e in errors] == [(message, 1, 11)]

    @pytest.mark.parametrize("model, data, message", [
        ("class R { int x in [0,5]; }", "int R.x := 9;",
         "assigned value 9 for 'R.x' lies outside its domain"),
        ("class R { int a[2] in [0,5]; }", "int R.a := [1, 9];",
         "assigned value 9 for 'R.a[2]' lies outside its domain"),
        ("class R { int s in {1, 3}; }", "int R.s := 2;",
         "assigned value 2 for 'R.s' lies outside its domain"),
        ("class R { P p[2]; }\nclass P { int x in [0,3]; }", "P R.p := [{1}, {-1}];",
         "assigned value -1 for 'R.p[2].x' lies outside its domain"),
        ("class R { real a[2] in [0,1]; }", "real R.a := [7, _];",
         "assigned value 7 for 'R.a[1]' lies outside its domain"),
    ], ids=["scalar", "array-cell", "set", "object-element", "integer-in-real-array"])
    def test_an_assigned_value_outside_its_domain_is_an_error_at_the_assignment(
        self, model, data, message
    ):
        errors = analyze_err(model, data)
        assert [(e.message, e.span.line, e.span.column) for e in errors] == [(message, 1, 1)]

    @pytest.mark.parametrize("model, message", [
        ("class R { bool b in [0,3]; constraint c { b; } }",
         "'R.b' has type bool; its domain is implicit"),
        # the interval's own problem is not reported beside it
        ("class R { E e in [0, 2.5]; }", "'R.e' has enum type E; its domain is implicit"),
    ], ids=["bool", "enum-with-a-bad-interval"])
    def test_a_domain_on_a_bool_or_enum_attribute_is_one_error_at_the_attribute(
        self, model, message
    ):
        errors = analyze_err(model, "enum E := {x, y};")
        assert [(e.message, e.span.line, e.span.column) for e in errors] == [(message, 1, 11)]

    def test_real_values_and_undomained_ints_are_not_checked(self):
        analyze_ok(parse_ok("class R { real r in [0, 1]; int z; }"),
                   parse_data_ok("real R.r := 7.5;\nint R.z := -4;"))

    def test_an_unresolved_domain_adds_no_value_diagnostic(self):
        errors = analyze_err("class R { int x in [3, 1]; int y in [0, m]; }",
                             "int R.x := 9;\nint R.y := 9;")
        assert [e.message for e in errors] == [
            "domain of 'R.x' is empty: [3,1]", "domain bounds of 'R.y' must be constant"]
