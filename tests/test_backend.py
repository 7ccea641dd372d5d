
from dataclasses import replace

import pytest

from conftest import CORPUS_NAMES, FIXTURES, compile_corpus, compile_text
from scomma.backend import (
    apply_rewrites,
    compile_to_target,
    emit,
    engine,
    find_target,
    list_targets,
    parse_descriptor,
)
from scomma.backend.descriptor import FIELDS, MISSING, expr_node
from scomma.backend.rules import (
    REGISTRY,
    decompose_set_matrix,
    int_bounds_widen,
    rename_reserved_words,
    split_matrix_to_arrays,
)
from scomma.errors import BackendError
from scomma.interp import flat_solution_set
from scomma.ir import FLATNESS_BANNED, FlatConstraint, FlatModel
from scomma.nodes import BoolLit, Expr, IntLit, Ref, simple_ref
from scomma.printer import render_expr


def setmat_model():
    _tm, fm = compile_text((FIXTURES / "setmat.scm").read_text())
    return fm


def flat_expression_samples():
    """One sample per concept of each Expr class a flat model may hold."""
    samples = [simple_ref("x"), simple_ref("x", IntLit(1)),
               BoolLit(True), BoolLit(False)]
    samples += [cls() for cls in Expr.__subclasses__()
                if cls not in (Ref, BoolLit, *FLATNESS_BANNED)]
    return samples


class TestDescriptorParsing:
    def test_builtin_flat_descriptor_has_core_templates(self):
        flat = find_target("flat")
        for concept in ("Problem", "Variable", "ArrayShape", "Domain",
                        "Constraint", "EnumType"):
            assert concept in flat.templates

    def test_problem_only_descriptor_is_valid(self):
        bd, diags = parse_descriptor('target t; template Problem : "hi" ;')
        assert bd is not None, [d.render() for d in diags]
        assert bd.name == "t"

    def test_missing_problem_template_rejected(self):
        bd, diags = parse_descriptor('target t; template Variable : name ;')
        assert bd is None
        assert any("Problem" in d.message for d in diags)

    def test_repeated_field_use_is_fine(self):
        bd, _ = parse_descriptor('target t; template Problem : name name ;')
        assert bd is not None

    def test_unknown_concept_rejected(self):
        bd, diags = parse_descriptor('target t; template Gadget : name ;')
        assert bd is None
        assert any("unknown concept 'Gadget'" in d.message for d in diags)

    def test_unknown_field_rejected(self):
        bd, diags = parse_descriptor('target t; template Problem : wings ;')
        assert bd is None
        assert any("unknown field" in d.message for d in diags)

    @pytest.mark.parametrize("fragment, message, column", [
        ('"x" wings', "template for 'Variable' references unknown field 'wings'", 25),
        ('"x" (isDefined(wings) ? "w")', "template for 'Variable' tests unknown field 'wings'",
         36),
        ('"x" (foreach w in wings ? w)', "template for 'Variable' iterates unknown field 'wings'",
         39),
    ])
    def test_unknown_field_is_reported_at_its_token(self, fragment, message, column):
        text = 'target t;\ntemplate Problem : "p" ;\n\n\ntemplate Variable : ' + fragment + " ;"
        bd, diags = parse_descriptor(text, "bad.bd")
        assert bd is None
        assert [d.render() for d in diags] == [f"bad.bd:5:{column}: error: {message}"]

    @pytest.mark.parametrize("declaration, column", [
        ("rewrite no_such_rule;", 9),
        ("unsupported matrix fixedBy no_such_rule;", 28),
    ])
    def test_unknown_rule_name_is_reported_at_its_token(self, declaration, column):
        text = f'target t;\n{declaration}\ntemplate Problem : "p" ;'
        bd, diags = parse_descriptor(text, "bad.bd")
        assert bd is None
        assert [(d.span.line, d.span.column) for d in diags] == [(2, column)]
        assert diags[0].message.startswith("unknown rewrite rule 'no_such_rule' (registry: ")

    def test_rewrite_and_unsupported_declarations(self):
        bd, _ = parse_descriptor(
            'target t;\n'
            'rewrite rename_reserved_words("class", "int");\n'
            'unsupported set_matrix fixedBy decompose_set_matrix;\n'
            'template Problem : "x" ;'
        )
        assert bd is not None
        assert bd.rewrites == [("rename_reserved_words", ("class", "int"))]
        assert bd.unsupported == [("set_matrix", "decompose_set_matrix")]


class TestRewriteRules:
    def test_identity_rule_list(self, stable):
        _tm, fm = stable
        assert apply_rewrites(fm, []) is fm

    def test_decompose_set_matrix_two_by_three(self):
        _tm, fm = compile_text(
            """
            class M {
              set of int s[2,3] in [1,2];
              constraint z { cardinality(s[1,2]) = 1; }
            }
            """
        )
        out = decompose_set_matrix(fm)
        names = [v.name for v in out.variables]
        assert names == ["s1_1", "s1_2", "s1_3", "s2_1", "s2_2", "s2_3"]
        assert all(v.shape == () for v in out.variables)
        assert render_expr(out.constraints[0].expr) == "cardinality(s1_2)=1"

    def test_decompose_guard_false_leaves_model_alone(self, stable):
        _tm, fm = stable
        assert decompose_set_matrix(fm) is fm

    def test_decompose_soundness_on_setmat(self):
        fm = setmat_model()
        before = flat_solution_set(fm)
        after_fm = decompose_set_matrix(fm)
        after = flat_solution_set(after_fm)

        def rename(key):
            name, idx = key
            return (f"{name}{idx[0]}_{idx[1]}", ())

        renamed = {frozenset((rename(k), v) for k, v in sol) for sol in before}
        assert renamed == after

    def test_split_matrix_to_arrays(self):
        _tm, fm = compile_text(
            """
            class M {
              int g[2,2] in [0,1];
              constraint z { g[1,1] + g[2,2] <= 1; }
            }
            """
        )
        out = split_matrix_to_arrays(fm)
        assert [v.name for v in out.variables] == ["g_1", "g_2"]
        assert all(v.shape == (2,) for v in out.variables)
        assert render_expr(out.constraints[0].expr) == "g_1[1]+g_2[2]<=1"
        before = flat_solution_set(fm)
        after = flat_solution_set(out)

        def rename(key):
            name, idx = key
            return (f"{name}_{idx[0]}", (idx[1],))

        renamed = {frozenset((rename(k), v) for k, v in sol) for sol in before}
        assert renamed == after

    def test_rename_reserved_words(self):
        _tm, fm = compile_text(
            "class M { int class_ in [0,1]; int x in [0,1]; constraint z { class_ + x <= 1; } }"
        )
        out = rename_reserved_words(fm, ("class_", "x"))
        assert [v.name for v in out.variables] == ["class__", "x_"]
        assert render_expr(out.constraints[0].expr) == "class__+x_<=1"
        before = {frozenset(v for _, v in sorted(sol)) for sol in flat_solution_set(fm)}
        after = {frozenset(v for _, v in sorted(sol)) for sol in flat_solution_set(out)}
        assert before == after

    def test_int_bounds_widen_preserves_solutions(self):
        _tm, fm = compile_text(
            "class M { int x in [2,4]; constraint z { x <> 3; } }"
        )
        out = int_bounds_widen(fm, (0, 10))
        var = out.variables[0]
        assert (var.domain.lo, var.domain.hi) == (0, 10)
        assert {tuple(sorted(s)) for s in flat_solution_set(out)} == {
            tuple(sorted(s)) for s in flat_solution_set(fm)
        }

    def test_rules_that_change_nothing_skip_the_flatness_check(self, stable, monkeypatch):
        _tm, fm = stable
        calls = []
        check = engine.flatness_violations
        monkeypatch.setattr(engine, "flatness_violations", lambda m: calls.append(m) or check(m))
        rules = [("decompose_set_matrix", ()), ("rename_reserved_words", ("nosuchname",))]
        assert apply_rewrites(fm, rules) is fm
        assert calls == []
        out = apply_rewrites(setmat_model(), [("decompose_set_matrix", ())])
        assert calls == [out]

    def test_rule_that_breaks_the_model_is_rejected(self, stable, monkeypatch):
        _tm, fm = stable

        def break_model(fm, params):
            extra = FlatConstraint(simple_ref("nowhere"), "test")
            return replace(fm, constraints=[*fm.constraints, extra])

        monkeypatch.setitem(REGISTRY, "break_model", break_model)
        with pytest.raises(BackendError) as exc:
            apply_rewrites(fm, [("break_model", ())])
        assert "rewrite 'break_model' broke the model" in str(exc.value)
        assert "unknown name 'nowhere'" in str(exc.value)

    def test_unknown_rule_name(self, stable):
        _tm, fm = stable
        with pytest.raises(BackendError):
            apply_rewrites(fm, [("no_such_rule", ())])


class TestEmission:
    def test_flat_stable_contains_fig_layout(self, stable):
        _tm, fm = stable
        text = emit(fm, find_target("flat"))
        assert text.index("variables:") < text.index("constraints:") < text.index("enum-types:")
        assert "womenList man_wife[5] in [1,5];" in text
        assert "menList woman_husband[5] in [1,5];" in text
        assert "woman_husband[man_wife[1]]=1;" in text
        assert "menList := {Richard,James,John,Hugh,Greg};" in text
        assert "womenList := {Helen,Tracy,Linda,Sally,Wanda};" in text

    def test_gecodej_stable_matches_pinned_fragment(self, stable):
        _tm, fm = stable
        text = compile_to_target(fm, find_target("gecodej"))
        assert 'initialize("man_wife",5,1,5)' in text.replace(" ", "")
        assert "vars.addAll(man_wife);" in text
        assert text.rstrip().endswith("}")

    def test_empty_model_emits_sections_and_footer(self):
        fm = FlatModel(name="Empty")
        text = emit(fm, find_target("flat"))
        assert "variables:" in text and "constraints:" in text
        assert "enum-types:" not in text  # empty list, section omitted
        jtext = emit(fm, find_target("gecodej"))
        assert jtext.startswith("package comma.solverFiles.gecodej;")
        assert jtext.rstrip().endswith("}")

    def test_no_rewrites_equals_emit_for_flat(self, stable):
        _tm, fm = stable
        flat = find_target("flat")
        assert compile_to_target(fm, flat, no_rewrites=True) == emit(fm, flat)

    def test_clp_emit_rejects_set_matrix_naming_fix(self):
        fm = setmat_model()
        clp = find_target("clp")
        for run in (lambda: emit(fm, clp), lambda: compile_to_target(fm, clp, no_rewrites=True)):
            with pytest.raises(BackendError) as exc:
                run()
            assert "decompose_set_matrix" in str(exc.value)

    def test_clp_full_pipeline_handles_set_matrix(self):
        fm = setmat_model()
        text = compile_to_target(fm, find_target("clp"))
        assert "s1_1" in text and "s2_2" in text

    def test_gecodej_on_queens_has_expected_shape(self):
        _tm, fm, _ = compile_corpus("queens-10")
        text = compile_to_target(fm, find_target("gecodej"))
        assert 'VarArray<IntVar> q = initialize("q",10,1,10);' in text
        assert text.count("post(this,") == len(fm.constraints)
        assert text.count("{") == text.count("}")

    def test_missing_template_is_emit_time_error(self, stable):
        _tm, fm = stable
        bd, _ = parse_descriptor('target t; template Problem : (foreach v in variables ? v) ;')
        with pytest.raises(BackendError) as exc:
            emit(fm, bd)
        assert "no template for concept 'Variable'" in str(exc.value)

    def test_unknown_field_in_template_rejected_at_parse(self):
        bd, diags = parse_descriptor(
            'target t; template Problem : (foreach v in variables ? v) ;'
            ' template Variable : wings ;'
        )
        assert bd is None
        assert any("wings" in d.message for d in diags)

    def test_unknown_field_inside_foreach_is_render_time_error(self, stable):
        # loop bodies see the item's concept, so they are checked when emitted
        _tm, fm = stable
        bd, diags = parse_descriptor(
            'target t; template Problem : (foreach v in variables ? v.wings) ;'
        )
        assert bd is not None, [d.render() for d in diags]
        with pytest.raises(BackendError) as exc:
            emit(fm, bd)
        assert "wings" in str(exc.value)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize("target", ["flat", "gecodej", "clp"])
    def test_double_emission_byte_identical(self, name, target):
        _tm, fm, _ = compile_corpus(name)
        bd = find_target(target)
        assert compile_to_target(fm, bd) == compile_to_target(fm, bd)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_every_node_reads_through_fields(self, name):
        # descriptor.FIELDS is the one schema: templates are checked against
        # it and the engine reads every field through it.  Walk every node
        # from the Problem, calling every getter.
        _tm, fm, _ = compile_corpus(name)
        seen = set()
        stack = [("Problem", fm, -1)]
        while stack:
            value = stack.pop()
            if isinstance(value, list):
                stack.extend(value)
            elif isinstance(value, tuple):  # a node: (concept, obj, prec)
                concept, obj, _prec = value
                assert concept in FIELDS, concept
                seen.add(concept)
                stack.extend(get(obj, {}) for get in FIELDS[concept].values())
            else:
                assert value is MISSING or type(value) in (str, int, float), value
        assert {"Problem", "Variable", "Constraint", "IntLit"} <= seen

    def test_every_flat_expression_node_has_a_concept_row(self):
        # each Expr class a flat model may hold maps onto its own FIELDS row
        samples = flat_expression_samples()
        assert {type(e) for e in samples} == set(Expr.__subclasses__()) - set(FLATNESS_BANNED)
        concepts = {expr_node(e, -1)[0] for e in samples}
        assert len(concepts) == len(samples)
        assert concepts <= set(FIELDS)

    def test_expression_accessor_table_is_the_declared_schema(self):
        # the FIELDS rows no expression names are the flat model's own concepts
        concepts = {expr_node(e, -1)[0] for e in flat_expression_samples()}
        assert set(FIELDS) - concepts == {
            "Problem", "Variable", "ArrayShape", "Domain", "Constraint", "Objective",
            "EnumType", "ConstArray", "Row",
        }


# One small model for the render-time lookup rules: a variable with an
# enumerated domain, an array with an interval domain (its ``values`` is not
# defined), a parenthesised operand, and a set literal inside a constraint.
RENDER_MODEL = """
class R {
  int x in {1, 3, 5};
  int a[2] in [0, 4];
  constraint c {
    (x + a[1]) * a[2] <= 7;
    a[1] <> a[2];
    x in {1, 5};
  }
}
"""

# Templates that render constraints with no lookup of their own.
EXPR_TEMPLATES = (
    ' template Constraint : expr ; template IntLit : value ; template Ref : name ;'
    ' template IndexedRef : name ;'
)


@pytest.fixture(scope="module")
def render_fm():
    _tm, fm = compile_text(RENDER_MODEL)
    return fm


def render(fm, templates: str) -> str:
    bd, diags = parse_descriptor("target t; " + templates)
    assert bd is not None, [d.render() for d in diags]
    return emit(fm, bd)


def render_error(fm, templates: str) -> str:
    with pytest.raises(BackendError) as exc:
        render(fm, templates)
    return str(exc.value)


class TestRenderSemantics:
    """The lookup rule: a field resolves on the current node, and in a
    foreach body on the loop item first, then on the enclosing frames, across
    template boundaries.  Expected texts were recorded with the fragment
    interpreter the compiled templates replaced."""

    def test_foreach_body_falls_back_to_the_enclosing_node(self, render_fm):
        text = render(render_fm, (
            'template Problem : (foreach v in variables ? v "\\n") ;'
            ' template Variable : name ":" domain ;'
            ' template Domain : lo ".." hi'
            '   (isDefined(values) ? (foreach v in values ? "|" v lo)) ;'
        ))
        assert text == "x:1..5|11|31|51\na:0..4\n"

    def test_fallback_crosses_template_boundaries(self, render_fm):
        # Domain -> Variable.name; SetLit -> BinOp -> Constraint -> Problem.name;
        # IndexedRef's loop body -> IndexedRef.name and Constraint.index
        text = render(render_fm, (
            'template Problem : (foreach v in variables ? v "\\n")'
            '   (foreach c in constraints ? c "\\n") ;'
            ' template Variable : domain ;'
            ' template Domain : (isDefined(values) ? (foreach v in values ? v "@" name)) ;'
            ' template Constraint : expr ; template IntLit : value ; template Ref : name ;'
            ' template IndexedRef : (foreach i in indices ? i "~" name "~" index) ;'
            ' template BinOp : left op right ;'
            ' template SetLit : "{" (foreach e in elems ? e "@" name separator ",") "}" ;'
        ))
        assert text == (
            "1@x3@x5@x\n\n"
            "(x+1~a~0)*2~a~0<=7\n1~a~1<>2~a~1\nxin{1@R,5@R}\n"
        )

    def test_loop_item_fields_and_shadowing(self, render_fm):
        # the item's own fields are visible in the body; the loop variable
        # shadows a field of the same name; an inner loop variable shadows an
        # outer one, and an unshadowed outer one is still reachable
        text = render(render_fm, (
            'template Problem :'
            ' (foreach v in variables ? name type ",") (foreach name in variables ? name.name ",")'
            ' (foreach v in variables ?'
            '   (isDefined(v.domain.values) ? (foreach v in v.domain.values ? v ",")) "/"'
            '   (isDefined(v.domain.values) ? (foreach w in v.domain.values ? v.name w ","))'
            '   ";") ;'
        ))
        assert text == "xint,aint,x,a,1,3,5,/x1,x3,x5,;/;\n"

    def test_expression_loop_items_show_their_own_fields(self, render_fm):
        # an expression item is a node like any other: ``value`` is the
        # IntLit index's own field, not a lookup in the enclosing frames
        text = render(render_fm, (
            'template Problem : (foreach c in constraints ? c "\\n") ;'
            ' template Constraint : expr ; template BinOp : left op right ;'
            ' template IntLit : value ; template Ref : name ; template SetLit : "S" ;'
            ' template IndexedRef : name "[" (foreach i in indices ? value "/" i) "]" ;'
        ))
        assert text == "(x+a[1/1])*a[2/2]<=7\na[1/1]<>a[2/2]\nxinS\n"

    def test_paths_through_expression_fields(self, render_fm):
        # opmap spellings show through a path; a sub-expression reached by a
        # path keeps the parentheses its parent operator needs
        text = render(render_fm, (
            'opmap "+" " plus ";'
            ' template Problem : (foreach c in constraints ? c "\\n") ;'
            ' template Constraint : expr "|" expr.left'
            '   (isDefined(expr.left.left) ? "|" expr.left.left) ;'
            ' template IntLit : value ; template Ref : name ; template IndexedRef : name ;'
            ' template SetLit : "S" ;'
            ' template BinOp : left op right (isDefined(left.op) ? "{" left.op "}") ;'
        ))
        assert text == (
            "(x plus a)*a{ plus }<=7{*}|(x plus a)*a{ plus }|(x plus a)\n"
            "a<>a|a\nxinS|x\n"
        )

    def test_is_defined_on_empty_lists_and_missing_fields(self, render_fm):
        text = render(render_fm, (
            'template Problem : (isDefined(variables) ? "V" : "v")'
            ' (foreach v in variables ?'
            '   (isDefined(enums) ? "E" : "e") (isDefined(wings) ? "W" : "w")'
            '   (isDefined(v.array.col) ? "C" : "c") (isDefined(v.enum_tag) ? "T" : "t")'
            '   (isDefined(v.domain.values) ? "D" : "d") ";") ;'
        ))
        assert text == "VewctD;ewctd;\n"

    @pytest.mark.parametrize("templates, message", [
        ('template Problem : (foreach v in variables ? v.enum_tag) ;',
         "field 'v.enum_tag' is not defined on Variable"),
        ('template Problem : objective ;', "field 'objective' is not defined on Problem"),
        ('template Problem : (foreach v in variables ? wings) ;',
         "unknown field 'wings' on Variable"),
        ('template Problem : (foreach v in variables ? v) ; template Variable : domain ;'
         ' template Domain : (isDefined(values) ? (foreach v in values ? wings)) ;',
         "unknown field 'wings' on Domain"),
        ('template Problem : (foreach v in variables ? v.wings) ;',
         "'v.wings': no field 'wings'"),
        ('template Problem : (foreach c in constraints ? c) ; template BinOp : left.op ;'
         + EXPR_TEMPLATES,
         "'left.op': no field 'op'"),
        ('template Problem : (foreach v in name ? v) ;', "'name' is not a list"),
        ('template Problem : (foreach v in variables ? (foreach d in v.domain.values ? d)) ;',
         "'v.domain.values' is not a list"),
        ('template Problem : variables ;', "a list field must be rendered with foreach"),
        ('template Problem : (foreach v in variables ? v) ;',
         "descriptor 't' has no template for concept 'Variable'"),
        ('template Problem : (foreach c in constraints ? c) ;' + EXPR_TEMPLATES,
         "descriptor 't' has no template for concept 'BinOp'"),
    ])
    def test_render_time_errors(self, render_fm, templates, message):
        assert render_error(render_fm, templates) == message


class TestTargetDiscovery:
    def test_three_builtins(self):
        targets, warnings = list_targets()
        assert sorted(t.name for t in targets) == ["clp", "flat", "gecodej"]
        assert warnings == []

    def test_user_file_adds_target(self, tmp_path, monkeypatch):
        extra = tmp_path / "mini.bd"
        extra.write_text('target mini; extension ".txt"; template Problem : name ;')
        monkeypatch.setenv("SCOMMA_TARGET_PATH", str(tmp_path))
        targets, _ = list_targets()
        assert sorted(t.name for t in targets) == ["clp", "flat", "gecodej", "mini"]

    def test_duplicate_name_shadows_with_warning(self, tmp_path, monkeypatch):
        extra = tmp_path / "shadow.bd"
        extra.write_text('target flat; extension ".x"; template Problem : name ;')
        monkeypatch.setenv("SCOMMA_TARGET_PATH", str(tmp_path))
        targets, warnings = list_targets()
        flat = next(t for t in targets if t.name == "flat")
        assert flat.extension == ".x"
        assert any("shadows" in w for w in warnings)

    def test_env_path_directory_is_searched(self, tmp_path, monkeypatch):
        (tmp_path / "envtarget.bd").write_text(
            'target envt; extension ".e"; template Problem : name ;'
        )
        monkeypatch.setenv("SCOMMA_TARGET_PATH", str(tmp_path))
        targets, _ = list_targets()
        assert any(t.name == "envt" for t in targets)


class TestRewriteSoundnessOnCorpus:
    def test_decompose_fires_on_reduced_golfers_and_preserves_solutions(self):
        # golfers is the corpus model with a matrix of sets; at the reduced
        # instance size the before/after solution sets are enumerable
        from conftest import parse_data_ok, parse_ok
        from scomma.analyzer import analyze
        from scomma.cli import corpus_dir
        from scomma.flattener import flatten

        model = parse_ok((corpus_dir() / "golfers.scm").read_text())
        data = parse_data_ok((FIXTURES / "golfers-tiny.dat").read_text())
        tm, _ = analyze(model, data)
        fm, _ = flatten(tm)
        before = flat_solution_set(fm)
        assert before
        rewritten = decompose_set_matrix(fm)
        assert [v.shape for v in rewritten.variables] == [()] * 4
        after = flat_solution_set(rewritten)

        def rename(sol):
            return frozenset(((f"{n}{i[0]}_{i[1]}", ()), v) for (n, i), v in sol)

        assert {rename(s) for s in before} == after
