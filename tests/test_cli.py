import json
import shutil

import pytest

from conftest import FIXTURES, compile_corpus
from scomma import flattener
from scomma.cli import corpus_dir, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_emit_flat_stable(self, tmp_path, capsys):
        out = tmp_path / "stable.fsc"
        code, _, _ = run(
            capsys, "compile", str(corpus_dir() / "stable.scm"), "--emit-flat",
            "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        section = text.split("constraints:")[0]
        lines = [l.strip() for l in section.splitlines() if l.strip() and ":" not in l]
        assert lines == [
            "womenList man_wife[5] in [1,5];",
            "menList woman_husband[5] in [1,5];",
        ]

    def test_target_gecodej_java_suffix(self, tmp_path, capsys):
        model = tmp_path / "stable.scm"
        shutil.copy(corpus_dir() / "stable.scm", model)
        shutil.copy(corpus_dir() / "stable.dat", tmp_path / "stable.dat")
        code, out, _ = run(capsys, "compile", str(model), "--target", "gecodej")
        assert code == 0
        assert (tmp_path / "stable.java").exists()

    def test_missing_import_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "m.scm"
        model.write_text("import nowhere.dat;\nclass A { int x in [0,1]; }")
        code, _, err = run(capsys, "compile", str(model), "--emit-flat",
                           "--out", str(tmp_path / "m.fsc"))
        assert code == 1
        assert "nowhere.dat" in err

    def test_object_matrix_rejected(self, tmp_path, capsys):
        model = tmp_path / "m.scm"
        model.write_text("class A { P p[2,3]; }\nclass P { int x in [0,3]; }")
        code, _, err = run(capsys, "compile", str(model), "--emit-flat",
                           "--out", str(tmp_path / "m.fsc"))
        assert code == 1
        errors = [line for line in err.splitlines() if ": error:" in line]
        assert len(errors) == 1 and "'A.p'" in errors[0], err

    def test_diagnostics_format_file_line_col(self, tmp_path, capsys):
        model = tmp_path / "bad.scm"
        model.write_text("class A {\n  int x in ;\n}")
        code, _, err = run(capsys, "compile", str(model), "--emit-flat")
        assert code == 1
        assert f"{model}:2:" in err and "error:" in err

    def test_objective_doubled_by_flattening_is_positioned(self, tmp_path, capsys):
        # one objective declared, instantiated once per object of A and of B
        model = tmp_path / "m.scm"
        model.write_text("class R { A a; B b; }\n"
                         "class A { int a in [0,1]; constraint z { [minimize] a; } }\n"
                         "class B extends A { }\n")
        code, _, err = run(capsys, "compile", str(model), "--target", "flat")
        assert code == 1
        assert err.strip() == (
            f"error: [build] {model}:2:42: more than one objective after flattening")

    def test_no_rewrites_direct_generation(self, tmp_path, capsys):
        model = tmp_path / "setmat.scm"
        model.write_text((FIXTURES / "setmat.scm").read_text())
        code, _, err = run(capsys, "compile", str(model), "--target", "clp",
                           "--out", str(tmp_path / "x.ecl"), "--no-rewrites")
        assert code == 1
        assert "decompose_set_matrix" in err
        code, _, _ = run(capsys, "compile", str(model), "--target", "clp",
                         "--out", str(tmp_path / "x.ecl"))
        assert code == 0

    def test_non_decimal_digit_is_a_diagnostic(self, tmp_path, capsys):
        model = tmp_path / "m.scm"
        model.write_text("class A {\n  int x in [1, \u00b2];\n}")
        code, _, err = run(capsys, "compile", str(model), "--emit-flat",
                           "--out", str(tmp_path / "m.fsc"))
        assert code == 1
        assert f"{model}:2:16: error: unexpected character '\u00b2'" in err
        assert "Traceback" not in err

    def test_deeply_parenthesized_constraint(self, tmp_path, capsys):
        depth = 250
        model = tmp_path / "deep.scm"
        model.write_text(
            "class A {\n  int x in [0,3];\n  constraint c {\n    "
            + "(" * depth + "x = 2" + ")" * depth + ";\n  }\n}\n"
        )
        code, _, _ = run(capsys, "compile", str(model), "--emit-flat",
                         "--out", str(tmp_path / "deep.fsc"))
        assert code == 0
        code, out, _ = run(capsys, "solve", str(model))
        assert code == 0
        assert out.startswith("x = 2\n")

    def test_long_chain_solves_without_a_recursion_limit(self, tmp_path, capsys):
        model = tmp_path / "chain.scm"
        model.write_text(
            "import chain.dat;\n\nclass Chain {\n  int x[n] in [1,3];\n  constraint c {\n"
            "    forall(i in 1..n-1) { x[i] <= x[i+1]; }\n  }\n}\n"
        )
        (tmp_path / "chain.dat").write_text("int n := 1500;\n")
        code, out, err = run(capsys, "solve", str(model))
        assert code == 0, err
        assert "Traceback" not in err
        assert out.startswith("x = [" + ", ".join(["1"] * 1500) + "]\n")

    def test_nesting_past_the_stack_is_a_diagnostic(self, tmp_path, capsys):
        depth = 5000
        model = tmp_path / "deep.scm"
        model.write_text("class A {\n  int x in [0,3];\n  constraint c {\n    "
                         + "(" * depth + "x = 2" + ")" * depth + ";\n  }\n}\n")
        code, _, err = run(capsys, "solve", str(model))
        assert code == 1
        assert "error: input nested too deeply" in err

    @pytest.mark.parametrize("command", ["solve", "compile"])
    def test_internal_error_is_one_line(self, tmp_path, capsys, command):
        # The analyzer still recurses on a 1,500-term sum (ROADMAP item 5);
        # until it does not, this is an internal error, reported in one line.
        model = tmp_path / "sum.scm"
        model.write_text("class A {\n  int x in [0,3];\n  constraint c { "
                         + "+".join(["x"] * 1500) + " >= 0; }\n}\n")
        argv = [command, str(model)]
        if command == "compile":
            argv += ["--emit-flat", "--out", str(tmp_path / "sum.fsc")]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("error: internal error: RecursionError: maximum recursion")

    def test_fault_in_a_pass_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        # only what a pass raises about the model is a diagnostic; a fault in
        # a pass reaches the caller as itself
        def broken(state):
            raise ZeroDivisionError("division by zero")

        tm, _, _ = compile_corpus("queens-10")
        monkeypatch.setattr(flattener, "PIPELINE",
                            flattener.PIPELINE[:2] + (("unroll_loops", broken),))
        with pytest.raises(ZeroDivisionError):
            flattener.flatten(tm)
        code, _, err = run(capsys, "compile", str(corpus_dir() / "queens-10.scm"),
                           "--emit-flat", "--out", str(tmp_path / "q.fsc"))
        assert code == 1
        assert err == "error: internal error: ZeroDivisionError: division by zero\n"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile"])  # missing model argument
        assert exc.value.code == 2


class TestSolve:
    def test_stable_prints_names_not_integers(self, capsys):
        code, out, _ = run(capsys, "solve", str(corpus_dir() / "stable.scm"))
        assert code == 0
        assert "man_wife = [" in out
        first_line = next(l for l in out.splitlines() if l.startswith("man_wife"))
        assert any(name in first_line for name in ("Helen", "Tracy", "Linda", "Sally", "Wanda"))
        assert not any(ch.isdigit() for ch in first_line)

    def test_send_all_confirms_uniqueness(self, capsys):
        code, out, _ = run(capsys, "solve", str(corpus_dir() / "send.scm"), "--all", "--stats")
        assert code == 0
        assert out.count("----------") == 1
        assert "==========" in out
        assert "% nodes" in out

    def test_infeasible_exit_3(self, tmp_path, capsys):
        model = tmp_path / "m.scm"
        model.write_text("class A { int x in [1,1]; constraint z { x > 1; } }")
        code, _, _ = run(capsys, "solve", str(model))
        assert code == 3

    def test_unsupported_exit_4_with_hint(self, capsys):
        code, _, err = run(capsys, "solve", str(corpus_dir() / "golfers.scm"))
        assert code == 4
        assert "set-of-int" in err
        assert "compile" in err

    def test_objective_model_reports_optimum(self, capsys):
        code, out, _ = run(capsys, "solve", str(corpus_dir() / "production.scm"))
        assert code == 0
        assert "objective = " in out


class TestCheck:
    def test_round_trip_solve_then_check(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", str(corpus_dir() / "stable.scm"))
        assert code == 0
        solution = tmp_path / "sol.txt"
        solution.write_text(out)
        code, out2, _ = run(capsys, "check", str(corpus_dir() / "stable.scm"),
                            "--solution", str(solution))
        assert code == 0
        assert "satisfies" in out2

    def test_flipped_value_names_constraint(self, tmp_path, capsys):
        _, out, _ = run(capsys, "solve", str(corpus_dir() / "stable.scm"))
        lines = out.splitlines()
        wife_line = next(l for l in lines if l.startswith("man_wife"))
        names = wife_line.split("[")[1].rstrip("]").split(", ")
        names[0], names[1] = names[1], names[0]
        flipped = [
            f"man_wife = [{', '.join(names)}]" if l.startswith("man_wife") else l
            for l in lines
        ]
        solution = tmp_path / "bad.txt"
        solution.write_text("\n".join(flipped))
        code, out2, _ = run(capsys, "check", str(corpus_dir() / "stable.scm"),
                            "--solution", str(solution))
        assert code == 3
        assert "violated: constraint" in out2

    def test_out_of_domain_index_is_a_violation(self, tmp_path, capsys):
        # man_wife[1] = 9 lies outside 1..5, so woman_husband[man_wife[1]]
        # cannot be read; the domain violation is the answer, not an error
        _, out, _ = run(capsys, "solve", str(corpus_dir() / "stable.scm"))
        lines = [
            "man_wife = [9, Helen, Wanda, Linda, Sally]" if l.startswith("man_wife") else l
            for l in out.splitlines()
        ]
        solution = tmp_path / "bad.txt"
        solution.write_text("\n".join(lines))
        code, out2, err = run(capsys, "check", str(corpus_dir() / "stable.scm"),
                              "--solution", str(solution))
        assert code == 3
        assert err == ""
        violated = out2.splitlines()
        assert violated[0] == ("violated: constraint -1: value 9 of 'man_wife[1]'"
                               " lies outside its domain")
        assert len(violated) > 1
        assert all(l.startswith("violated: constraint ") for l in violated)

    def test_empty_model_empty_solution(self, tmp_path, capsys):
        model = tmp_path / "m.scm"
        model.write_text("class A {}")
        solution = tmp_path / "sol.txt"
        solution.write_text("")
        code, out, _ = run(capsys, "check", str(model), "--solution", str(solution))
        assert code == 0


    @pytest.mark.parametrize("line,message", [
        ("s = [[{a}, {2}], [{1}, {2}]]", "cannot read value 'a'"),
        ("s = [[{1}, {2}], [{1}, {2}]", "expected ']' in value, found end of file"),
        ("s = [[{1}, {2}] [{1}, {2}]]", "expected ']' in value, found '['"),
        ("s = [[[{1}], {2}], [{1}, {2}]]", "cannot read value '['"),
        ("s = [[{1}, {2}], [{1}, {2}]] 3", "unexpected '3' after the value"),
        ('s = [[{1}, {2}], [{1}, {"2}]]', "unterminated string literal"),
    ])
    def test_malformed_solution_value(self, tmp_path, capsys, line, message):
        solution = tmp_path / "sol.txt"
        solution.write_text(f"% a comment\n{line}\n")
        code, _, err = run(capsys, "check", str(FIXTURES / "setmat.scm"),
                           "--solution", str(solution))
        assert code == 1
        assert err == f"error: solution line 2: {message}\n"

    def test_solution_values_keep_their_forms(self, tmp_path, capsys):
        solution = tmp_path / "sol.txt"
        solution.write_text("-----\n// note\ns = [[{1,}, {+2}], [, {1}, {2}]]\nobjective = 3\n")
        code, out, err = run(capsys, "check", str(FIXTURES / "setmat.scm"),
                             "--solution", str(solution))
        assert (code, err) == (0, "")
        assert "satisfies" in out


class TestBench:
    def test_full_corpus_nine_rows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "bench", "--time-limit", "10",
                           "--report", str(tmp_path / "r.jsonl"))
        assert code == 0
        rows = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
        assert len(rows) == 9
        assert all(r["status"] == "ok" for r in rows)
        golfers = next(r for r in rows if r["name"] == "golfers")
        assert "emit-only" in golfers["note"]
        solved = [r for r in rows if r.get("solved")]
        assert len(solved) == 8
        for r in rows:
            for target in ("flat", "gecodej", "clp"):
                assert r[f"emit_s_{target}"] >= 0 and f"tokens_{target}" in r
        assert "emit_s" not in out.splitlines()[0]  # the console table is unchanged

    def test_empty_corpus_dir(self, tmp_path, capsys):
        empty = tmp_path / "corpus"
        empty.mkdir()
        code, out, _ = run(capsys, "bench", str(empty),
                           "--report", str(tmp_path / "r.jsonl"))
        assert code == 0
        assert (tmp_path / "r.jsonl").read_text() == ""

    def test_unparsable_file_marks_row_failed_others_proceed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.scm").write_text("class A { int x in [0,1]; }")
        (corpus / "bad.scm").write_text("class {{{{")
        code, out, _ = run(capsys, "bench", str(corpus),
                           "--report", str(tmp_path / "r.jsonl"))
        assert code == 0
        rows = {json.loads(l)["name"]: json.loads(l)
                for l in (tmp_path / "r.jsonl").read_text().splitlines()}
        assert rows["bad"]["status"] == "failed"
        assert rows["good"]["status"] == "ok"


class TestTargets:
    def test_lists_builtins(self, capsys):
        code, out, _ = run(capsys, "targets")
        assert code == 0
        for name in ("flat", "gecodej", "clp"):
            assert name in out


class TestRendering:
    def test_enum_label_fallback_warns_and_prints_integer(self, capsys):
        from scomma.cli import render_solution
        from scomma.ir import FlatModel, FlatVar, IntInterval, Solution

        fm = FlatModel(
            name="t",
            variables=[FlatVar("x", "int", (), IntInterval(1, 9), enum_tag="small")],
            enum_types={"small": ("One", "Two")},
        )
        text = render_solution(fm, Solution({("x", ()): 7}))
        captured = capsys.readouterr()
        assert text == "x = 7"
        assert "no label" in captured.err

    def test_labels_used_when_in_range(self, capsys):
        from scomma.cli import render_solution
        from scomma.ir import FlatModel, FlatVar, IntInterval, Solution

        fm = FlatModel(
            name="t",
            variables=[FlatVar("x", "int", (), IntInterval(1, 2), enum_tag="small")],
            enum_types={"small": ("One", "Two")},
        )
        assert render_solution(fm, Solution({("x", ()): 2})) == "x = Two"


SHARED_LABELS = "enum A := {x, y};\nenum B := {y, x, z};\n"


class TestDataValues:
    """Data values are read once, by analysis, against their declarations."""

    @pytest.mark.parametrize("model, data, argv, expected", [
        # a label reads in the enum its declaration names, not the first
        # enum that declares it
        ("class R {\n  B pick;\n  B free;\n  constraint c { free = pick; }\n}",
         SHARED_LABELS + "B R.pick := x;\n", ("solve", "--all"),
         (0, "free = x\n----------\n==========\n", "")),
        # keys are laid out by the axis's enum, even when they fit a smaller one
        ("class R {\n  int v[Big] in [0,3];\n  constraint c { v[3] <= 1; }\n}",
         "enum Small := {x, y};\nenum Big := {x, y, z};\nR R.v := [x: 1, y: 2];\n",
         ("solve", "--all"),
         (0, "v = [1, 2, 0]\n----------\nv = [1, 2, 1]\n----------\n==========\n", "")),
        ("class R { int a in [0,1]; }", "int k[3] := [1,2];\nint j[2] := [1,2,3];\n",
         ("compile", "--target", "flat"),
         (1, "", "{data}:1:1: error: 'k': array literal has 2 entries, expected 3\n"
                 "{data}:2:1: error: 'j': array literal has 3 entries, expected 2\n"
                 "error: analysis failed\n")),
        ("class R { int a in [0,1]; }", "int n := -2;\nint k[n] := [1,2];\n",
         ("compile", "--target", "flat"),
         (1, "", "{data}:2:7: error: constant 'n' used as array size of 'k' must be a"
                 " positive integer\nerror: analysis failed\n")),
        ("class R { int a in [0,1]; }", "int k := foo;\n", ("compile", "--target", "flat"),
         (1, "", "{data}:1:1: error: 'k': 'foo' is not a value of any enum\n"
                 "error: analysis failed\n")),
        ("class R {\n  B free;\n  constraint c { free = x; }\n}", SHARED_LABELS,
         ("solve", "--all"),
         (1, "", "{model}:3:25: error: label 'x' is a value of enums A, B; a bare label"
                 " must belong to exactly one enum\nerror: analysis failed\n")),
        ("class R { int a in [0,3]; P p[2]; }\nclass P { int x in [0,3]; }",
         "int R.a.b := 1;\nint R.p.x := 1;\n", ("solve",),
         (1, "", "{data}:1:1: error: 'a' is not an object; cannot access 'b'\n"
                 "{data}:2:1: error: 'p' is an object array; an assignment path cannot"
                 " go through it\nerror: analysis failed\n")),
    ], ids=["shared-label", "keys-of-a-smaller-enum", "two-bad-constants",
            "negative-size", "unknown-label", "bare-shared-label", "path-through-non-object"])
    def test_cli_output(self, tmp_path, capsys, model, data, argv, expected):
        model_path, data_path = tmp_path / "m.scm", tmp_path / "m.dat"
        model_path.write_text(model)
        data_path.write_text(data)
        command, *flags = argv
        code, out, err = run(capsys, command, str(model_path), str(data_path), *flags,
                             *(["--out", str(tmp_path / "m.fsc")] if command == "compile" else []))
        want_code, want_out, want_err = expected
        assert (code, out, err) == (
            want_code, want_out, want_err.format(model=model_path, data=data_path))

    def test_enum_types_list_only_the_enums_the_model_uses(self, tmp_path, capsys):
        model_path, data_path = tmp_path / "m.scm", tmp_path / "m.dat"
        model_path.write_text("class R {\n  B pick;\n  B free;\n  constraint c { free = pick; }\n}")
        data_path.write_text(SHARED_LABELS + "B R.pick := x;\n")
        code, _, _ = run(capsys, "compile", str(model_path), str(data_path), "--emit-flat",
                         "--out", str(tmp_path / "m.fsc"))
        assert code == 0
        assert (tmp_path / "m.fsc").read_text().split("enum-types:")[1].split() == [
            "B", ":=", "{y,x,z};"]


class TestShapesAndDomains:
    """Analysis resolves every shape and domain; the flattener folds none."""

    @pytest.mark.parametrize("model, data, argv, expected", [
        ("class R { int x in [0, 2.5]; constraint c { x >= 0; } }", None,
         ("compile", "--target", "flat"),
         (1, "", "{model}:1:11: error: domain bounds of 'R.x' must be integers\n"
                 "error: analysis failed\n")),
        ("class R { int x in [n, 3]; constraint c { x >= 0; } }", "real n := 1.5;\n",
         ("compile", "--target", "flat"),
         (1, "", "{model}:1:11: error: domain bounds of 'R.x' must be integers\n"
                 "error: analysis failed\n")),
        ("class R { int x in {1, 2.5}; constraint c { x >= 0; } }", None,
         ("compile", "--target", "flat"),
         (1, "", "{model}:1:11: error: domain values of 'R.x' must be integers\n"
                 "error: analysis failed\n")),
        # a value outside its domain was compiled as a literal, and the
        # solver then found no solution without saying why
        ("class R { int x in [0,5]; int y in [0,5]; constraint c { y = x; } }",
         "int R.x := 9;\n", ("solve",),
         (1, "", "{data}:1:1: error: assigned value 9 for 'R.x' lies outside its domain\n"
                 "error: analysis failed\n")),
        ("class R { int a[2] in [0,5]; }", "int R.a := [9, _];\n", ("solve",),
         (1, "", "{data}:1:1: error: assigned value 9 for 'R.a[1]' lies outside its"
                 " domain\nerror: analysis failed\n")),
        # which cells are decisions depends on the data, so this check stays
        # in the flattener, at the attribute
        ("class R { int z; constraint c { z >= 0; } }", None,
         ("compile", "--target", "flat"),
         (1, "", "error: [expand_composition] {model}:1:11: 'z' is a decision variable"
                 " but has no finite domain\n")),
    ], ids=["real-bound", "real-constant-bound", "real-element", "scalar-outside-domain",
            "cell-outside-domain", "no-finite-domain"])
    def test_cli_output(self, tmp_path, capsys, model, data, argv, expected):
        model_path, data_path = tmp_path / "m.scm", tmp_path / "m.dat"
        model_path.write_text(model)
        files = [str(model_path)]
        if data is not None:
            data_path.write_text(data)
            files.append(str(data_path))
        command, *flags = argv
        code, out, err = run(capsys, command, *files, *flags,
                             *(["--out", str(tmp_path / "m.fsc")] if command == "compile" else []))
        want_code, want_out, want_err = expected
        assert (code, out, err) == (
            want_code, want_out, want_err.format(model=model_path, data=data_path))


P_WITH_W = "\nclass P { int w in [0,1]; int x in [0,1]; int arr[2] in [0,1]; }"


class TestFlatteningErrors:
    """What flattening can still reject depends on data or on unrolling, and
    each such error is printed with the position of the construct at fault."""

    @pytest.mark.parametrize("model, data, expected", [
        # the index's own position
        ("class R { P p[3]; constraint c { p[5].w = 1; } }" + P_WITH_W, None,
         "[expand_composition] {model}:1:36: object index 5 outside 1..3 in 'p[5].w'"),
        # an unrolled index has no position of its own: the reference's stands in
        ("class R { P p[2]; constraint c { forall (i in 1..3) { p[i].x = 1; } } }" + P_WITH_W,
         None,
         "[expand_composition] {model}:1:55: object index 3 outside 1..2 in 'p[3].x'"),
        # a constant index out of range is the one flatness text, whether the
        # array is a data table, a fully assigned attribute or a variable
        ("class R { int x in [0,9]; constraint c { x = t[5]; } }", "int t[3] := [1,2,3];\n",
         "[build] {model}:1:48: constraint 0: index 5 outside 1..3 for 't'"),
        ("class R { int a[3] in [0,9]; int x in [0,9]; constraint c { x = a[5]; } }",
         "int R.a := [1,2,3];\n",
         "[build] {model}:1:67: constraint 0: index 5 outside 1..3 for 'a'"),
        ("class R { int x[3] in [0,1]; constraint c { forall (i in 1..n/2) { x[i] = 1; } } }",
         "int n := 3;\n",
         "[unroll_loops] {model}:1:62: loop bound '3/2' is not a constant integer"),
        # the attribute that claims the name second
        ("class R { P p; int p_w in [0,1]; constraint c { p_w = 1; } }" + P_WITH_W, None,
         "[expand_composition] {model}:1:16: flat name 'p_w' collides with an existing"
         " variable or table"),
        ("class R { P p[2]; int k in [1,2]; constraint z { p[k].arr[1] = 0; } }" + P_WITH_W,
         None,
         "[expand_composition] {model}:1:50: variable index into object array 'p' in"
         " 'p[k].arr[1]': the target attribute is expanded per object, so the index must"
         " be constant"),
    ], ids=["object-index", "object-index-unrolled", "table-index", "assigned-array-index",
            "loop-bound", "flat-name-collision", "variable-object-index"])
    def test_cli_output(self, tmp_path, capsys, model, data, expected):
        model_path, data_path = tmp_path / "m.scm", tmp_path / "m.dat"
        model_path.write_text(model)
        files = [str(model_path)]
        if data is not None:
            data_path.write_text(data)
            files.append(str(data_path))
        code, out, err = run(capsys, "compile", *files, "--target", "flat",
                             "--out", str(tmp_path / "m.fsc"))
        assert (code, out, err) == (1, "", f"error: {expected.format(model=model_path)}\n")


class TestConstantShadowing:
    """A name resolves to an enclosing loop variable first, then to an
    attribute of the class, and only then to a data constant."""

    @pytest.mark.parametrize("model, data, argv, expected", [
        ("class R { int x[3] in [0,9]; constraint c { forall (n in 1..3) { x[n] = n; } } }",
         "int n := 2;\n", ("solve", "--all"), "x = [1, 2, 3]\n----------\n==========\n"),
        ("class R { int t[3] in [0,9]; int x in [0,9]; int n in [0,9];"
         " constraint c { x = t[1]; x = n; } }",
         "int t[3] := [7,8,9]; int n := 4;\n", ("solve",),
         "t = [0, 0, 0]\nx = 0\nn = 0\n----------\n"),
    ], ids=["loop-variable", "attribute"])
    def test_cli_output(self, tmp_path, capsys, model, data, argv, expected):
        model_path, data_path = tmp_path / "m.scm", tmp_path / "m.dat"
        model_path.write_text(model)
        data_path.write_text(data)
        command, *flags = argv
        code, out, err = run(capsys, command, str(model_path), str(data_path), *flags)
        assert (code, out, err) == (0, expected, "")
