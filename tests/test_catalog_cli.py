import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.catalog import (
    CatalogError,
    builtin_algebras,
    heisenberg3,
    parse_catalog,
    relabel_canonical,
    render_catalog,
)
from superschur.cli import main
from superschur.freenilp import GeneratorSpec, build_free_nilpotent
from superschur.superalg import EVEN, LieSuperalgebra, SuperDim
from support import canonical_table

HEIS3_RECORD = textwrap.dedent(
    """\
    # classical Heisenberg algebra
    algebra heis3
    even e1 e2 e3
    [e1,e2] = e3
    end
    """
)


class TestParse:
    def test_heis3_record(self):
        (alg,) = parse_catalog(HEIS3_RECORD)
        assert alg.name == "heis3"
        assert alg.sdim == SuperDim(3, 0)
        assert alg.validate().ok

    def test_duplicate_pair_rejected(self):
        text = textwrap.dedent(
            """\
            algebra bad
            even e1 e2 e3
            [e1,e2] = e3
            [e2,e1] = e3
            end
            """
        )
        with pytest.raises(CatalogError, match="duplicate bracket"):
            parse_catalog(text)

    def test_wrong_parity_target_names_entry(self):
        text = textwrap.dedent(
            """\
            algebra bad
            even e1 e2
            odd f1
            [e1,e2] = f1
            end
            """
        )
        with pytest.raises(CatalogError, match=r"\[e1,e2\] targets f1"):
            parse_catalog(text)

    def test_syntax_error_carries_line(self):
        text = "algebra a\neven e1\n[e1 e2] = e1\nend\n"
        with pytest.raises(CatalogError) as err:
            parse_catalog(text)
        assert err.value.line == 3

    def test_unknown_label(self):
        text = "algebra a\neven e1 e2 e3\n[e1,zz] = e3\nend\n"
        with pytest.raises(CatalogError, match="unknown label"):
            parse_catalog(text)

    def test_reversed_entry_normalized_by_skew(self):
        # [b,a] = -(-1)^{|a||b|} [a,b]: sign -1 for even x even and for even
        # x odd, +1 for odd x odd
        cases = [
            ("even e1 e2 e3", "[e2,e1] = -e3", None),
            ("even z\nodd f1 f2", "[f2,f1] = z", "[f1,f2] = z"),
            ("even e1\nodd f1 f2", "[f1,e1] = -f2", "[e1,f1] = f2"),
        ]
        for basis, reversed_entry, entry in cases:
            (alg,) = parse_catalog(f"algebra rev\n{basis}\n{reversed_entry}\nend\n")
            if entry is None:
                ref = parse_catalog(HEIS3_RECORD)[0]
            else:
                ref = parse_catalog(f"algebra ref\n{basis}\n{entry}\nend\n")[0]
            assert canonical_table(alg) == canonical_table(ref), reversed_entry

    def test_invalid_algebra_rejected_at_parse(self):
        text = textwrap.dedent(
            """\
            algebra bad
            even e1 e2 e3 e4
            [e1,e2] = e3
            [e1,e3] = e1
            end
            """
        )
        with pytest.raises(CatalogError, match="not a Lie superalgebra"):
            parse_catalog(text)

    def test_missing_end(self):
        with pytest.raises(CatalogError, match="missing its 'end'"):
            parse_catalog("algebra a\neven e1\n")

    def test_rational_coefficients(self):
        text = textwrap.dedent(
            """\
            algebra frac
            even e1 e2 e3
            [e1,e2] = 1/2*e3
            end
            """
        )
        (alg,) = parse_catalog(text)
        from fractions import Fraction

        assert canonical_table(alg) == {(0, 1): {2: Fraction(1, 2)}}

    def test_empty_record_is_zero_algebra(self):
        (alg,) = parse_catalog("algebra nil\nend\n")
        assert alg.dim == 0



def _record(body: str) -> str:
    return f"algebra a\neven e1 e2 e3\n{body}\nend\n"


class TestDiagnostics:
    """The full text of every catalog diagnostic, with its line number."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (_record("[e1,e2] = e3 e3"), "line 3: expected '+' or '-' before 'e3'"),
            (_record("[e1,e2] = 2*"), "line 3: cannot read term at '2*'"),
            # the line is stripped before matching, so a blank right-hand
            # side never reaches the term reader
            (_record("[e1,e2] =   "), "line 3, column 1: cannot parse bracket line '[e1,e2] ='"),
            # the column counts the raw line's indent, a tab as one character
            (
                "algebra a\neven e1\n      [e1 e1] = e1\nend\n",
                "line 3, column 7: cannot parse bracket line '[e1 e1] = e1'",
            ),
            (
                "algebra a\neven e1\n\t[e1 e1] = e1  # no comma\nend\n",
                "line 3, column 2: cannot parse bracket line '[e1 e1] = e1'",
            ),
            (_record("[e1,e2] = 1/0*e3"), "line 3: coefficient 1/0 has a zero denominator"),
            (
                _record(f"[e1,e2] = {'1' * 5000}*e3"),
                "line 3: coefficient of 5000 characters is too long",
            ),
            ("algebra a\neven e-1\nend\n", "line 2: 'e-1' is not a valid basis label"),
            ("algebra a\neven e1 e2\nodd e1\nend\n", "line 1: duplicate basis label in 'a'"),
            (_record("[e1,e2] = zz"), "line 3: unknown label 'zz'"),
            (_record("[e1,e2] = e3\n[e2,e1] = e3"), "line 4: duplicate bracket entry for (e2,e1)"),
            (
                "algebra a\neven e1 e2\nodd f1\n[e1,e2] = f1\nend\n",
                "line 4: bracket [e1,e2] targets f1 of the wrong parity",
            ),
            (
                "algebra bad\neven e1 e2 e3 e4\n[e1,e2] = e3\n[e1,e3] = e1\nend\n",
                "line 1: record 'bad' is not a Lie superalgebra: "
                "graded Jacobi identity fails on (e1,e2,e3)",
            ),
            ("algebra a\neven e1\nalgebra b\nend\n", "line 3: record 'a' is missing its 'end'"),
            ("algebra a\neven e1\n", "line 1: record 'a' is missing its 'end'"),
            ("algebra\nend\n", "line 1: expected: algebra <name>"),
            ("algebra a b\nend\n", "line 1: expected: algebra <name>"),
            ("algebra a\nend\nalgebra a\nend\n", "line 3: duplicate algebra name 'a'"),
            ("even e1\n", "line 1: statement outside an algebra record: 'even e1'"),
            ("algebra a\neven e1\neven e2\nend\n", "line 3: repeated 'even' line"),
            ("algebra a\nodd f1\nodd f2\nend\n", "line 3: repeated 'odd' line"),
            ("algebra a\nfoo\nend\n", "line 2: unrecognized statement 'foo'"),
        ],
    )
    def test_message(self, text, message):
        with pytest.raises(CatalogError) as err:
            parse_catalog(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            # labels are checked before the brackets, at the record's line
            ("algebra a\neven e1 e1\n[e1,e2] = zz\nend\n", "line 1: duplicate basis label in 'a'"),
            # a bracket's own labels before the pair's duplicate, and the
            # duplicate before its targets
            (_record("[e1,zz] = e3\n[e1,zz] = e3"), "line 3: unknown label 'zz'"),
            (_record("[e1,e2] = e3\n[e2,e1] = zz"), "line 4: duplicate bracket entry for (e2,e1)"),
            # the brackets in file order
            (
                "algebra a\neven e1 e2\nodd f1\n[e1,e2] = zz\n[e1,e2] = f1\nend\n",
                "line 4: unknown label 'zz'",
            ),
            # a record is built at its 'end', before the next record is read
            (
                "algebra a\neven e1\nodd f1\n[e1,f1] = e1\nend\nalgebra b\nfoo\nend\n",
                "line 4: bracket [e1,f1] targets e1 of the wrong parity",
            ),
            # a line's syntax before the record's build
            (_record("[e1,e2] = e3\n[e2,e1] = e3 e3"), "line 4: expected '+' or '-' before 'e3'"),
        ],
    )
    def test_first_of_several_errors(self, text, message):
        with pytest.raises(CatalogError) as err:
            parse_catalog(text)
        assert str(err.value) == message

    def test_render_rejects_a_label_that_does_not_parse_back(self):
        alg = LieSuperalgebra("h", ["e 1", "e2"], [EVEN, EVEN], {})
        with pytest.raises(CatalogError) as err:
            render_catalog([alg])
        assert str(err.value) == "label 'e 1' of h is not grammar-safe"

# characters of the grammar, so fuzzed text often gets past the first check
_GRAMMAR_TEXT = st.text(alphabet="[],=+-*/#0123456789 efz12_'\nalgebraendvo", max_size=80)


class TestParseFuzz:
    @given(st.one_of(st.text(max_size=80), _GRAMMAR_TEXT))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_catalog_error(self, text):
        try:
            parse_catalog(text)
        except CatalogError:
            pass

    @given(st.one_of(st.text(max_size=80), _GRAMMAR_TEXT))
    @settings(max_examples=300, deadline=None)
    def test_record_body_raises_only_catalog_error(self, body):
        try:
            parse_catalog(f"algebra fuzz\neven e1 e2\nodd f1 f2\n{body}\nend\n")
        except CatalogError:
            pass

    def test_overlong_coefficient_is_catalog_error(self):
        text = f"algebra a\neven e1 e2 e3\n[e1,e2] = {'1' * 5000}*e3\nend\n"
        with pytest.raises(CatalogError, match="line 3: coefficient of 5000 characters"):
            parse_catalog(text)


class TestRoundTrip:
    def test_builtin_catalog(self):
        algs = builtin_algebras()
        text = render_catalog(algs)
        parsed = parse_catalog(text)
        assert len(parsed) == len(algs)
        for a, b in zip(algs, parsed):
            assert a.name == b.name
            assert a.basis_labels == b.basis_labels
            assert a.parities == b.parities
            assert canonical_table(a) == canonical_table(b)

    def test_render_is_stable(self):
        algs = builtin_algebras()
        text = render_catalog(algs)
        assert render_catalog(parse_catalog(text)) == text

    @pytest.mark.parametrize("name", ["h#1", "h\t1", "h\n1"])
    def test_render_rejects_names_that_do_not_parse_back(self, name):
        # '#' would start a comment (h#1 parsed back as h); whitespace splits
        # the header line
        with pytest.raises(CatalogError, match="not grammar-safe"):
            render_catalog([relabel_canonical(heisenberg3(), name)])

    @pytest.mark.parametrize("name", ["sh(0|4)", "free(0|3,c4)", "heis3+A(1|0)"])
    def test_used_names_round_trip(self, name):
        text = render_catalog([relabel_canonical(heisenberg3(), name)])
        assert [a.name for a in parse_catalog(text)] == [name]


class TestCli:
    def test_multiplier_both_on_heis3(self, capsys):
        code = main(["multiplier", "--algebra", "heis3", "--method", "both"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("(2|0)") == 2

    def test_bounds_skip_abelian(self, capsys):
        code = main(["bounds", "--algebra", "A(2|1)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hypotheses not met (r+s=0)" in out

    def test_identity_sweep(self, capsys):
        code = main(["identity", "--arity-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "parity_cases = 16" in out and "parity_cases = 32" in out
        assert "nonzero_residuals = 0" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["identity", "--arity-max", "2"], "error: --arity-max must be at least 3\n"),
            (
                ["free", "--even", "1", "--odd", "0", "--class", "0"],
                "error: class bound must be at least 1\n",
            ),
        ],
    )
    def test_out_of_range_arguments_exit_1(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == message

    def test_identity_arity_above_the_limit_is_refused(self, capsys, monkeypatch):
        from superschur import cli as cli_mod

        def never(i, parities):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(cli_mod, "rewrite_identity_residual", never)
        code = main(["identity", "--arity-max", str(cli_mod.IDENTITY_ARITY_MAX + 1)])
        captured = capsys.readouterr()
        assert cli_mod.IDENTITY_ARITY_MAX == 10
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --arity-max 11 exceeds the limit of 10\n"

    def test_identity_arity_at_the_limit_is_accepted(self, capsys, monkeypatch):
        from superschur import cli as cli_mod

        calls = []
        monkeypatch.setattr(
            cli_mod, "rewrite_identity_residual", lambda i, parities: calls.append(i) or {}
        )
        code = main(["--format", "json", "identity", "--arity-max", "10"])
        assert code == 0
        assert len(calls) == sum(2 ** (i + 1) for i in range(3, 11))
        assert '"arity": 10' in capsys.readouterr().out

    def test_readme_quotes_the_limits(self):
        from superschur import cli as cli_mod

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        text = " ".join(readme.split())
        assert f"refuses `N > {cli_mod.IDENTITY_ARITY_MAX}`" in text
        assert f"(limit {cli_mod.IDENTITY_ARITY_MAX})" in text
        assert f"more than {cli_mod.COCHAIN_TRIPLES_MAX:,} triples" in text

    @pytest.mark.parametrize("method", ["cohomology", "both"])
    def test_cochain_triples_above_the_limit_are_refused(self, capsys, monkeypatch, method):
        from superschur import cli as cli_mod

        def never(L):
            raise AssertionError("a multiplier route started")

        count = len(list(heisenberg3().touching_triples()))
        assert cli_mod.COCHAIN_TRIPLES_MAX == 100_000
        monkeypatch.setattr(cli_mod, "COCHAIN_TRIPLES_MAX", count - 1)
        monkeypatch.setattr(cli_mod, "schur_multiplier_cohomology", never)
        monkeypatch.setattr(cli_mod, "schur_multiplier_hopf", never)
        code = main(["multiplier", "--algebra", "A(2|1)", "--algebra", "heis3", "--method", method])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: heis3 has {count} triples for the cochain route, over the "
            f"limit of {count - 1}; use --method hopf\n"
        )

    def test_cochain_triples_at_the_limit_are_accepted(self, capsys, monkeypatch):
        from superschur import cli as cli_mod

        count = len(list(heisenberg3().touching_triples()))
        calls = []
        monkeypatch.setattr(cli_mod, "COCHAIN_TRIPLES_MAX", count)
        monkeypatch.setattr(
            cli_mod, "schur_multiplier_cohomology", lambda L: calls.append(L.name) or SuperDim(2, 0)
        )
        code = main(["multiplier", "--algebra", "heis3", "--method", "cohomology"])
        assert code == 0 and calls == ["heis3"]
        assert "(2|0)" in capsys.readouterr().out

    def test_hopf_route_ignores_the_cochain_limit(self, capsys, monkeypatch):
        from superschur import cli as cli_mod

        monkeypatch.setattr(cli_mod, "COCHAIN_TRIPLES_MAX", 0)
        code = main(["multiplier", "--algebra", "heis3", "--method", "hopf"])
        assert code == 0
        assert "(2|0)" in capsys.readouterr().out

    def test_unknown_algebra_is_usage_error(self, capsys):
        code = main(["multiplier", "--algebra", "nope"])
        assert code == 1
        assert "unknown algebra" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cat"
        bad.write_text("algebra a\neven e1\n[e1 e1] = e1\nend\n")
        code = main(["check", str(bad)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_zero_denominator_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cat"
        bad.write_text("algebra a\nodd f1\n[f1,f1] = 1/0*f1\nend\n")
        code = main(["check", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 3" in err and "zero denominator" in err
        assert "Traceback" not in err

    def test_non_utf8_catalog_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cat"
        bad.write_bytes(b"algebra a\neven e\xff1\nend\n")
        code = main(["check", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "not UTF-8 text" in err
        assert "Traceback" not in err

    def test_undecodable_stdin_label_is_parse_error(self, monkeypatch, capsys):
        import io

        # stdin decoded with surrogateescape turns the byte 0xff into a
        # lone surrogate inside the label
        monkeypatch.setattr("sys.stdin", io.StringIO("algebra a\neven e\udcff1\nend\n"))
        code = main(["check", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err and "not a valid basis label" in err

    def test_subspace_error_is_usage_error(self, capsys, monkeypatch):
        from superschur import cli as cli_mod
        from superschur.exactla import SubspaceError

        def broken(L):
            raise SubspaceError("quotient undefined")

        monkeypatch.setattr(cli_mod, "schur_multiplier_hopf", broken)
        code = main(["multiplier", "--algebra", "heis3", "--method", "hopf"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: quotient undefined\n"

    def test_stdin_catalog(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(HEIS3_RECORD))
        code = main(["invariants", "-"])
        out = capsys.readouterr().out
        assert code == 0
        assert "class = 2" in out

    def test_reports_are_deterministic(self, capsys):
        main(["--format", "json", "verify", "--algebra", "heis3"])
        first = capsys.readouterr().out
        main(["--format", "json", "verify", "--algebra", "heis3"])
        second = capsys.readouterr().out
        assert first == second

    def test_format_after_subcommand_and_env(self, capsys, monkeypatch):
        code = main(["multiplier", "--algebra", "heis3", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("algebra,")
        monkeypatch.setenv("SUPERSCHUR_FORMAT", "csv")
        code = main(["multiplier", "--algebra", "heis3"])
        out2 = capsys.readouterr().out
        assert code == 0 and out2.splitlines()[0].startswith("algebra,")

    @pytest.mark.parametrize("value", ["xml", "JSON"])
    def test_unknown_format_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SUPERSCHUR_FORMAT", value)
        code = main(["check", "--algebra", "heis3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: SUPERSCHUR_FORMAT={value!r} is not one of human, json, csv\n"
        )

    @pytest.mark.parametrize(
        "argv", [["--format", "json", "check"], ["check", "--format", "json"]]
    )
    def test_format_flag_wins_over_unknown_env(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("SUPERSCHUR_FORMAT", "xml")
        code = main([*argv, "--algebra", "heis3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["command"] == "check"

    def test_non_nilpotent_record_is_skipped_as_such(self, tmp_path, capsys):
        path = tmp_path / "solvable.cat"
        path.write_text("algebra solv2\neven e1 e2\n[e1,e2] = e2\nend\n", encoding="utf-8")
        for command in ("multiplier", "bounds", "verify"):
            code = main([command, str(path)])
            out = capsys.readouterr().out
            assert code == 0
            assert "status = skipped (not nilpotent)" in out, command

    def test_free_with_hilbert(self, capsys):
        code = main(["free", "--even", "2", "--odd", "1", "--class", "3", "--hilbert"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hilbert_ok = True" in out
        assert "(8|7)" in out

    def test_verify_catalog_green(self, capsys):
        code = main(["verify", "--algebra", "heis3", "--algebra", "sh(0|2)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: ok" in out

    def test_verify_free_odd_class_two(self, tmp_path, capsys):
        # the i = 2 witnesses on odd generators are graded Jacobi identities
        f = build_free_nilpotent(GeneratorSpec(0, 2, 2)).algebra
        path = tmp_path / "free02c2.cat"
        path.write_text(render_catalog([relabel_canonical(f, "free02c2")]))
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "witnesses_ok = True" in out

    def test_verify_free_mixed_class_three(self, tmp_path, capsys):
        # at parities (0, 1, 0, 1) the i = 3 identity has a brace term with
        # coefficient 2; the witness tensors carry it folded in
        f = build_free_nilpotent(GeneratorSpec(1, 2, 3)).algebra
        path = tmp_path / "free12c3.cat"
        path.write_text(render_catalog([relabel_canonical(f, "free12c3")]))
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "witnesses_ok = True" in out

    def test_verify_reports_witness_tensor_count(self, capsys):
        import json

        code = main(["--format", "json", "verify", "--algebra", "heis3"])
        rec = json.loads(capsys.readouterr().out)["results"][0]
        assert code == 0
        assert "witness_tensors_checked" in rec
        assert "witness_tensores_checked" not in rec

    def test_check_builtin(self, capsys):
        code = main(["check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid = True" in out

    def test_usage_error_is_exit_one(self, capsys):
        assert main(["free", "--even", "2"]) == 1

    @pytest.mark.parametrize(
        "even, odd, message",
        [
            ("-1", "2", "error: generator counts must be nonnegative\n"),
            ("2", "-1", "error: generator counts must be nonnegative\n"),
            ("0", "0", "error: need at least one generator\n"),
        ],
    )
    def test_bad_generator_counts_are_usage_errors(self, capsys, even, odd, message):
        code = main(["free", "--even", even, "--odd", odd, "--class", "2"])
        assert code == 1
        assert capsys.readouterr().err == message

    def test_json_format_on_bounds(self, capsys):
        import json

        code = main(["--format", "json", "bounds", "--algebra", "heis3"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["tight"] is True

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_bound_violation_is_reported_and_exits_2(self, capsys, monkeypatch, fmt):
        import superschur.bounds

        # heis3's multiplier is (2|0) and its main bound 2
        monkeypatch.setattr(
            superschur.bounds, "schur_multiplier_hopf", lambda L: SuperDim(9, 0)
        )
        code = main(["--format", fmt, "bounds", "--algebra", "heis3"])
        out = capsys.readouterr().out
        assert code == 2
        if fmt == "json":
            payload = json.loads(out)
            (rec,) = payload["results"]
            assert rec["status"] == "BOUND VIOLATED" and rec["multiplier"] == "(9|0)"
            assert payload["ok"] is False
        else:
            assert "  status = BOUND VIOLATED\n" in out and "  multiplier = (9|0)\n" in out
            assert out.endswith("status: FAILED\n")

    def test_method_disagreement_prints_both_and_exits_2(self, capsys, monkeypatch):
        from superschur import cli as cli_mod

        monkeypatch.setattr(
            cli_mod,
            "schur_multiplier_cohomology",
            lambda L: SuperDim(9, 9),
        )
        code = main(["multiplier", "--algebra", "heis3", "--method", "both"])
        out = capsys.readouterr().out
        assert code == 2
        assert "(2|0)" in out and "(9|9)" in out
        assert "methods_agree = False" in out

    def test_report_numbers_match_module_calls(self, capsys):
        import json

        from superschur.catalog import heisenberg3
        from superschur.multiplier import schur_multiplier_hopf

        code = main(["--format", "json", "multiplier", "--algebra", "heis3",
                     "--method", "hopf"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        direct = schur_multiplier_hopf(heisenberg3())
        assert out["results"][0]["multiplier_hopf"] == str(direct)
