"""Tests for the dependency/instance parser and its error reporting."""

import os
import subprocess
import sys

import pytest

from repro.engine.chase import chase
from repro.errors import ParseError
from repro.logic.parser import (
    MAX_NESTING_DEPTH,
    parse_atom,
    parse_egd,
    parse_instance,
    parse_nested_tgd,
    parse_so_tgd,
    parse_tgd,
)
from repro.logic.values import Constant, Null, Variable


class TestAtoms:
    def test_simple_atom(self):
        atom = parse_atom("S(x, y)")
        assert atom.relation == "S"
        assert atom.args == (Variable("x"), Variable("y"))

    def test_nullary_atom(self):
        assert parse_atom("Marker()").args == ()

    def test_lowercase_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("s(x)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("S(x) extra")


class TestTgds:
    def test_explicit_exists(self):
        tgd = parse_tgd("S(x) -> exists z . R(x, z)")
        assert tgd.existential_variables == (Variable("z"),)

    def test_implicit_exists(self):
        tgd = parse_tgd("S(x) -> R(x, z)")
        assert tgd.existential_variables == (Variable("z"),)

    def test_forall_prefix_accepted(self):
        tgd = parse_tgd("forall x, y . S(x,y) -> R(x)")
        assert tgd.universal_variables == (Variable("x"), Variable("y"))

    def test_missing_arrow_rejected(self):
        with pytest.raises(ParseError):
            parse_tgd("S(x) R(x)")


class TestNestedTgds:
    def test_single_nested_part(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x2) -> R(x1, x2))")
        assert tgd.part_count == 2

    def test_universal_variables_assigned_to_innermost_binding_part(self):
        tgd = parse_nested_tgd("S1(x1) -> (S2(x1, x2) -> R(x2))")
        # x1 is bound at the root; the child part binds only x2
        assert tgd.part(1).universal_vars == (Variable("x1"),)
        assert tgd.part(2).universal_vars == (Variable("x2"),)

    def test_grouping_parens_without_arrow(self):
        tgd = parse_nested_tgd("S(x) -> (R(x) & T(x))")
        assert tgd.part_count == 1
        assert len(tgd.part(1).head) == 2

    def test_mixed_atoms_and_nested_parts(self, sigma_star):
        assert sigma_star.part(3).head[0].relation == "R3"
        assert sigma_star.children_of(3) == (4,)

    def test_inferred_existential_in_nested_part(self):
        tgd = parse_nested_tgd("S(x) -> (T(z) -> R(z, w))")
        assert tgd.part(2).exist_vars == (Variable("w"),)

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_nested_tgd("S(x) -> (T(y) -> R(x, y)")


def _nested_chain(depth: int) -> str:
    """A nested tgd whose parts form one chain *depth* levels deep."""
    text = ""
    for level in reversed(range(depth)):
        body = "S0(x0)" if level == 0 else f"S{level}(x{level - 1},x{level})"
        text = f"{body} -> R{level}(x{level})" + (f" & ({text})" if text else "")
    return text


class TestNestingDepth:
    """Deep nesting parses up to a fixed depth and is a ParseError beyond it."""

    def test_deepest_accepted_nesting_parses_and_chases(self):
        assert MAX_NESTING_DEPTH == 329
        tgd = parse_nested_tgd(_nested_chain(329))
        assert tgd.depth() == 329
        out = chase(parse_instance("S0(a), S1(a,b)"), [tgd])
        assert out == parse_instance("R0(a), R1(b)")

    @pytest.mark.parametrize("depth", [400, 1000])
    def test_deeper_nesting_is_a_parse_error(self, depth):
        with pytest.raises(ParseError, match="nesting depth 330"):
            parse_nested_tgd(_nested_chain(depth))

    def test_grouping_parentheses_do_not_count(self):
        tgd = parse_nested_tgd("S(x) -> " + "(" * 1000 + "R(x)" + ")" * 1000)
        assert tgd.depth() == 1

    def test_deepest_accepted_nesting_prints_and_round_trips(self):
        tgd = parse_nested_tgd(_nested_chain(MAX_NESTING_DEPTH))
        assert parse_nested_tgd(str(tgd)) == tgd

    def test_deepest_accepted_nesting_lints(self, capsys):
        from repro.cli import main

        assert main(["lint", "--dep", _nested_chain(MAX_NESTING_DEPTH)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_deepest_accepted_nesting_glav_hits_the_pattern_limit(self, capsys):
        # Its 1-patterns are a tower of exponentials in the depth, so the
        # documented ResourceLimitExceeded (exit 2) is the answer.
        from repro.cli import main

        assert main(["glav", "--dep", _nested_chain(MAX_NESTING_DEPTH)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: resource limit exceeded: more than"
        )

    def test_cli_reports_the_depth_without_a_traceback(self, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text(_nested_chain(400))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "implies",
             "--lhs", path.read_text(), "--rhs", "S0(x) -> R0(x)"],
            capture_output=True, text=True, cwd=root,
            env=dict(os.environ, PYTHONPATH="src"),
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: nested tgd nesting depth 330")
        assert "Traceback" not in result.stderr


class TestSOTgds:
    def test_multi_clause(self):
        so = parse_so_tgd("S(x) -> R(f(x)) ; T(y) -> R(g(y))")
        assert len(so.clauses) == 2

    def test_equalities_parsed(self):
        so = parse_so_tgd("Emp(e) & e = f(e) -> SelfMgr(e)")
        assert len(so.clauses[0].equalities) == 1

    def test_nested_terms_parsed(self):
        so = parse_so_tgd("S(x) -> R(f(g(x)))")
        assert not so.is_plain()

    def test_binary_function(self):
        so = parse_so_tgd("S(x,y) -> R(f(x, y))")
        assert so.function_arity("f") == 2


class TestEgdsAndInstances:
    def test_egd(self):
        egd = parse_egd("S(x,y) & S(x,z) -> y = z")
        assert egd.left == Variable("y")

    def test_instance_constants_and_nulls(self):
        inst = parse_instance("R(a, _n1), S(b, c)")
        assert Constant("a") in inst.constants()
        assert Null("n1") in inst.nulls()

    def test_empty_instance(self):
        assert len(parse_instance("")) == 0

    def test_instance_bad_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("s(a)")


class TestErrorPositions:
    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_atom("S(x,")
        assert info.value.position is not None

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_atom("S(x%)")


class TestErrorLocations:
    """Parse errors carry line, column, and the offending token."""

    def test_atom_reports_offending_token(self):
        with pytest.raises(ParseError) as info:
            parse_atom("S(x y)")
        error = info.value
        assert (error.line, error.column, error.position) == (1, 5, 4)
        assert error.token == "y"
        assert "line 1, column 5" in str(error)

    def test_nested_tgd_truncated_input(self):
        with pytest.raises(ParseError) as info:
            parse_nested_tgd("S(x,y) -> exists z .")
        error = info.value
        assert "unexpected end of input" in str(error)
        assert error.token is None
        assert error.position == len("S(x,y) -> exists z .")

    def test_nested_tgd_bad_character_token(self):
        with pytest.raises(ParseError) as info:
            parse_nested_tgd("S(x,y) -> R(x % y)")
        error = info.value
        assert error.token == "%"
        assert error.column == 15

    def test_nested_tgd_bad_existential_name(self):
        with pytest.raises(ParseError) as info:
            parse_nested_tgd("S(x,y) -> exists 3 . R(x,z)")
        assert info.value.token == "3"

    def test_nested_tgd_unclosed_parenthesis(self):
        text = "S(x1) -> exists y . (R(y,x1) & (S(x2) -> R(y,x2))"
        with pytest.raises(ParseError) as info:
            parse_nested_tgd(text)
        assert info.value.position == len(text)

    def test_multiline_input_reports_line_and_column(self):
        text = "S(x1,x2) ->\n  exists y .\n  (R(y,x2) & & (S(x1,x3) -> R(y,x3)))"
        with pytest.raises(ParseError) as info:
            parse_nested_tgd(text)
        error = info.value
        assert (error.line, error.column) == (3, 14)
        assert error.token == "&"
        assert "line 3, column 14" in str(error)

    def test_missing_arrow_names_the_token_found(self):
        with pytest.raises(ParseError) as info:
            parse_tgd("S(x,y) R(x,y)")
        error = info.value
        assert error.token == "R"
        assert "expected '->'" in str(error)
