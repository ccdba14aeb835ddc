"""Tests for the SQL compiler: the printed SQL is what the SQL backend runs,
and running it gives exactly the oblivious chase."""

import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.engine.chase import chase, compile_clause_program
from repro.engine.dispatch import SQL_AUTO_THRESHOLD, choose_backend
from repro.engine.sql_backend import (
    MAX_JOIN_TABLES,
    decode_value,
    encode_value,
    sql_compilable,
)
from repro.errors import ChaseError, DependencyError
from repro.export.sql import compile_mapping_to_sql, execute_exchange, schema_ddl
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.parser import parse_instance, parse_nested_tgd, parse_tgd
from repro.logic.tgds import STTgd
from repro.logic.values import Constant, Variable

from tests.strategies import SOURCE_RELATIONS, nested_tgds


def run_printed_sql(deps, source: Instance) -> Instance:
    """Run the printed statements in a fresh SQLite database over *source*."""
    connection = sqlite3.connect(":memory:")
    try:
        for statement in schema_ddl(deps):
            connection.execute(statement)
        tables = {
            name for (name,) in connection.execute("SELECT name FROM sqlite_master")
        }
        for fact in source:
            if f"src_{fact.relation}" in tables:
                placeholders = ", ".join("?" for _ in fact.args)
                connection.execute(
                    f'INSERT INTO "src_{fact.relation}" VALUES ({placeholders})',
                    [encode_value(arg) for arg in fact.args],
                )
        for statement in compile_mapping_to_sql(deps):
            connection.execute(statement)
        return Instance(
            Atom(name[len("tgt_"):], tuple(decode_value(text) for text in row))
            for name in sorted(tables)
            if name.startswith("tgt_")
            for row in connection.execute(f'SELECT * FROM "{name}"')
        )
    finally:
        connection.close()


#: A constant spelled like an untagged Skolem label of ``S(x,y) -> R(x,z)``.
COLLISION_DEPS = [parse_tgd("S(x,y) -> R(x,z)"), parse_tgd("Q(x,y) -> R(x,y)")]
COLLISION_SOURCE = Instance([
    Atom("S", (Constant("a"), Constant("b"))),
    Atom("Q", (Constant("a"), Constant("d0_f_z(1:a,1:b)"))),
])


class TestCompilation:
    def test_copy_tgd(self):
        [statement] = compile_mapping_to_sql([parse_tgd("S(x,y) -> R(y,x)")])
        assert statement == (
            'INSERT INTO "tgt_R" SELECT DISTINCT a0.c1, a0.c0 FROM "src_S" AS a0'
        )

    def test_join_produces_where(self):
        [statement] = compile_mapping_to_sql(
            [parse_tgd("S(x,y) & S(y,z) -> R(x,z)")]
        )
        assert statement == (
            'INSERT INTO "tgt_R" SELECT DISTINCT a0.c0, a1.c1 '
            'FROM "src_S" AS a0, "src_S" AS a1 WHERE a1.c0 = a0.c1'
        )

    def test_skolem_term_concatenation(self):
        [statement] = compile_mapping_to_sql([parse_tgd("S(x,y) -> R(x,z)")])
        assert statement == (
            'INSERT INTO "tgt_R" SELECT DISTINCT a0.c0, '
            "'ft0_z(' || length(a0.c0) || ':' || a0.c0 || ',' || "
            "length(a0.c1) || ':' || a0.c1 || ')' FROM \"src_S\" AS a0"
        )

    def test_nested_tgd_one_statement_per_head_atom(self, sigma_star):
        statements = compile_mapping_to_sql([sigma_star])
        assert len(statements) == 3  # parts 2, 3, 4 each have one head atom

    def test_repeated_variable_in_one_atom(self):
        [statement] = compile_mapping_to_sql([parse_tgd("S(x,x) -> P(x)")])
        assert "WHERE a0.c1 = a0.c0" in statement

    def test_ddl(self):
        assert schema_ddl([parse_tgd("S(x,y) & Q(x) -> R(x,z)")]) == [
            'CREATE TABLE "src_Q" (c0 TEXT)',
            'CREATE TABLE "src_S" (c0 TEXT, c1 TEXT)',
            'CREATE TABLE "tgt_R" (c0 TEXT, c1 TEXT)',
        ]

    def test_injection_resistant_identifiers(self):
        x = Variable("x")
        tgd = STTgd((Atom("S; DROP TABLE x", (x,)),), (Atom("R", (x,)),))
        with pytest.raises(DependencyError):
            schema_ddl([tgd])
        with pytest.raises(DependencyError):
            compile_mapping_to_sql([tgd])

    def test_skolem_label_never_equals_a_constant(self):
        expected = chase(COLLISION_SOURCE, COLLISION_DEPS)
        assert len(expected.facts_of("R")) == 2  # one null, one constant
        assert run_printed_sql(COLLISION_DEPS, COLLISION_SOURCE) == expected


class TestExecution:
    CASES = [
        ([parse_tgd("S(x,y) -> R(y,x)")], "S(a,b), S(b,c)"),
        ([parse_tgd("S(x,y) -> R(x,z) & T(z,y)")], "S(a,b)"),
        ([parse_tgd("S(x,y) & S(y,z) -> R(x,z)")], "S(a,b), S(b,c), S(c,d)"),
        (
            [parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")],
            "S(a,b), S(a,c)",
        ),
        (
            [parse_nested_tgd(
                "Customer(c, n) -> exists y . (Account(y, n) & (Ord(c, i) -> Purchase(y, i)))"
            )],
            "Customer(c1, alice), Ord(c1, book), Ord(c1, pen)",
        ),
    ]

    @pytest.mark.parametrize("deps,source_text", CASES)
    def test_sql_equals_chase(self, deps, source_text):
        source = parse_instance(source_text)
        expected = chase(source, deps)
        assert execute_exchange(source, deps) == expected
        assert run_printed_sql(deps, source) == expected

    def test_shared_nulls_preserved(self):
        """The correlation: both purchases get the SAME generated account key."""
        nested = parse_nested_tgd(
            "Customer(c, n) -> exists y . (Account(y, n) & (Ord(c, i) -> Purchase(y, i)))"
        )
        source = parse_instance("Customer(c1, alice), Ord(c1, book), Ord(c1, pen)")
        result = execute_exchange(source, [nested])
        accounts = {f.args[0] for f in result.facts_of("Account")}
        purchase_keys = {f.args[0] for f in result.facts_of("Purchase")}
        assert accounts == purchase_keys
        assert len(accounts) == 1

    def test_empty_source(self):
        result = execute_exchange(parse_instance(""), [parse_tgd("S(x) -> R(x)")])
        assert len(result) == 0

    def test_quote_in_constant_handled(self):
        source = Instance([Atom("S", (Constant("o'brien"), Constant("b")))])
        deps = [parse_tgd("S(x,y) -> R(x)")]
        assert execute_exchange(source, deps) == chase(source, deps)
        assert run_printed_sql(deps, source) == chase(source, deps)


def _chain_tgd(atoms: int):
    """``S(x0,x1) & ... & S(x{n-1},x{n}) -> R(x0,x{n})``: an *atoms*-wide join."""
    body = " & ".join(f"S(x{i},x{i + 1})" for i in range(atoms))
    return parse_tgd(f"{body} -> R(x0,x{atoms})")


class TestJoinWidthLimit:
    """Bodies wider than SQLite's join limit never reach SQLite."""

    LOOP = parse_instance("S(a,a)")

    def test_wide_body_raises_chase_error_on_sql(self):
        with pytest.raises(ChaseError, match="join limit"):
            execute_exchange(self.LOOP, [_chain_tgd(MAX_JOIN_TABLES + 1)], backend="sql")

    def test_wide_body_is_not_sql_compilable(self):
        clauses = compile_clause_program([_chain_tgd(MAX_JOIN_TABLES + 1)])
        assert not sql_compilable(clauses)
        choice = choose_backend(
            "auto", input_size=SQL_AUTO_THRESHOLD, clauses=clauses, certified=True
        )
        assert choice.backend == "columnar"

    def test_wide_body_answers_on_tuple(self):
        result = execute_exchange(
            self.LOOP, [_chain_tgd(MAX_JOIN_TABLES + 1)], backend="tuple"
        )
        assert result == parse_instance("R(a,a)")

    def test_body_at_the_limit_runs_on_sql(self):
        tgd = _chain_tgd(MAX_JOIN_TABLES)
        assert sql_compilable(compile_clause_program([tgd]))
        assert execute_exchange(self.LOOP, [tgd], backend="sql") == parse_instance("R(a,a)")


class TestPropertySQLvsChase:
    CONSTANTS = [Constant(c) for c in "abc"]

    source_facts = st.builds(
        Atom,
        st.sampled_from([n for n, a in SOURCE_RELATIONS if a == 2]),
        st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS)),
    )
    q_facts = st.builds(
        Atom, st.just("Q"), st.tuples(st.sampled_from(CONSTANTS))
    )
    sources = st.lists(st.one_of(source_facts, q_facts), max_size=5).map(Instance)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tgd=nested_tgds(max_depth=2), source=sources)
    def test_random_mapping_sql_equals_chase(self, tgd, source):
        assert execute_exchange(source, [tgd]) == chase(source, [tgd])

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        deps=st.lists(nested_tgds(max_depth=2), min_size=1, max_size=2),
        source=sources,
    )
    @example(deps=COLLISION_DEPS, source=COLLISION_SOURCE)
    def test_printed_sql_equals_chase(self, deps, source):
        assert run_printed_sql(deps, source) == chase(source, deps)
