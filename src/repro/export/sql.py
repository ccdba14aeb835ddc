"""Compile nested GLAV mappings to SQL and execute them (Clio-style).

Every nested tgd flattens (via Skolemization, Section 2 of the paper) into
clauses ``body_atoms -> head_atom`` whose head arguments are variables or
Skolem terms.  Each clause compiles to one statement::

    INSERT INTO "tgt_T"
    SELECT DISTINCT a0.c1,
           'fd0_f_y(' || length(a0.c0) || ':' || a0.c0 || ',' || ... || ')'
    FROM "src_S" AS a0, "src_S" AS a1
    WHERE a0.c0 = a1.c0

- body atoms become table aliases over ``src_`` tables and heads insert
  into ``tgt_`` tables, so a relation on both sides is read from the source
  state only;
- repeated variables become join/selection predicates;
- every column is TEXT holding the tagged encoding of
  :func:`repro.engine.sql_backend.encode_value` (``c`` constants, ``n``
  nulls, ``f`` Skolem terms with length-prefixed components), so a Skolem
  label never equals a constant and ``f(Constant("a,b"))`` never collides
  with ``f(a, b)``;
- Skolem functions carry the names of
  :func:`repro.engine.chase.compile_clause_program`.

:func:`schema_ddl` and :func:`compile_mapping_to_sql` print the statements
of :func:`repro.engine.sql_backend.exchange_sql` -- the very statements
:func:`execute_exchange` runs on its ``"sql"`` backend -- so loading a source
through ``encode_value``, running them and decoding the ``tgt_`` tables
with ``decode_value`` gives exactly ``chase(I, M)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.logic.instances import Instance
from repro.logic.nested import nested_tgds_from

if TYPE_CHECKING:
    from repro.engine.sql_backend import ExchangeSQL


def _exchange_sql(dependencies) -> "ExchangeSQL":
    from repro.engine.chase import compile_clause_program
    from repro.engine.sql_backend import exchange_sql

    dependencies = list(dependencies)
    nested_tgds_from(dependencies)  # nested GLAV only: SO tgds are rejected
    return exchange_sql(compile_clause_program(dependencies))


def schema_ddl(dependencies) -> list[str]:
    """The CREATE TABLE statements the SQL backend runs for a nested GLAV mapping.

    One ``src_`` table per body relation, then one ``tgt_`` table per head
    relation; every column is TEXT holding the tagged value encoding.

        >>> from repro.logic.parser import parse_tgd
        >>> schema_ddl([parse_tgd("S(x,y) -> R(y)")])
        ['CREATE TABLE "src_S" (c0 TEXT, c1 TEXT)', 'CREATE TABLE "tgt_R" (c0 TEXT)']
    """
    return _exchange_sql(dependencies).create_tables


def compile_mapping_to_sql(dependencies) -> list[str]:
    """The ``INSERT ... SELECT`` statements the SQL backend runs for a mapping.

        >>> from repro.logic.parser import parse_tgd
        >>> compile_mapping_to_sql([parse_tgd("S(x,y) -> R(y,x)")])
        ['INSERT INTO "tgt_R" SELECT DISTINCT a0.c1, a0.c0 FROM "src_S" AS a0']
    """
    return _exchange_sql(dependencies).inserts


def execute_exchange(source: Instance, dependencies, *, backend: str = "sql") -> Instance:
    """Execute the data exchange and return the produced target instance.

    The result equals ``chase(source, dependencies)`` **exactly** -- the
    same constants and the same ground-Skolem-term nulls -- whichever
    backend runs it:

    - ``"sql"`` (default): the clause program of
      :func:`repro.engine.chase.compile_clause_program` compiled to SQLite
      ``INSERT ... SELECT`` statements, values crossing the boundary through
      the injective tagged encoding of
      :mod:`repro.engine.sql_backend` and re-interned on the way out;
    - ``"columnar"``: the integer-array engine of
      :mod:`repro.engine.columnar`;
    - ``"tuple"``: the reference :func:`repro.engine.chase.chase`;
    - ``"auto"``: :func:`repro.engine.dispatch.choose_backend` picks by
      source size (single-pass exchanges always terminate, so certification
      is not a concern).
    """
    from repro.engine.chase import chase, compile_clause_program
    from repro.engine.dispatch import choose_backend

    clauses = compile_clause_program(dependencies)
    choice = choose_backend(
        backend, input_size=len(source), clauses=clauses, certified=True
    )
    if choice.backend == "sql":
        from repro.engine.sql_backend import sql_execute_exchange

        return sql_execute_exchange(source, clauses)
    if choice.backend == "columnar":
        from repro.engine.columnar import columnar_execute_exchange

        return columnar_execute_exchange(source, clauses)
    return chase(source, dependencies)


__all__ = [
    "schema_ddl",
    "compile_mapping_to_sql",
    "execute_exchange",
]
