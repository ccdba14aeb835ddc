"""Clio's promise, executed: a nested GLAV mapping compiled to SQL.

The paper's introduction recalls why Clio adopted nested GLAV mappings:
first-order specifications "give rise to transformations that ... can be
implemented using SQL queries".  This example prints the CREATE TABLE and
INSERT ... SELECT statements of the customers-and-orders nested mapping,
runs exactly those statements on an in-memory SQLite database, and checks
that the decoded result is exactly the chase (it exits 1 if not).

Run with:  python examples/sql_exchange.py
"""

import sqlite3
import sys

from repro import chase, parse_instance, parse_nested_tgd
from repro.engine.sql_backend import decode_value, encode_value
from repro.export.sql import compile_mapping_to_sql, schema_ddl
from repro.logic.atoms import Atom
from repro.logic.instances import Instance


def main() -> int:
    nested = parse_nested_tgd(
        "Customer(c, n) -> exists y . "
        "(Account(y, n) & (Ord(c, i) -> Purchase(y, i)))"
    )
    print("mapping:", nested)

    tables = schema_ddl([nested])
    print("\ntables (source relation R is src_R, target relation R is tgt_R):")
    for statement in tables:
        print("  ", statement)

    inserts = compile_mapping_to_sql([nested])
    print("\ncompiled transformation:")
    for statement in inserts:
        print("  ", statement)

    source = parse_instance(
        "Customer(c1, alice), Customer(c2, bob), "
        "Ord(c1, book), Ord(c1, pen), Ord(c2, ink)"
    )
    print("\nsource:", source)

    # Cells hold tagged text: 'c' + name for a constant, 'f<fn>(...)' for a
    # Skolem term; encode_value / decode_value convert both ways.
    database = sqlite3.connect(":memory:")
    for statement in tables:
        database.execute(statement)
    for fact in source:
        placeholders = ", ".join("?" for _ in fact.args)
        database.execute(
            f'INSERT INTO "src_{fact.relation}" VALUES ({placeholders})',
            [encode_value(arg) for arg in fact.args],
        )
    for statement in inserts:
        database.execute(statement)
    result = Instance(
        Atom(relation, tuple(decode_value(text) for text in row))
        for relation in sorted(nested.target_schema().names)
        for row in database.execute(f'SELECT * FROM "tgt_{relation}"')
    )
    database.close()

    print("\nSQLite result (decoded):")
    for fact in sorted(result, key=repr):
        print("  ", fact)

    agrees = result == chase(source, [nested])
    print("\nequals the oblivious chase, null labels included:", agrees)
    print(
        "\nreading: the Skolem term became a string-concatenation expression,"
        "\nso alice's account key is the SAME generated value in her Account"
        "\nrow and in both of her Purchase rows -- the correlation the nested"
        "\nmapping was designed to preserve, now in plain SQL."
    )
    return 0 if agrees else 1


if __name__ == "__main__":
    sys.exit(main())
