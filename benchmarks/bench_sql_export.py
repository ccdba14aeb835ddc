"""SQL -- the Clio claim, measured: chase engine vs compiled SQL on SQLite.

Compares the Python oblivious chase with the generated INSERT ... SELECT
statements executed on an in-memory SQLite database, over the named exchange
scenarios at growing source sizes.  The deliverable is the agreement (the
same facts, null labels included); the timing contrast shows what a real
engine buys.
"""

import pytest

from repro.engine.chase import chase
from repro.export.sql import compile_mapping_to_sql, execute_exchange
from repro.workloads.scenarios import HOSPITAL, SHOP


@pytest.mark.parametrize("size", [10, 30])
def test_sql_exchange_shop(benchmark, size):
    source = SHOP.source(size)
    result = benchmark(execute_exchange, source, [SHOP.nested])
    assert len(result.facts_of("Account")) == size


@pytest.mark.parametrize("size", [10, 30])
def test_chase_exchange_shop(benchmark, size):
    source = SHOP.source(size)
    result = benchmark(chase, source, [SHOP.nested])
    assert len(result.facts_of("Account")) == size


def test_sql_chase_agreement_at_scale(benchmark):
    source = HOSPITAL.source(20)

    def both():
        return (
            execute_exchange(source, [HOSPITAL.nested]),
            chase(source, [HOSPITAL.nested]),
        )

    via_sql, via_chase = benchmark(both)
    assert via_sql == via_chase


def test_compilation_is_cheap(benchmark):
    statements = benchmark(compile_mapping_to_sql, [SHOP.nested, HOSPITAL.nested])
    assert len(statements) == 4  # two head atoms per scenario mapping
