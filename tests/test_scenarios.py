"""Cross-cutting integration tests over the named exchange scenarios.

Every scenario must exhibit the full nested-vs-flat story: strict implication
one way, inexpressibility as GLAV, certain-answer gap on the correlation
query, SQL execution agreement, and well-behaved cores.
"""

import pytest

from repro.core.fblock_analysis import decide_bounded_fblock_size
from repro.core.implication import implies
from repro.engine.chase import chase
from repro.engine.core_instance import core
from repro.engine.model_check import satisfies
from repro.export.sql import execute_exchange
from repro.workloads.scenarios import ALL_SCENARIOS


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
class TestScenarioContract:
    def test_source_generator_scales(self, scenario):
        small = scenario.source(2)
        large = scenario.source(6)
        assert len(large) > len(small) > 0

    def test_nested_strictly_implies_flat(self, scenario):
        assert implies([scenario.nested], scenario.flat)
        assert not implies(scenario.flat, [scenario.nested])

    def test_nested_not_glav_expressible(self, scenario):
        assert not decide_bounded_fblock_size([scenario.nested]).bounded

    def test_chase_is_a_solution(self, scenario):
        source = scenario.source(3)
        solution = chase(source, [scenario.nested])
        assert satisfies(source, solution, scenario.nested)

    def test_core_shrinks_or_keeps(self, scenario):
        source = scenario.source(3)
        solution = chase(source, [scenario.nested])
        assert len(core(solution)) <= len(solution)

    def test_sql_agrees_with_chase(self, scenario):
        source = scenario.source(3)
        via_sql = execute_exchange(source, [scenario.nested])
        assert via_sql == chase(source, [scenario.nested])

    def test_correlation_query_gap(self, scenario):
        """The two-purchases-same-key query is certain only under nesting."""
        from repro.queries import certain_answers, parse_query

        target_relations = sorted(scenario.nested.target_schema().names)
        # the dependent relation is the one written by the inner part
        inner = scenario.nested.part(2).head[0].relation
        query = parse_query(f"q(i1, i2) :- {inner}(y, i1) & {inner}(y, i2)")
        source = scenario.source(4)
        nested_answers = certain_answers(query, source, [scenario.nested])
        flat_answers = certain_answers(query, source, scenario.flat)
        assert flat_answers <= nested_answers
        # at least one patient/customer/student has two items in every scenario
        assert len(nested_answers) > len(flat_answers)
