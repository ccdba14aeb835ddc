"""Determinism tests: repeated runs produce identical results.

Reproducibility is a design commitment (DESIGN.md §6): fresh values come from
per-run counters, enumeration orders are canonical, and nothing depends on
set iteration order in a way that changes *results* -- not even across
processes with different ``PYTHONHASHSEED`` values.
"""

import os
import subprocess
import sys

from repro.core.canonical import canonical_instances
from repro.core.fblock_analysis import decide_bounded_fblock_size
from repro.core.implication import implies_tgd
from repro.core.patterns import Pattern, enumerate_k_patterns
from repro.engine.chase import chase
from repro.engine.core_instance import core
from repro.logic.parser import parse_instance, parse_tgd
from repro.workloads import random_instance, successor_instance
from repro.logic.schema import Schema


class TestDeterminism:
    def test_chase_is_deterministic(self, intro_nested):
        source = parse_instance("S(a,b), S(a,c), S(b,c)")
        first = chase(source, [intro_nested])
        second = chase(source, [intro_nested])
        assert first == second

    def test_core_is_deterministic(self, so_tgd_48):
        from repro.workloads import cycle_instance

        chased = chase(cycle_instance(5), so_tgd_48)
        assert core(chased) == core(chased)

    def test_pattern_enumeration_order_stable(self, sigma_star):
        first = enumerate_k_patterns(sigma_star, 2)
        second = enumerate_k_patterns(sigma_star, 2)
        assert first == second

    def test_canonical_instances_identical_across_calls(self, sigma_star):
        pattern = Pattern(1, (Pattern(2), Pattern(3)))
        first = canonical_instances(pattern, sigma_star)
        second = canonical_instances(pattern, sigma_star)
        assert first.source == second.source
        assert first.target == second.target

    def test_implies_diagnostics_stable(self, tau_310, tau_prime_310):
        first = implies_tgd([tau_prime_310], tau_310)
        second = implies_tgd([tau_prime_310], tau_310)
        assert first.failing_pattern == second.failing_pattern
        assert first.counterexample_source == second.counterexample_source

    def test_boundedness_verdict_stable(self, intro_nested):
        first = decide_bounded_fblock_size([intro_nested])
        second = decide_bounded_fblock_size([intro_nested])
        assert first.growth == second.growth
        assert first.witness_pattern == second.witness_pattern

    def test_random_workload_seeded(self):
        schema = Schema([("S", 2)])
        assert random_instance(schema, 30, 6, seed=42) == random_instance(
            schema, 30, 6, seed=42
        )

    def test_sql_export_stable(self):
        from repro.export.sql import compile_mapping_to_sql

        deps = [parse_tgd("S(x,y) & S(y,z) -> R(x,w) & T(w,z)")]
        assert compile_mapping_to_sql(deps) == compile_mapping_to_sql(deps)

    def test_chase_order_independent_of_fact_insertion(self):
        tgd = parse_tgd("S(x,y) -> R(x,z)")
        facts = successor_instance(6).facts
        from repro.logic.instances import Instance

        left = chase(Instance(sorted(facts, key=repr)), [tgd])
        right = chase(Instance(sorted(facts, key=repr, reverse=True)), [tgd])
        assert left == right


#: Chases whose cores are symmetric: each keeps one of several isomorphic
#: candidate folds, so a hash-dependent search order would show up as a
#: different surviving null.
_SYMMETRIC_CORE_SCRIPT = """
from repro.engine.chase import chase
from repro.engine.core_instance import core
from repro.logic.parser import parse_instance, parse_tgd

cases = [
    ("S(a,b), S(a,c), S(a,d)", "S(x,y) -> exists z . R(x,z)"),
    ("S(a,b), S(b,a)", "S(x,y) -> exists z, w . E(z,w) & E(w,z)"),
    ("S(a,b)", "S(x,y) -> exists z1, z2, z3, z4 . E(z1,z2) & E(z2,z1) & "
               "E(z2,z3) & E(z3,z2) & E(z3,z4) & E(z4,z3) & E(z4,z1) & E(z1,z4)"),
]
for source, tgd in cases:
    chased = chase(parse_instance(source), [parse_tgd(tgd)])
    print(sorted(repr(fact) for fact in core(chased)))
"""


def test_core_independent_of_hash_seed():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-c", _SYMMETRIC_CORE_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1
