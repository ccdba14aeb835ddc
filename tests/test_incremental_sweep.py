"""Tests for the DAG-incremental IMPLIES sweep.

The incremental sweep must be *observationally identical* to the from-scratch
sweep: same verdict, same number of patterns checked, same failing pattern --
and when it refutes, its counterexample must be a genuine semantic witness
(``chase(I, sigma)`` does not map into ``chase(I, Sigma)``), even though the
incremental construction names its fresh constants in attachment order rather
than canonical DFS order (the instances are isomorphic, not equal).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, HealthCheck
import hypothesis.strategies as st

from repro import perf
from repro.core import implication
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.core.patterns import Pattern, count_k_patterns, enumerate_k_patterns
from repro.engine.chase import chase
from repro.engine.homomorphism import find_homomorphism, is_homomorphism
from repro.errors import DependencyError, ResourceLimitExceeded
from repro.logic.instances import Instance
from repro.logic.parser import parse_nested_tgd, parse_tgd

from tests.strategies import nested_tgds

TAU = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
TAU_PRIME = parse_tgd("S2(x2) -> exists z . R(x2, z)")
TAU_DPRIME = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")


# ----------------------------------------------------------- differential


def _assert_same_result(lhs, rhs, **kwargs):
    clear_chase_cache()
    fresh = implies_tgd(lhs, rhs, incremental=False, **kwargs)
    clear_chase_cache()
    incremental = implies_tgd(lhs, rhs, incremental=True, **kwargs)
    assert incremental.holds == fresh.holds
    assert incremental.k == fresh.k
    assert incremental.patterns_checked == fresh.patterns_checked
    assert incremental.failing_pattern == fresh.failing_pattern
    if not incremental.holds:
        # the incremental counterexample names constants in attachment order,
        # so compare up to isomorphism and check it is a semantic witness
        assert incremental.counterexample_source.isomorphic(
            fresh.counterexample_source, rename_constants=True
        )
        witness = incremental.counterexample_source
        assert find_homomorphism(chase(witness, [rhs]), chase(witness, lhs)) is None
    return incremental


def test_ex310_differential_refuted():
    result = _assert_same_result([TAU_PRIME], TAU)
    assert not result.holds


def test_ex310_differential_implied():
    result = _assert_same_result([TAU_DPRIME], TAU)
    assert result.holds


def test_differential_wider_nesting():
    rhs = parse_nested_tgd(
        "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1, x2)) "
        "& (S3(x3) -> exists y2 . R3(y2, x3)))"
    )
    lhs = [
        parse_nested_tgd("S1(x1) -> exists y1 . (S2(x2) -> R2(y1, x2))"),
        parse_nested_tgd("S3(x3) -> exists y2 . R3(y2, x3)"),
    ]
    result = _assert_same_result(lhs, rhs, max_patterns=50_000, subsumption=False)
    assert result.patterns_checked > 3  # the sweep reached the two-child level


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(st.lists(nested_tgds(max_depth=2), min_size=1, max_size=2),
       nested_tgds(max_depth=2))
def test_differential_random_nested_tgds(lhs, rhs):
    try:
        _assert_same_result(lhs, rhs, max_patterns=2_000, subsumption=False)
    except ResourceLimitExceeded:
        pass  # both sweeps respect max_patterns; the bound itself is tested below


# ------------------------------------------------- parent -> child invariants


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(st.lists(nested_tgds(max_depth=2), min_size=1, max_size=2),
       nested_tgds(max_depth=2))
def test_sweep_states_inherit_from_their_parent(lhs, rhs):
    """Every child pattern contains its parent's canonical instances and
    chase under identical names, and carries a genuine witness -- or, on
    the failing pattern, no homomorphism exists at all."""
    lhs = implication._normalize_lhs(lhs)
    rhs = implication._normalize_rhs(rhs)
    k = implication.implication_bound(lhs, rhs)
    if count_k_patterns(rhs, k) > 2_000:
        return
    clear_chase_cache()
    states = {}
    fingerprint = implication._sigma_fingerprint(lhs)
    for entry, state in implication._sweep_states(lhs, rhs, fingerprint, k):
        states[entry.index] = state
        parent = states.get(entry.parent)
        target = Instance(state.targets)
        if parent is not None:
            assert parent.source_facts <= state.source_facts
            assert set(parent.targets) <= target.facts
            assert parent.chased.facts <= state.chased.facts
        if state.witness is None:
            assert find_homomorphism(target, state.chased) is None
        else:
            assert is_homomorphism(state.witness, target, state.chased)


def test_witness_falls_back_to_a_full_search():
    """The parent witness y -> f_z(a1) does not extend to pattern 2, whose
    Q fact needs y -> f_w(a1, a2); the full search finds that, and pattern 3
    (two S2 children) refutes, exactly as the from-scratch sweep does."""
    lhs = [
        parse_tgd("S1(x1) -> exists z . P(z)"),
        parse_tgd("S1(x1) & S2(x2) -> exists w . (P(w) & Q(w, x2))"),
    ]
    rhs = parse_nested_tgd("S1(x1) -> exists y . (P(y) & (S2(x2) -> Q(y, x2)))")
    with perf.measuring() as stats:
        result = _assert_same_result(lhs, rhs)
    assert not result.holds
    assert result.patterns_checked == 3
    assert result.failing_pattern == Pattern(1, (Pattern(2), Pattern(2)))
    assert stats.get("implies.witness_fallbacks") > 0


# -------------------------------------------------------- generation DAG


def _leaf_deletions(pattern):
    """Every ``(smaller, part)``: *pattern* with one *part* leaf deleted."""
    for index, child in enumerate(pattern.children):
        rest = pattern.children[:index] + pattern.children[index + 1:]
        if not child.children:
            yield Pattern(pattern.part_id, rest), child.part_id
        else:
            for smaller, part in _leaf_deletions(child):
                yield Pattern(pattern.part_id, rest + (smaller,)), part


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(nested_tgds(max_depth=2), st.integers(1, 3))
def test_levels_enumerate_k_patterns_from_smallest_parents(rhs, k):
    """The levels, concatenated, are ``enumerate_k_patterns`` in order, and
    each entry's parent is the smallest-key k-pattern one leaf deletion away."""
    if count_k_patterns(rhs, k) > 2_000:
        return
    entries = [entry for level in implication._iter_pattern_levels(rhs, k)
               for entry, __, __ in level]
    expected = enumerate_k_patterns(rhs, k)
    assert [entry.key for entry in entries] == [p.sort_key() for p in expected]
    assert [entry.index for entry in entries] == list(range(len(entries)))
    for entry, pattern in zip(entries[1:], expected[1:]):
        deletions = {(p, part) for p, part in _leaf_deletions(pattern) if p.is_k_pattern(k)}
        parent = min((p for p, __ in deletions), key=Pattern.sort_key)
        assert entries[entry.parent].key == parent.sort_key()
        assert (parent, entry.part) in deletions


# ----------------------------------------------------------- perf counters


def test_incremental_hits_counted_on_ex310():
    clear_chase_cache()
    perf.reset()
    result = implies_tgd([TAU_DPRIME], TAU, subsumption=False)
    assert result.holds
    snap = perf.snapshot()
    # every non-root pattern extends its parent's chase state incrementally
    assert snap.get("implies.sweep.incremental_hits", 0) > 0
    assert snap["implies.sweep.incremental_hits"] == result.patterns_checked - 1
    # ... and every non-root pattern extends its parent's witness
    assert snap.get("implies.witness_reuse", 0) == result.patterns_checked - 1
    assert snap.get("implies.witness_fallbacks", 0) == 0


def test_deep_query_counters_are_pinned():
    """The deep query of the request benchmark: siblings produced from one
    parent share its fresh-constant numbering, so most children's canonical
    sources hit the chase cache, and every child extends its parent's
    witness."""
    lhs = [parse_tgd("S1(x1) & S2(x2) -> R2(x1,x2)"),
           parse_tgd("S1(x1) & S2(x2) & S3(x3) -> R3(x1,x3)")]
    rhs = parse_nested_tgd(
        "S1(x1) -> exists y . (S2(x2) -> R2(y,x2) & (S3(x3) -> R3(y,x3)))"
    )
    clear_chase_cache()
    with perf.measuring() as stats:
        result = implies_tgd(lhs, rhs)
    assert (result.holds, result.patterns_checked) == (True, 3125)
    assert stats.get("implies.cache_hits") == 2784
    assert stats.get("implies.cache_misses") == 341
    assert stats.get("implies.sweep.incremental_hits") == 340
    assert stats.get("implies.witness_reuse") == 3124


def test_warm_sweep_hits_cache_for_every_pattern():
    clear_chase_cache()
    implies_tgd([TAU_DPRIME], TAU, subsumption=False)
    perf.reset()
    warm = implies_tgd([TAU_DPRIME], TAU, subsumption=False)
    snap = perf.snapshot()
    assert snap.get("implies.cache_hits", 0) == warm.patterns_checked
    assert snap.get("implies.cache_misses", 0) == 0
    assert snap.get("implies.sweep.incremental_hits", 0) == 0


# ------------------------------------------------------------ resource caps


def test_max_patterns_preflight_raises_before_sweeping():
    rhs = parse_nested_tgd(
        "S1(x1) -> exists y . ((S2(x2) -> R(x2, y)) & (S3(x3) -> R(x3, y)))"
    )
    count = count_k_patterns(rhs, 3)
    with pytest.raises(ResourceLimitExceeded):
        implies_tgd([TAU_DPRIME], rhs, max_patterns=count - 1, subsumption=False)
    # and the exact count passes
    implies_tgd([TAU_DPRIME], rhs, max_patterns=count, subsumption=False)


def test_count_k_patterns_saturates_instead_of_bigint():
    from repro.analysis.cost import SATURATION_CAP

    depth4 = parse_nested_tgd(
        "S1(x1) -> (S1(x2) -> (S1(x3) -> (S1(x4) -> P(x4))))"
    )
    count = count_k_patterns(depth4, 9)
    # the exact value is a tower (10^(10^11)); the saturating count clamps
    assert count == SATURATION_CAP
    assert count.bit_length() < 64


def test_incremental_with_source_egds_is_rejected():
    from repro.logic.parser import parse_egd

    egd = parse_egd("S2(x, y) & S2(x, z) -> y = z")
    with pytest.raises(DependencyError):
        implies_tgd([TAU_PRIME], TAU, source_egds=[egd], incremental=True)
    # the default routes egd runs through the from-scratch sweep
    result = implies_tgd([TAU_PRIME], TAU, source_egds=[egd])
    assert result.patterns_checked > 0


# --------------------------------------------------- chase-cache capacity


def test_budget_presize_is_restored_after_sweep():
    clear_chase_cache()
    before = implication._CHASE_CACHE_LIMIT
    implies_tgd([TAU_DPRIME], TAU, subsumption=False, budget=10_000_000)
    assert implication._CHASE_CACHE_LIMIT == before
    assert len(implication._CHASE_CACHE) <= before


def test_clear_chase_cache_resets_presized_capacity():
    clear_chase_cache()
    implication._presize_chase_cache(4096)
    assert implication._CHASE_CACHE_LIMIT > implication._CHASE_CACHE_LIMIT_DEFAULT
    clear_chase_cache()
    assert implication._CHASE_CACHE_LIMIT == implication._CHASE_CACHE_LIMIT_DEFAULT
    assert len(implication._CHASE_CACHE) == 0
