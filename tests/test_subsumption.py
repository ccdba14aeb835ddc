"""Tests for the syntactic subsumption pre-pass (`repro.analysis.subsumption`).

The contract is *soundness*: ``subsumes(sigma, tau)`` returning True must
guarantee ``sigma |= tau``.  The differential tests enforce it two ways --
every True answer is confirmed by the full IMPLIES procedure, and IMPLIES
with the pre-pass enabled (the default) returns verdicts identical to the
pre-pass-free run across the corpus.
"""

import pytest

from repro import perf
from repro.analysis.subsumption import alpha_equivalent, subsumes, trivially_implied
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.logic.parser import parse_nested_tgd, parse_so_tgd, parse_tgd


INTRO = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
INTRO_RENAMED = parse_nested_tgd(
    "S(u1,u2) -> exists w . (R(w,u2) & (S(u1,u3) -> R(w,u3)))"
)
SIGMA_STAR = parse_nested_tgd(
    "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) & (S3(x1,x3) -> R3(y1,x3) "
    "& (S4(x3,x4) -> exists y2 . R4(y2,x4))))"
)


class TestAlphaEquivalence:
    def test_renamed_nested_copies(self):
        assert alpha_equivalent(INTRO, INTRO_RENAMED)

    def test_renamed_flat_copies(self):
        left = parse_tgd("S(x,y) -> exists z . R(x,z)")
        right = parse_tgd("S(a,b) -> exists c . R(a,c)")
        assert alpha_equivalent(left, right)

    def test_different_structure_is_not_equivalent(self):
        other = parse_nested_tgd("S(x1,x2) -> exists y . R(y,x2)")
        assert not alpha_equivalent(INTRO, other)

    def test_flat_vs_nested_same_root_shape(self):
        flat = parse_tgd("S(x,y) -> R(x,y)")
        nested = parse_nested_tgd("S(x,y) -> R(x,y)")
        assert alpha_equivalent(flat, nested)

    def test_argument_order_matters(self):
        left = parse_tgd("S(x,y) -> R(x,y)")
        right = parse_tgd("S(x,y) -> R(y,x)")
        assert not alpha_equivalent(left, right)

    def test_same_schema_tgds_supported(self):
        # NestedTgd validation rejects shared source/target relations, so the
        # canonicalization must not route s-t tgds through it.
        left = parse_tgd("E(x,y) -> exists z . E(y,z)")
        right = parse_tgd("E(u,v) -> exists w . E(v,w)")
        assert alpha_equivalent(left, right)


class TestFlatSubsumption:
    def test_drop_head_atom_is_weakening(self):
        sigma = parse_tgd("S(x,y) -> R(x,y) & T(y)")
        tau = parse_tgd("S(x,y) -> T(y)")
        assert subsumes(sigma, tau)

    def test_existential_weakening(self):
        sigma = parse_tgd("S(x,y) -> R(x,y)")
        tau = parse_tgd("S(x,y) -> exists z . R(x,z)")
        assert subsumes(sigma, tau)
        assert not subsumes(tau, sigma)  # existential does not give a concrete value

    def test_extra_body_atom_is_weakening(self):
        sigma = parse_tgd("S(x,y) -> R(x,y)")
        tau = parse_tgd("S(x,y) & T(y) -> R(x,y)")
        assert subsumes(sigma, tau)
        assert not subsumes(tau, sigma)

    def test_body_specialization_is_weakening(self):
        sigma = parse_tgd("S(x,y) -> R(x)")
        tau = parse_tgd("S(x,x) -> R(x)")
        assert subsumes(sigma, tau)
        assert not subsumes(tau, sigma)

    def test_different_relations_do_not_subsume(self):
        assert not subsumes(parse_tgd("S(x) -> R(x)"), parse_tgd("S(x) -> T(x)"))

    def test_nested_flat_projection(self):
        # The part-2 projection of INTRO is S(x1,x2) & S(x1,x3) -> E y . R(y,x3).
        tau = parse_tgd("S(x1,x2) & S(x1,x3) -> exists y . R(y,x3)")
        assert subsumes(INTRO, tau)

    def test_nested_rhs_requires_alpha(self):
        # A non-flat right-hand side is only recognized up to renaming.
        assert subsumes(SIGMA_STAR, SIGMA_STAR)
        weaker = parse_nested_tgd(
            "S1(x1) & S0(x0) -> exists y1 . ((S2(x2) -> R2(y1,x2)) "
            "& (S3(x1,x3) -> R3(y1,x3) & (S4(x3,x4) -> exists y2 . R4(y2,x4))))"
        )
        assert not subsumes(SIGMA_STAR, weaker)

    def test_non_tgds_return_false(self):
        so = parse_so_tgd("S(x,y) -> R(f(x), f(y))")
        assert not subsumes(so, parse_tgd("S(x,y) -> exists z . R(z,z)"))
        assert not subsumes(parse_tgd("S(x) -> R(x)"), so)

    def test_trivially_implied_scans_the_set(self):
        sigma_set = [parse_tgd("T(x) -> U(x)"), INTRO]
        assert trivially_implied(sigma_set, INTRO_RENAMED)
        assert not trivially_implied([parse_tgd("T(x) -> U(x)")], INTRO_RENAMED)


# A corpus of (sigma_set, tau) queries covering holds/fails, flat/nested.
CORPUS = [
    ([parse_tgd("S2(x2) -> exists z . R(x2, z)")],
     parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")),
    ([parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")],
     parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")),
    ([parse_tgd("S(x,y) -> exists z . R(x,z)")],
     parse_nested_tgd("S(x,y) -> R(x,y)")),
    ([INTRO], INTRO_RENAMED),
    ([INTRO], parse_tgd("S(x1,x2) & S(x1,x3) -> exists y . R(y,x3)")),
    ([parse_tgd("S(x,y) -> R(x,y) & T(y)")], parse_tgd("S(x,y) -> T(y)")),
    ([parse_tgd("S(x,y) -> R(x,y)")], parse_tgd("S(x,y) & T(y) -> R(x,y)")),
    ([parse_tgd("S(x,y) -> R(y,x)")], parse_tgd("S(x,y) -> R(x,y)")),
]


class TestDifferential:
    @pytest.mark.parametrize("sigma_set,tau", CORPUS)
    def test_prepass_preserves_verdicts(self, sigma_set, tau):
        clear_chase_cache()
        with_prepass = implies_tgd(sigma_set, tau, (), 200_000)
        clear_chase_cache()
        without = implies_tgd(sigma_set, tau, (), 200_000, subsumption=False)
        assert with_prepass.holds == without.holds
        assert with_prepass.k == without.k

    @pytest.mark.parametrize("sigma_set,tau", CORPUS)
    def test_subsumption_is_sound(self, sigma_set, tau):
        if trivially_implied(sigma_set, tau):
            clear_chase_cache()
            assert implies_tgd(sigma_set, tau, (), 200_000, subsumption=False).holds

    def test_skips_are_counted(self):
        clear_chase_cache()
        with perf.measuring() as stats:
            result = implies_tgd([INTRO], INTRO_RENAMED)
        assert result.holds
        assert result.patterns_checked == 0
        assert stats.get("implies.subsumption_checks") == 1
        assert stats.get("implies.subsumption_skips") == 1

    def test_miss_falls_through_to_the_sweep(self):
        clear_chase_cache()
        with perf.measuring() as stats:
            result = implies_tgd(
                [parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")],
                parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))"),
            )
        assert result.holds
        assert result.patterns_checked > 0
        assert stats.get("implies.subsumption_checks") == 1
        assert stats.get("implies.subsumption_skips") == 0

    def test_nonelementary_query_answered_by_prepass(self):
        renamed = parse_nested_tgd(
            "S1(u1) -> exists w1 . ((S2(u2) -> R2(w1,u2)) & (S3(u1,u3) -> "
            "R3(w1,u3) & (S4(u3,u4) -> exists w2 . R4(w2,u4))))"
        )
        result = implies_tgd([SIGMA_STAR], renamed, (), 200_000)
        assert result.holds
        assert result.patterns_checked == 0
