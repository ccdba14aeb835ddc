"""SCALE-IMPL -- runtime scaling of the decision procedure IMPLIES.

The cost of IMPLIES is driven by the clone bound ``k = v * w + 1`` (which
fixes how many k-patterns must be checked) and by the chase-plus-homomorphism
work per pattern.  We scale ``w`` (universal variables on the left-hand side)
and the nesting of the right-hand side.

The ``test_cache_*`` benchmarks exercise the per-pattern chase cache on the
Example 3.10 workload (``tau``, ``tau'``, ``tau''``): a cold sweep populates
the cache, repeated sweeps with the same left-hand side re-chase nothing.

Run as a script to record the cache behaviour in ``BENCH_implication.json``::

    PYTHONPATH=src python benchmarks/bench_scaling_implication.py [--json PATH]
"""

import time

import pytest

from repro import perf
from repro.core.implication import clear_chase_cache, implies_tgd
from repro.logic.parser import parse_nested_tgd, parse_tgd


# Example 3.10: tau, tau', tau''
EX310_TAU = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
EX310_TAU_P = parse_tgd("S2(x2) -> exists z . R(x2, z)")
EX310_TAU_PP = parse_tgd("S1(x1) & S2(x2) -> R(x2, x1)")


def cache_workload() -> dict:
    """Run the Example 3.10 IMPLIES checks cold and warm; report timings and
    the cache counters.  The warm pass repeats the same queries, so every
    ``chase(I_p, sigma)`` is a cache hit (``implies.cache_hits > 0``)."""
    queries = [
        ([EX310_TAU_PP], EX310_TAU, True),
        ([EX310_TAU_P], EX310_TAU, False),
    ]

    def sweep() -> int:
        patterns = 0
        for lhs, rhs, expected in queries:
            result = implies_tgd(lhs, rhs)
            assert result.holds == expected
            patterns += result.patterns_checked
        return patterns

    clear_chase_cache()
    with perf.measuring() as stats:
        start = time.perf_counter()
        cold_patterns = sweep()
        cold_s = time.perf_counter() - start
        cold_hits = stats.get("implies.cache_hits")
        start = time.perf_counter()
        sweep()
        warm_s = time.perf_counter() - start
    return {
        "workload": "example-3.10",
        "cold_s": cold_s,
        "warm_s": warm_s,
        "patterns_per_sweep": cold_patterns,
        "cache_hits_cold": cold_hits,
        "cache_hits_warm": stats.get("implies.cache_hits") - cold_hits,
        "cache_misses": stats.get("implies.cache_misses"),
    }


def prepass_workload() -> dict:
    """Measure the syntactic subsumption pre-pass and the static analyzer.

    The workload asks IMPLIES queries that are *trivial* (the right-hand side
    is a renamed copy or weakening of a left-hand-side member) -- including
    the renamed 4-part sigma(*) whose k = 9 sweep would otherwise hit the
    non-elementary wall -- and records how many sweeps the pre-pass skipped,
    plus the runtime of a full `analyze()` over the benchmark dependencies.
    """
    from repro.analysis.static import analyze

    sigma_star = parse_nested_tgd(
        "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) & (S3(x1,x3) -> R3(y1,x3) "
        "& (S4(x3,x4) -> exists y2 . R4(y2,x4))))"
    )
    sigma_star_renamed = parse_nested_tgd(
        "S1(u1) -> exists w1 . ((S2(u2) -> R2(w1,u2)) & (S3(u1,u3) -> R3(w1,u3) "
        "& (S4(u3,u4) -> exists w2 . R4(w2,u4))))"
    )
    intro = parse_nested_tgd("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
    intro_renamed = parse_nested_tgd(
        "S(u1,u2) -> exists w . (R(w,u2) & (S(u1,u3) -> R(w,u3)))"
    )
    queries = [
        ([sigma_star], sigma_star_renamed),   # alpha-equivalent, k = 9
        ([intro], intro_renamed),             # alpha-equivalent, k = 4
        ([intro], parse_tgd("S(x1,x2) & S(x1,x3) -> exists y . R(y,x3)")),  # projection
        ([EX310_TAU_PP], parse_tgd("S1(x1) & S2(x2) -> exists z . R(x2, z)")),  # weakening
    ]
    with perf.measuring() as stats:
        start = time.perf_counter()
        for lhs, rhs in queries:
            result = implies_tgd(lhs, rhs, (), 200_000)
            assert result.holds
            assert result.patterns_checked == 0
        prepass_s = time.perf_counter() - start
        checks = stats.get("implies.subsumption_checks")
        skips = stats.get("implies.subsumption_skips")

    deps = [sigma_star, intro, EX310_TAU, EX310_TAU_P, EX310_TAU_PP]
    start = time.perf_counter()
    report = analyze(deps)
    analyzer_s = time.perf_counter() - start
    return {
        "workload": "trivial-implications",
        "queries": len(queries),
        "prepass_s": prepass_s,
        "subsumption_checks": checks,
        "subsumption_skips": skips,
        "analyzer_runtime_ms": analyzer_s * 1000,
        "analyzer_weakly_acyclic": report.termination.weakly_acyclic,
        "analyzer_findings": len(report.findings),
    }


def wide_lhs(width: int):
    """S1(x1) & ... & Sw(xw) & S2(y) -> R(y, x1): w+1 universal variables."""
    body = " & ".join(f"B{i}(x{i})" for i in range(1, width + 1))
    return parse_tgd(f"{body} & S2(y) -> R(y, x1)")


@pytest.mark.parametrize("width", [1, 2, 3])
def test_scale_implies_by_lhs_width(benchmark, width, tau_310):
    """Growing w grows k and with it the number of patterns checked."""
    lhs = wide_lhs(width)
    result = benchmark(implies_tgd, [lhs], tau_310)
    assert result.k == width + 2
    assert not result.holds  # B-atoms never match tau's canonical sources


@pytest.mark.parametrize("parts", [2, 3])
def test_scale_implies_by_rhs_nesting(benchmark, parts):
    """Deeper right-hand sides multiply the pattern count."""
    if parts == 2:
        rhs = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
    else:
        rhs = parse_nested_tgd(
            "S1(x1) -> exists y . (S2(x2) -> (S3(x3) -> R(x2, x3, y)))"
        )
    lhs = parse_tgd("S1(x1) -> T(x1)")
    result = benchmark(implies_tgd, [lhs], rhs, (), 100_000)
    assert not result.holds  # T does not help with R


def test_scale_implies_self_implication(benchmark, intro_nested):
    """Implication between variable-renamed copies of the introduction's
    nested tgd (k = 4): with the syntactic pre-pass disabled the procedure
    must do the full 5-pattern sweep because the copies are not equal."""
    renamed = parse_nested_tgd(
        "S(u1,u2) -> exists w . (R(w,u2) & (S(u1,u3) -> R(w,u3)))"
    )
    result = benchmark(implies_tgd, [intro_nested], renamed, (), 200_000,
                       subsumption=False)
    assert result.holds
    assert result.k == 4
    assert result.patterns_checked == 5


def test_subsumption_prepass_skips_renamed_copy(benchmark, intro_nested):
    """The same renamed-copy query with the (default) pre-pass enabled is
    answered by alpha-equivalence: zero patterns chased."""
    renamed = parse_nested_tgd(
        "S(u1,u2) -> exists w . (R(w,u2) & (S(u1,u3) -> R(w,u3)))"
    )
    result = benchmark(implies_tgd, [intro_nested], renamed, (), 200_000)
    assert result.holds
    assert result.patterns_checked == 0


def test_scale_implies_syntactic_shortcircuit(benchmark, sigma_star):
    """Literal self-implication is answered without touching the pattern
    machinery (whose k = 9 sweep would be non-elementary)."""
    result = benchmark(implies_tgd, [sigma_star], sigma_star, (), 200_000)
    assert result.holds
    assert result.patterns_checked == 0


def test_cache_hits_on_ex310_workload(benchmark):
    """Acceptance: the chase cache reports hits (> 0) on the Example 3.10
    workload -- the warm sweep re-chases no canonical instance."""
    row = benchmark(cache_workload)
    assert row["cache_hits_warm"] > 0
    assert row["cache_hits_warm"] == row["patterns_per_sweep"]
    assert row["cache_misses"] <= row["patterns_per_sweep"]


def test_scale_implies_nonelementary_wall(sigma_star):
    """Implication between renamed copies of the 4-part sigma (*) has k = 9
    and |P_9| = 10 * 10^10 patterns: the honest non-elementary blow-up of
    Section 3.  The procedure reports the wall instead of running forever."""
    import pytest as _pytest

    from repro.core.patterns import count_k_patterns
    from repro.errors import ResourceLimitExceeded

    renamed = parse_nested_tgd(
        "S1(u1) -> exists w1 . ((S2(u2) -> R2(w1,u2)) & (S3(u1,u3) -> R3(w1,u3) "
        "& (S4(u3,u4) -> exists w2 . R4(w2,u4))))"
    )
    k = renamed.skolem_function_count() * sigma_star.universal_variable_count() + 1
    assert k == 9
    assert count_k_patterns(renamed, k) == 10 * 10 ** 10
    with _pytest.raises(ResourceLimitExceeded):
        implies_tgd([sigma_star], renamed, (), 200_000, subsumption=False)
    # The syntactic pre-pass recognizes the renamed copy and answers the same
    # query without enumerating a single pattern.
    shortcut = implies_tgd([sigma_star], renamed, (), 200_000)
    assert shortcut.holds
    assert shortcut.patterns_checked == 0


def main(argv=None) -> dict:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH",
                        default="BENCH_implication.json",
                        help="where to write the results (default: %(default)s)")
    args = parser.parse_args(argv)

    report = {"benchmark": "scale-implication-cache",
              "cache": cache_workload(),
              "subsumption": prepass_workload()}
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
    row = report["cache"]
    print(f"ex3.10 cold {row['cold_s']:.4f}s  warm {row['warm_s']:.4f}s  "
          f"hits(warm) {row['cache_hits_warm']}  misses {row['cache_misses']}")
    sub = report["subsumption"]
    print(f"pre-pass: {sub['subsumption_skips']}/{sub['queries']} sweeps skipped "
          f"in {sub['prepass_s']:.4f}s  "
          f"(analyzer: {sub['analyzer_runtime_ms']:.1f} ms)")
    print(f"wrote {args.json}")
    assert row["cache_hits_warm"] > 0
    assert sub["subsumption_skips"] == sub["queries"]
    return report


if __name__ == "__main__":
    main()
