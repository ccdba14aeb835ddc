"""Differential suite for the id-space core engine and the SQL core pushdown.

Two engines compute cores (``core(backend=...)``): the id-space worklist
(``"columnar"``, also reached as ``"tuple"``) and the SQL pushdown.  Both are
checked against the naive oracle :func:`repro.engine.naive.core_naive`.  The
fold tie-breaks differ between engines (each may keep a different set of
representative facts), so the correctness bar is: **verdicts agree exactly**
(``is_core`` against the oracle's core size) and **cores agree up to
isomorphism** (the core is unique up to isomorphism; sizes agree exactly).
The id-space hom kernel (:func:`~repro.engine.hom_kernel_columnar.
solve_encoded`) has no caller besides the core engine, so its propagation
is checked through ``is_core`` and ``core``.

Also covered here: the persistent fold tier (payloads are surviving
canonical indexes; anything else is a miss), the ``choose_core_backend``
dispatch policy, the SQL core's join-width limit on a 150-spoke star, and
the ``repro core`` CLI.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings

import repro.cache
from repro import perf
from repro.cache import SPACE_FOLD, disk_put, get_store
from repro.engine.chase import chase
from repro.engine.core_instance import clear_fold_cache, core, is_core
from repro.engine.dispatch import CORE_SQL_AUTO_THRESHOLD, choose_core_backend
from repro.engine.homomorphism import find_homomorphism
from repro.engine.naive import core_naive
from repro.engine.sql_backend import MAX_JOIN_TABLES, sql_core_supported
from repro.errors import ChaseError
from repro.logic.parser import parse_instance, parse_nested_tgd
from repro.workloads.families import star_instance

from tests.strategies import instances


BACKENDS = ["tuple", "columnar", "sql"]


class TestHomKernelDifferential:
    """The id-space kernel, driven through ``is_core``, agrees with the oracle."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8))
    def test_same_verdict_and_valid_witness(self, instance):
        verdict = is_core(instance)
        assert verdict == (len(core_naive(instance)) == len(instance))
        if not verdict:
            # The retraction the kernel found folds the instance into a
            # proper subinstance.
            folded = core(instance)
            assert len(folded) < len(instance)
            assert find_homomorphism(instance, folded) is not None

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8, max_nulls=6, max_constants=2,
                              min_facts=1))
    def test_nulls_heavy_draws_agree(self, instance):
        assert is_core(instance) == (len(core_naive(instance)) == len(instance))

    def test_unsat_fails_fast_without_search(self):
        # No fact of the 3-cycle can host R(_x, _x): propagation alone
        # proves _x uneliminable (an AC-3 wipeout), with zero search nodes.
        instance = parse_instance("R(_x,_x), R(a,b), R(b,c), R(c,a)")
        with perf.measuring() as stats:
            assert is_core(instance)
        assert stats.get("hom.columnar.search_nodes") == 0
        assert stats.get("hom.columnar.ac3_wipeouts") >= 1
        clear_fold_cache()
        with perf.measuring() as stats:
            assert core(instance) == instance
        assert stats.get("hom.columnar.search_nodes") == 0
        assert stats.get("hom.columnar.ac3_wipeouts") >= 1


class TestCoreDifferential:
    """Cores agree with the oracle: equal sizes, isomorphic instances."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8))
    def test_three_backends_isomorphic(self, instance):
        clear_fold_cache()
        reference = core_naive(instance)
        for backend in ("columnar", "sql"):
            other = core(instance, backend=backend)
            assert len(other) == len(reference)
            assert other.isomorphic(reference)
            assert is_core(other)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances(max_facts=8, max_nulls=6, max_constants=2))
    def test_nulls_heavy_cores_isomorphic(self, instance):
        clear_fold_cache()
        reference = core_naive(instance)
        for backend in ("columnar", "sql"):
            assert core(instance, backend=backend).isomorphic(reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_canonical_examples(self, backend):
        assert core(parse_instance("R(a,_x), R(a,b)"), backend=backend) == \
            parse_instance("R(a,b)")
        c4 = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), "
            "R(_3,_4), R(_4,_3), R(_4,_1), R(_1,_4)"
        )
        assert len(core(c4, backend=backend)) == 2
        triangle = parse_instance(
            "R(_1,_2), R(_2,_1), R(_2,_3), R(_3,_2), R(_3,_1), R(_1,_3)"
        )
        assert core(triangle, backend=backend) == triangle

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ground_and_empty(self, backend):
        ground = parse_instance("R(a,b), R(b,c)")
        assert core(ground, backend=backend) == ground
        assert core(parse_instance(""), backend=backend) == parse_instance("")

    def test_columnar_counters_flow(self):
        clear_fold_cache()
        with perf.measuring() as stats:
            core(parse_instance("R(a,_x), R(a,b), T(c,_y), T(c,d)"),
                 backend="columnar")
        assert stats.get("core.blocks") == 2
        assert stats.get("core.eliminations") == 2

    def test_sql_counters_flow(self):
        with perf.measuring() as stats:
            core(parse_instance("R(a,_x), R(a,b)"), backend="sql")
        assert stats.get("core.sql.blocks") == 1
        assert stats.get("core.sql.queries") >= 1
        assert stats.get("core.sql.eliminations") == 1


class TestSharedFoldTier:
    """The in-memory fold memo and the persistent fold tier behind it."""

    INSTANCE = "R(a,_x), R(a,_y), R(a,b)"

    def _fold_payloads(self):
        store = get_store()
        return [key for space, key in store.keys() if space == SPACE_FOLD]

    def test_disk_hit_after_clearing_the_memo(self, tmp_path):
        repro.cache.configure(tmp_path)
        instance = parse_instance(self.INSTANCE)
        expected = core(instance)
        assert self._fold_payloads()
        clear_fold_cache()  # drop the in-memory memo; keep the disk tier
        with perf.measuring() as stats:
            result = core(instance)
        assert stats.get("cache.disk.hits") >= 1
        assert result == expected

    @pytest.mark.parametrize("payload", [
        "atoms", (0, 5), (1, 0), (), (True,), "text",
    ])
    def test_unusable_payload_is_a_miss(self, tmp_path, payload):
        repro.cache.configure(tmp_path)
        instance = parse_instance(self.INSTANCE)
        expected = core(instance)
        keys = self._fold_payloads()
        assert keys
        if payload == "atoms":
            # The payload format of an older release: canonical atom tuples.
            payload = tuple(expected.facts)
        for key in keys:
            disk_put(SPACE_FOLD, key, payload)
        clear_fold_cache()
        with perf.measuring() as stats:
            result = core(instance)
        assert stats.get("cache.disk.hits") >= 1  # read, then rejected
        assert stats.get("core.eliminations") >= 1  # folded again
        assert result == expected

    def test_columnar_memo_hits_on_isomorphic_blocks(self):
        clear_fold_cache()
        # Two isomorphic blocks (same canonical form, different nulls)
        # anchored at different constants: the second is answered by the
        # fold memo / iso-duplicate pass without a second hom search.
        instance = parse_instance("R(a,_x), R(a,b), T(c,_y), T(c,_z), T(c,d)")
        with perf.measuring() as stats:
            core(instance, backend="columnar")
        assert stats.get("core.memo_misses") >= 1
        core_again = parse_instance("R(a,_w), R(a,f)")
        with perf.measuring() as stats:
            core(core_again, backend="columnar")
        assert stats.get("core.memo_hits") >= 1


class TestChooseCoreBackend:
    def test_auto_small_is_columnar(self):
        choice = choose_core_backend("auto", input_size=10)
        assert choice.backend == "columnar" and choice.was_auto

    def test_auto_medium_is_columnar(self):
        choice = choose_core_backend(
            "auto", input_size=CORE_SQL_AUTO_THRESHOLD - 1, sql_supported=True)
        assert choice.backend == "columnar"

    def test_auto_large_needs_sql_support(self):
        size = CORE_SQL_AUTO_THRESHOLD
        assert choose_core_backend(
            "auto", input_size=size, sql_supported=True).backend == "sql"
        assert choose_core_backend(
            "auto", input_size=size, sql_supported=False).backend == "columnar"

    def test_explicit_passthrough(self):
        # "tuple" names the one in-memory engine, like "columnar".
        resolved = {"tuple": "columnar", "columnar": "columnar", "sql": "sql"}
        for backend in BACKENDS:
            choice = choose_core_backend(
                backend, input_size=1, sql_supported=True)
            assert choice.backend == resolved[backend] and not choice.was_auto

    def test_explicit_sql_unsupported_raises(self):
        with pytest.raises(ChaseError):
            choose_core_backend("sql", input_size=1, sql_supported=False)

    def test_unknown_backend_raises(self):
        with pytest.raises(ChaseError):
            choose_core_backend("vectorized", input_size=1)


class TestSqlCore:
    def test_supported_on_plain_instances(self):
        assert sql_core_supported(parse_instance("R(a,_x), R(a,b)"))

    def test_block_wider_than_join_limit_raises_chase_error(self):
        spokes = MAX_JOIN_TABLES + 6
        star = parse_instance(", ".join(f"R(_hub, v{i})" for i in range(spokes)))
        with pytest.raises(ChaseError, match="join limit"):
            core(star, backend="sql")
        assert core(star, backend="columnar") == star


@pytest.fixture(scope="module")
def chased_star_150():
    """The chase of a 150-spoke star: 150 blocks of 150 facts (22,500)."""
    tgd = parse_nested_tgd(
        "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
    chased = chase(star_instance(150), [tgd])
    assert len(chased) == 150 * 150
    return chased


class TestStarPastJoinLimit:
    """A 150-spoke star's f-blocks are wider than SQLite's join limit."""

    @pytest.mark.parametrize("backend", ["columnar", "tuple"])
    def test_in_memory_core(self, chased_star_150, backend):
        clear_fold_cache()
        folded = core(chased_star_150, backend=backend)
        assert len(folded) == 150
        assert len(folded.nulls()) == 1

    def test_sql_raises(self, chased_star_150):
        with pytest.raises(ChaseError, match="join limit"):
            core(chased_star_150, backend="sql")

    # ROADMAP item 2: 22,500 facts reach CORE_SQL_AUTO_THRESHOLD, so "auto"
    # picks the SQL core, which refuses the 150-fact blocks.  Deleting the
    # SQL core makes "auto" answer; that change must turn this into a pass.
    @pytest.mark.xfail(strict=True, raises=ChaseError,
                       reason="auto picks the SQL core (ROADMAP item 2)")
    def test_auto(self, chased_star_150):
        clear_fold_cache()
        folded = core(chased_star_150, backend="auto")
        assert len(folded) == 150
        assert len(folded.nulls()) == 1


class TestCoreCli:
    def _run(self, *argv, capsys):
        from repro.cli import main

        code = main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    def test_report_shape(self, capsys):
        code, report = self._run(
            "core", "--instance", "R(a,_x), R(a,b), R(_y,b)", capsys=capsys)
        assert code == 0
        assert report["backend"] == "columnar" and report["requested"] == "auto"
        assert report["input_facts"] == 3 and report["core_facts"] == 1
        assert "reason" in report and "facts" not in report

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_core_size_backend_independent(self, backend, capsys):
        code, report = self._run(
            "core", "--backend", backend, "--facts",
            "--instance", "R(a,_x), R(a,b), T(c,_y), T(c,d)", capsys=capsys)
        assert code == 0
        assert report["backend"] == ("columnar" if backend == "tuple" else backend)
        assert report["blocks"] == 2 and report["eliminations"] == 2
        assert report["core_facts"] == 2 and len(report["facts"]) == 2

    def test_chase_then_core(self, capsys):
        code, report = self._run(
            "core", "--dep", "S(x,y) -> exists z . T(x,z)",
            "--instance", "S(a,b), S(a,c)", "--backend", "columnar",
            capsys=capsys)
        assert code == 0
        assert report["input_facts"] == 2 and report["core_facts"] == 1
