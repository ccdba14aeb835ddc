"""Tests for nested tgds: structure, validation, navigation, Skolemization.

The running example is the four-part tgd (*) of Section 2 of the paper, for
which the paper states: parent(s2) = parent(s3) = s1, parent(s4) = s3,
anc(s4) = {s1, s3}, child(s1) = {s2, s3}, desc(s1) = {s2, s3, s4}, and the
Skolemized form uses f(x1) and g(x1, x3, x4).
"""

import pytest

from repro.errors import DependencyError
from repro.logic.atoms import Atom
from repro.logic.nested import NestedTgd, Part, nested_tgds_from
from repro.logic.parser import parse_nested_tgd, parse_tgd
from repro.logic.terms import FuncTerm
from repro.logic.values import Variable


class TestPaperStructure:
    def test_part_count_and_depth(self, sigma_star):
        assert sigma_star.part_count == 4
        assert sigma_star.depth() == 3

    def test_parent_relation(self, sigma_star):
        assert sigma_star.parent(1) is None
        assert sigma_star.parent(2) == 1
        assert sigma_star.parent(3) == 1
        assert sigma_star.parent(4) == 3

    def test_ancestors(self, sigma_star):
        assert sigma_star.ancestors(4) == (1, 3)
        assert sigma_star.ancestors(1) == ()

    def test_children(self, sigma_star):
        assert set(sigma_star.children_of(1)) == {2, 3}
        assert sigma_star.children_of(3) == (4,)
        assert sigma_star.children_of(2) == ()

    def test_descendants(self, sigma_star):
        assert set(sigma_star.descendants(1)) == {2, 3, 4}
        assert sigma_star.descendants(4) == ()

    def test_variable_counts(self, sigma_star):
        assert sigma_star.universal_variable_count() == 4
        assert sigma_star.skolem_function_count() == 2

    def test_inherited_variables(self, sigma_star):
        x1, x3 = Variable("x1"), Variable("x3")
        assert sigma_star.inherited_universal_vars(4) == (x1, x3)
        assert sigma_star.inherited_universal_vars(1) == ()


class TestSkolemization:
    def test_skolem_term_scopes_match_paper(self, sigma_star):
        """y1 -> f(x1); y2 -> g(x1, x3, x4), per the paper's Skolemized form."""
        y1, y2 = Variable("y1"), Variable("y2")
        x1, x3, x4 = Variable("x1"), Variable("x3"), Variable("x4")
        assert sigma_star.skolem_term(y1).args == (x1,)
        assert sigma_star.skolem_term(y2).args == (x1, x3, x4)

    def test_skolemized_nested_tgd_is_plain_so_tgd(self, sigma_star):
        so = sigma_star.skolemize()
        assert so.is_plain()
        # one clause per part with a non-empty head (part 1 has no own head)
        assert len(so.clauses) == 3

    def test_skolemize_with_prefix_renames_functions(self, sigma_star):
        so = sigma_star.skolemize(function_prefix="p_")
        assert all(f.startswith("p_") for f in so.functions)

    def test_clause_bodies_accumulate_ancestor_bodies(self, sigma_star):
        so = sigma_star.skolemize()
        relations = [sorted({a.relation for a in c.body}) for c in so.clauses]
        assert ["S1", "S2"] in relations
        assert ["S1", "S3", "S4"] in relations


class TestValidation:
    def test_safety_violated(self):
        # universal variable of the part must occur in the part's own body
        part = Part(
            universal_vars=(Variable("x"),),
            body=(Atom("S", (Variable("y"),)),),
            exist_vars=(),
            head=(Atom("R", (Variable("x"),)),),
        )
        outer = Part(
            universal_vars=(Variable("y"),),
            body=(Atom("T", (Variable("y"),)),),
            exist_vars=(),
            head=(),
            children=(part,),
        )
        with pytest.raises(DependencyError):
            NestedTgd(outer)

    def test_existential_variable_in_body_rejected(self):
        with pytest.raises(DependencyError):
            parse_nested_tgd("S(x) -> exists y . (T(y) -> R(x))")

    def test_shadowing_rejected(self):
        inner = Part(
            universal_vars=(Variable("x"),),
            body=(Atom("S2", (Variable("x"),)),),
            exist_vars=(),
            head=(Atom("R", (Variable("x"),)),),
        )
        outer = Part(
            universal_vars=(Variable("x"),),
            body=(Atom("S1", (Variable("x"),)),),
            exist_vars=(),
            head=(),
            children=(inner,),
        )
        with pytest.raises(DependencyError):
            NestedTgd(outer)

    def test_empty_body_rejected(self):
        part = Part(universal_vars=(), body=(), exist_vars=(), head=())
        with pytest.raises(DependencyError):
            NestedTgd(part)

    def test_out_of_scope_head_variable_rejected(self):
        part = Part(
            universal_vars=(Variable("x"),),
            body=(Atom("S", (Variable("x"),)),),
            exist_vars=(),
            head=(Atom("R", (Variable("w"),)),),
        )
        with pytest.raises(DependencyError):
            NestedTgd(part)

    def test_shared_source_target_relation_rejected(self):
        with pytest.raises(DependencyError):
            parse_nested_tgd("S(x) -> S(x)")


class TestConversions:
    def test_flat_nested_tgd_round_trips(self):
        tgd = parse_tgd("S(x,y) -> R(x,z)")
        assert tgd.to_nested().to_st_tgd() == tgd

    def test_non_flat_cannot_convert(self, intro_nested):
        with pytest.raises(DependencyError):
            intro_nested.to_st_tgd()

    def test_nested_tgds_from_mixed(self, intro_nested):
        tgds = nested_tgds_from([parse_tgd("S(x) -> R(x)"), intro_nested])
        assert all(isinstance(t, NestedTgd) for t in tgds)
        assert tgds[0].is_flat() and not tgds[1].is_flat()

    def test_nested_tgds_from_rejects_so_tgds(self, so_tgd_413):
        with pytest.raises(DependencyError):
            nested_tgds_from([so_tgd_413])


class TestEquality:
    def test_equal_structure_equal_tgd(self):
        left = parse_nested_tgd("S(x) -> (T(y) -> R(x,y))")
        right = parse_nested_tgd("S(x) -> (T(y) -> R(x,y))")
        assert left == right
        assert hash(left) == hash(right)

    def test_different_structure_not_equal(self):
        left = parse_nested_tgd("S(x) -> (T(y) -> R(x,y))")
        right = parse_nested_tgd("S(x) & T(y) -> R(x,y)")
        assert left != right


DEEP = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R2(y,x2) & (S3(x3) -> R3(y,x3)))")


class TestPartBounds:
    """Part identifiers run 1..part_count; anything else is a DependencyError,
    not a negative-index wraparound or a bare KeyError/IndexError."""

    @pytest.mark.parametrize("pid", [0, -1, 4, 99])
    @pytest.mark.parametrize(
        "accessor", ["part", "parent", "children_of", "ancestors", "skolemized_head"]
    )
    def test_out_of_range_part_id_raises(self, accessor, pid):
        with pytest.raises(DependencyError, match="outside 1..3"):
            getattr(DEEP, accessor)(pid)

    def test_in_range_part_ids_still_answer(self):
        assert [DEEP.parent(pid) for pid in DEEP.part_ids()] == [None, 1, 2]
        assert DEEP.children_of(3) == ()
        assert DEEP.ancestors(3) == (1, 2)


class TestSkolemizedHeadMemo:
    def test_matches_unmemoized_computation(self, sigma_star):
        skolem = {var: sigma_star.skolem_term(var)
                  for var in sigma_star.existential_variables()}
        for pid in sigma_star.part_ids():
            expected = tuple(atom.substitute(skolem) for atom in sigma_star.part(pid).head)
            assert sigma_star.skolemized_head(pid) == expected

    def test_repeat_calls_return_the_same_tuple(self):
        tgd = parse_nested_tgd("S1(x1) -> exists y . (S2(x2) -> R2(y,x2))")
        assert tgd._skolemized_heads == {}  # nothing computed at parse time
        first = tgd.skolemized_head(2)
        assert tgd.skolemized_head(2) is first
        assert first == (Atom("R2", (FuncTerm("f_y", (Variable("x1"),)), Variable("x2"))),)
