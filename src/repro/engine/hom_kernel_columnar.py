"""Integer-domain homomorphism kernel of the in-memory core engine.

This is the CSP kernel of :mod:`repro.engine.hom_kernel` re-based onto the
id-space store :class:`~repro.engine.columnar.ColumnarInstance`: candidate
domains are row ids read straight out of the per-(position, value-id)
inverted index, AC-3 propagation and the most-constrained-variable search
compare machine integers from the ``array('q')`` columns, and
connected-component decomposition runs over variable keys -- no
:class:`~repro.logic.atoms.Atom` is decoded anywhere.

Its one entry is :func:`solve_encoded`: a block of :class:`EncodedFact`
rows, which the core engine (:mod:`repro.engine.core_instance`) builds
directly from group columns, is split into components and solved.
Variable keys are opaque hashables (the core engine uses the null value
ids themselves); domain elements are always integer value ids.  Every
Atom-level caller (IMPLIES, model checking, the standard chase) runs the
generic kernel of :mod:`repro.engine.hom_kernel` instead.

The search matches the generic kernel -- same candidate seeding from the
most selective bound position, same generalized arc consistency, same
most-constrained-first search with full look-ahead; ties are broken on
value ids rather than value reprs, so a found witness may differ.
:func:`solve_encoded` also takes per-group ``forbidden`` row
sets: those rows count as absent.  This is how the core engine expresses
"the instance minus the facts containing null x" without copying anything.

Perf counters: ``hom.columnar.kernel_calls``, ``hom.columnar.ac3_revisions``,
``hom.columnar.ac3_wipeouts``, ``hom.columnar.search_nodes``,
``hom.columnar.backtracks`` (same meanings as their ``hom.*`` twins, counted
for the core engine's searches).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping

from repro import perf
from repro.engine.columnar import _RelGroup

_CONST = 0
_VAR = 1


class _Stats:
    """Locally accumulated counters, flushed once per kernel call."""

    __slots__ = ("revisions", "wipeouts", "nodes", "backtracks")

    def __init__(self) -> None:
        self.revisions = 0
        self.wipeouts = 0
        self.nodes = 0
        self.backtracks = 0

    def flush(self) -> None:
        perf.incr("hom.columnar.kernel_calls")
        if self.revisions:
            perf.incr("hom.columnar.ac3_revisions", self.revisions)
        if self.wipeouts:
            perf.incr("hom.columnar.ac3_wipeouts", self.wipeouts)
        if self.nodes:
            perf.incr("hom.columnar.search_nodes", self.nodes)
        if self.backtracks:
            perf.incr("hom.columnar.backtracks", self.backtracks)


class EncodedFact:
    """One source fact resolved against a target group.

    ``args`` holds one ``(kind, key)`` pair per position: ``(_CONST, vid)``
    for a fixed value id, ``(_VAR, key)`` for a free variable.
    ``var_positions`` lists the first occurrence of each distinct variable
    -- the positions whose candidate columns define its domain.
    """

    __slots__ = ("group", "args", "var_positions")

    def __init__(self, group: _RelGroup, args: tuple[tuple[int, object], ...]):
        self.group = group
        self.args = args
        seen: set[object] = set()
        positions: list[tuple[int, object]] = []
        for pos, (kind, key) in enumerate(args):
            if kind == _VAR and key not in seen:
                seen.add(key)
                positions.append((pos, key))
        self.var_positions = tuple(positions)


def _split_components(
    encoded: list[EncodedFact],
) -> tuple[list[list[EncodedFact]], list[EncodedFact]]:
    """Group facts connected by shared variables; grounded facts separately."""
    grounded: list[EncodedFact] = []
    with_vars: list[EncodedFact] = []
    for fact in encoded:
        (with_vars if fact.var_positions else grounded).append(fact)
    anchor_of: dict[object, int] = {}
    parent = list(range(len(with_vars)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for index, fact in enumerate(with_vars):
        for __, var in fact.var_positions:
            anchor = anchor_of.setdefault(var, index)
            if anchor != index:
                root_a, root_b = find(anchor), find(index)
                if root_a != root_b:
                    parent[root_b] = root_a
    components: dict[int, list[EncodedFact]] = {}
    for index, fact in enumerate(with_vars):
        components.setdefault(find(index), []).append(fact)
    return list(components.values()), grounded


def _seed_rows(
    fact: EncodedFact, forbidden: dict[_RelGroup, set[int]] | None
) -> list[int]:
    """Candidate rows for *fact* from its most selective constant position."""
    group = fact.group
    best: list[int] | None = None
    for pos, (kind, key) in enumerate(fact.args):
        if kind != _CONST:
            continue
        bucket = group.index[pos].get(key)
        if bucket is None:
            return []
        if best is None or len(bucket) < len(best):
            best = bucket
    rows: Iterable[int] = group.live_rows() if best is None else best
    if forbidden:
        blocked = forbidden.get(group)
        if blocked:
            return [row for row in rows if row not in blocked]
    return list(rows)


def _consistent(
    fact: EncodedFact,
    row: int,
    bound: Mapping[object, int],
    domains: Mapping[object, set[int]],
) -> bool:
    """Is target row *row* compatible with *fact* under bounds and domains?"""
    columns = fact.group.columns
    seen: dict[object, int] = {}
    for pos, (kind, key) in enumerate(fact.args):
        value = columns[pos][row]
        if kind == _CONST:
            if value != key:
                return False
            continue
        fixed_value = bound.get(key)
        if fixed_value is not None:
            if fixed_value != value:
                return False
            continue
        previous = seen.get(key)
        if previous is None:
            domain = domains.get(key)
            if domain is not None and value not in domain:
                return False
            seen[key] = value
        elif previous != value:
            return False
    return True


def _propagate(
    facts: list[EncodedFact],
    facts_of_var: dict[object, list[int]],
    candidates: list[list[int]],
    domains: dict[object, set[int]],
    bound: Mapping[object, int],
    queue: Iterable[int],
    stats: _Stats,
) -> bool:
    """AC-3 style propagation; return False on a domain or candidate wipeout."""
    pending: deque[int] = deque(queue)
    queued = set(pending)
    while pending:
        index = pending.popleft()
        queued.discard(index)
        stats.revisions += 1
        fact = facts[index]
        filtered = [
            row for row in candidates[index] if _consistent(fact, row, bound, domains)
        ]
        candidates[index] = filtered
        if not filtered:
            stats.wipeouts += 1
            return False
        columns = fact.group.columns
        for pos, var in fact.var_positions:
            column = columns[pos]
            supported = {column[row] for row in filtered}
            domain = domains[var]
            if supported >= domain:
                continue
            shrunk = domain & supported
            if not shrunk:
                stats.wipeouts += 1
                return False
            domains[var] = shrunk
            for other in facts_of_var[var]:
                if other != index and other not in queued:
                    pending.append(other)
                    queued.add(other)
    return True


def _search(
    facts: list[EncodedFact],
    facts_of_var: dict[object, list[int]],
    candidates: list[list[int]],
    domains: dict[object, set[int]],
    bound: dict[object, int],
    stats: _Stats,
) -> dict[object, int] | None:
    """Most-constrained-variable backtracking with full look-ahead."""
    stats.nodes += 1
    undecided = [var for var in domains if var not in bound]
    if not undecided:
        return dict(bound)
    var = min(undecided, key=lambda v: (len(domains[v]), repr(v)))
    for value in sorted(domains[var]):
        child_bound = dict(bound)
        child_bound[var] = value
        child_domains = {v: set(d) for v, d in domains.items()}
        child_domains[var] = {value}
        child_candidates = [list(c) for c in candidates]
        if _propagate(
            facts, facts_of_var, child_candidates, child_domains, child_bound,
            facts_of_var[var], stats,
        ):
            # Propagation can pin further variables to singletons; adopt them.
            for v, domain in child_domains.items():
                if v not in child_bound and len(domain) == 1:
                    child_bound[v] = next(iter(domain))
            result = _search(
                facts, facts_of_var, child_candidates, child_domains,
                child_bound, stats,
            )
            if result is not None:
                return result
        stats.backtracks += 1
    return None


def _solve_component(
    facts: list[EncodedFact],
    forbidden: dict[_RelGroup, set[int]] | None,
    stats: _Stats,
) -> dict[object, int] | None:
    """Solve one component: domains from index buckets, AC-3, then search."""
    domains: dict[object, set[int]] = {}
    candidates: list[list[int]] = []
    facts_of_var: dict[object, list[int]] = {}
    for index, fact in enumerate(facts):
        rows = _seed_rows(fact, forbidden)
        candidates.append(rows)
        if not rows:
            stats.wipeouts += 1
            return None
        columns = fact.group.columns
        for pos, var in fact.var_positions:
            facts_of_var.setdefault(var, []).append(index)
            column = columns[pos]
            occurrence = {column[row] for row in rows}
            domain = domains.get(var)
            domains[var] = occurrence if domain is None else domain & occurrence
            if not domains[var]:
                stats.wipeouts += 1
                return None
    bound: dict[object, int] = {}
    if not _propagate(
        facts, facts_of_var, candidates, domains, bound, range(len(facts)), stats
    ):
        return None
    for var, domain in domains.items():
        if len(domain) == 1:
            bound[var] = next(iter(domain))
    return _search(facts, facts_of_var, candidates, domains, bound, stats)


def solve_encoded(
    encoded: list[EncodedFact],
    forbidden: dict[_RelGroup, set[int]] | None = None,
) -> dict[object, int] | None:
    """Map every variable key of *encoded* to a value id, or None.

    Grounded facts reduce to (live) row lookups; components solve
    independently.  This is the entry the core engine calls with
    facts built directly from group columns (variable keys are the null
    value ids themselves).
    """
    stats = _Stats()
    try:
        result: dict[object, int] = {}
        components, grounded = _split_components(encoded)
        for fact in grounded:
            ids = tuple(key for __, key in fact.args)
            row = fact.group.row_of.get(ids)  # type: ignore[arg-type]
            if row is None:
                return None
            if forbidden:
                blocked = forbidden.get(fact.group)
                if blocked and row in blocked:
                    return None
        for component in components:
            solution = _solve_component(component, forbidden, stats)
            if solution is None:
                return None
            result.update(solution)
        return result
    finally:
        stats.flush()


__all__ = [
    "EncodedFact",
    "solve_encoded",
]
