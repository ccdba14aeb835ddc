"""Core computation by iterative f-block retraction.

The core of an instance J is the smallest subinstance of J homomorphically
equivalent to J; it is unique up to isomorphism (Section 2, citing Hell &
Nesetril).  The algorithm repeatedly looks for a null that can be
*eliminated*: null ``x`` is eliminable when the f-block of ``x`` has a
homomorphism into the subinstance of J consisting of the facts that do not
contain ``x``.  Applying such a homomorphism (identity outside the block)
yields a proper retract of J without ``x``; when no null is eliminable, J is
a core.

Correctness of the stopping condition: if J is not a core, it has a proper
idempotent retract ``r``.  ``r`` moves some null ``x`` (otherwise it is the
identity), and idempotence puts ``x`` outside the image of ``r``, so the
restriction of ``r`` to the f-block of ``x`` is exactly an eliminating
homomorphism.  Conversely each elimination strictly decreases the number of
nulls, so the loop terminates after at most ``|nulls(J)|`` rounds.

Note that merely searching for a homomorphism that maps ``x`` to another
value would be wrong: such a homomorphism can be an automorphism (e.g.
rotating the nulls of a symmetric cycle), whose application does not shrink
the instance.

Engine structure (the seed loop -- restricted instance per candidate null,
restart per elimination -- is preserved as
:func:`repro.engine.naive.core_naive` for differential testing):

- **One id-space store.**  The instance is encoded once into a
  :class:`~repro.engine.columnar.ColumnarInstance`, values interned in repr
  order.  f-blocks are connected components of a union-find over null value
  ids, processed in order of their least null id, and the kernel breaks
  ties by id, so the returned core does not depend on ``PYTHONHASHSEED``.  An elimination
  tombstones the block rows that left the image (``discard_row``), and
  "J minus the facts containing x" is a per-group forbidden row set read off
  the inverted index and passed to
  :func:`~repro.engine.hom_kernel_columnar.solve_encoded`, never
  materialized.
- **Block worklist.**  Blocks are processed independently.  An elimination
  only removes facts of the processed block (every image fact already exists
  in J), so other blocks are unaffected; the surviving facts are split into
  connected components and re-enqueued.  A block with no eliminable null is
  *rigid* and never revisited: eliminating homomorphisms only lose candidate
  facts as J shrinks, so rigidity is monotone under eliminations.
- **Block-local folding is context-free and memoized.**  A homomorphism from
  block B into ``B minus facts(x)`` is in particular one into
  ``J minus facts(x)``, so a local fold is a valid elimination in any
  enclosing instance.  Folds are memoized process-wide in an LRU keyed by
  the content fingerprint of the block's *canonical labeling* (nulls
  renamed along degree-profile groups, ties broken by the least repr
  tuple); the value is the indexes of the surviving facts in canonical
  order.  The isomorphic blocks that chase outputs are full of thus fold
  once -- across blocks and across core calls.  Overly symmetric blocks
  (too many tie-break permutations) skip the local fold and are left to the
  global worklist.
- **Isomorphic duplicate blocks drop wholesale.**  If B2 is isomorphic to a
  disjoint block B1 of the same instance, the isomorphism maps B2 into
  ``J minus facts(x)`` for every null x of B2 (distinct blocks share no
  nulls), so all of B2 is eliminated by one retraction.  Duplicates are
  detected by equal canonical fingerprints.
- **Persistent fold tier** (:mod:`repro.cache`, enabled by
  ``REPRO_CACHE_DIR`` / ``repro.cache.configure``): fingerprints are
  process-independent, so a memo miss consults an on-disk store before
  folding, and computed folds are written through.  A payload is the tuple
  of surviving canonical indexes; anything else is a miss.  Disabled by
  default; the in-memory LRU stays the only tier on hot paths.

**Backends** (``core(instance, backend=...)``): ``"columnar"`` (and its
old alias ``"tuple"``) runs the engine above; ``"sql"`` pushes each
candidate elimination down to one SELECT join
(:func:`repro.engine.sql_backend.sql_core`); ``"auto"`` resolves through
:func:`repro.engine.dispatch.choose_core_backend`.  Both engines return the
same core up to isomorphism (same fact count, same constants, isomorphic
null structure); the fold each picks for a symmetric block may differ.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Iterable, Sequence

from repro import perf
from repro.cache import SPACE_FOLD, disk_get, disk_put
from repro.cache.fingerprint import (
    encode_atom_parts,
    encode_canonical_null,
    encode_value,
    fingerprint_encoded_sequence,
)
from repro.engine.columnar import ColumnarInstance, ValueTable, _RelGroup
from repro.engine.dispatch import CORE_SQL_AUTO_THRESHOLD, choose_core_backend
from repro.engine.hom_kernel_columnar import (
    _CONST as _ID_CONST,
    _VAR as _ID_VAR,
    EncodedFact,
    solve_encoded,
)
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.values import Null, is_null

#: One stored fact of a columnar store: (fact table, row index).
_Row = tuple[_RelGroup, int]

#: Maximum number of tie-break permutations tried when canonically labeling
#: the nulls of a block; blocks more symmetric than this skip the fold cache.
_CANON_PERMUTATION_LIMIT = 120

#: Process-wide LRU of block-local folds: content fingerprint of the
#: canonical block -> indexes (into the canonical row order) of the facts
#: that survive the local fold.  Sound because a fold is context-free (see
#: module docstring); keyed by fingerprint rather than repr strings so
#: adversarial names that render alike cannot alias entries.
_FOLD_CACHE: OrderedDict[str, tuple[int, ...]] = OrderedDict()
_FOLD_CACHE_MAX = 1024


def clear_fold_cache() -> None:
    """Empty the process-wide block-fold cache (mainly for tests)."""
    _FOLD_CACHE.clear()


def _store_fold(fingerprint: str, surviving: tuple[int, ...]) -> None:
    _FOLD_CACHE[fingerprint] = surviving
    _FOLD_CACHE.move_to_end(fingerprint)
    while len(_FOLD_CACHE) > _FOLD_CACHE_MAX:
        _FOLD_CACHE.popitem(last=False)


def _disk_fold_get(fingerprint: str, size: int) -> tuple[int, ...] | None:
    """Look a fold up in the persistent tier, or None.

    Only a non-empty, strictly increasing tuple of ints in ``range(size)``
    is a usable payload; anything else (a corrupt row, an atom tuple from an
    older format) is a miss, which the caller recomputes and overwrites.
    """
    payload = disk_get(SPACE_FOLD, fingerprint)
    if (
        not isinstance(payload, tuple)
        or not payload
        or not all(type(index) is int for index in payload)
        or payload[0] < 0
        or payload[-1] >= size
        or any(a >= b for a, b in zip(payload, payload[1:]))
    ):
        return None
    return payload


def _has_nulls(facts: Iterable[Atom]) -> bool:
    return any(is_null(arg) for fact in facts for arg in fact.args)


def _block_nulls(facts: Iterable[Atom]) -> list:
    """The nulls of a block, sorted by repr for deterministic elimination order."""
    return sorted({null for fact in facts for null in fact.nulls()}, key=repr)


def _null_components(facts: Sequence[Atom]) -> list[list[Atom]]:
    """Split facts into connected components linked by shared (top-level) nulls."""
    anchor_of: dict = {}
    parent = list(range(len(facts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for index, fact in enumerate(facts):
        for null in fact.nulls():
            anchor = anchor_of.setdefault(null, index)
            if anchor != index:
                root_a, root_b = find(anchor), find(index)
                if root_a != root_b:
                    parent[root_b] = root_a
    groups: dict[int, list[Atom]] = {}
    for index, fact in enumerate(facts):
        groups.setdefault(find(index), []).append(fact)
    return list(groups.values())


class _ColumnarCore:
    """One id-space core computation: per-call caches over a shared ValueTable.

    Every method works on ``(_RelGroup, row)`` pairs; interned value objects
    are touched only through the three memoized per-id accessors (null
    classification, repr, fingerprint encoding) -- no :class:`Atom` is
    materialized on the worklist path.  The fold helper builds private mini
    stores over the *same* value table, so one instance of this class serves
    the outer store and every fold store.
    """

    __slots__ = ("values", "_null_flags", "_reprs", "_encodings")

    def __init__(self, values) -> None:
        self.values = values
        self._null_flags: list[bool] = []
        self._reprs: dict[int, str] = {}
        self._encodings: dict[int, bytes] = {}

    # ------------------------------------------------------ per-id accessors

    def is_null_vid(self, vid: int) -> bool:
        flags = self._null_flags
        value = self.values.value
        while len(flags) <= vid:
            flags.append(is_null(value(len(flags))))
        return flags[vid]

    def vid_repr(self, vid: int) -> str:
        text = self._reprs.get(vid)
        if text is None:
            text = self._reprs[vid] = repr(self.values.value(vid))
        return text

    def vid_encoding(self, vid: int) -> bytes:
        encoding = self._encodings.get(vid)
        if encoding is None:
            encoding = self._encodings[vid] = encode_value(self.values.value(vid))
        return encoding

    # ------------------------------------------------------------- structure

    def null_components(self, rows: Sequence[_Row]) -> list[list[_Row]]:
        """Split rows into connected components linked by shared null ids.

        Only components that contain a null are returned, ordered by their
        least null id: components partition the nulls, so this order is
        fixed by the value ids alone, whatever the order of *rows*.
        """
        is_null_vid = self.is_null_vid
        anchor_of: dict[int, int] = {}
        parent = list(range(len(rows)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for index, (group, row) in enumerate(rows):
            for column in group.columns:
                vid = column[row]
                if not is_null_vid(vid):
                    continue
                anchor = anchor_of.setdefault(vid, index)
                if anchor != index:
                    root_a, root_b = find(anchor), find(index)
                    if root_a != root_b:
                        parent[root_b] = root_a
        least: dict[int, int] = {}
        for vid, index in anchor_of.items():
            root = find(index)
            if vid < least.get(root, vid + 1):
                least[root] = vid
        components: dict[int, list[_Row]] = {root: [] for root in least}
        for index, entry in enumerate(rows):
            component = components.get(find(index))
            if component is not None:
                component.append(entry)
        return [components[root] for root in sorted(least, key=least.__getitem__)]

    def null_blocks(self, store: ColumnarInstance) -> list[list[_Row]]:
        """The f-blocks of *store* that contain a null (ground rows stay put)."""
        return self.null_components([
            (group, row)
            for groups in store._groups.values()
            for group in groups
            for row in group.live_rows()
        ])

    # -------------------------------------------------------- canonical form

    def canonical_block(
        self, block: Sequence[_Row]
    ) -> tuple[list[_Row], dict[int, int]] | None:
        """Canonically label the null ids of a block, or None if too symmetric.

        Nulls are grouped by degree profile (multiset of (relation, position)
        occurrences -- an isomorphism invariant); ties within a profile group
        are broken by trying every within-group permutation and keeping the
        lexicographically least repr-string tuple (rendering ``Null(("#",
        i))`` reprs from the canonical index directly), so isomorphic blocks
        get identical canonical forms.  Returns the block rows in canonical
        order plus the null id -> canonical index labeling, or None when the
        tie groups would need more than ``_CANON_PERMUTATION_LIMIT``
        permutations.
        """
        is_null_vid = self.is_null_vid
        profiles: dict[int, dict[tuple[str, int], int]] = {}
        for group, row in block:
            for pos, column in enumerate(group.columns):
                vid = column[row]
                if is_null_vid(vid):
                    profile = profiles.setdefault(vid, {})
                    key = (group.relation, pos)
                    profile[key] = profile.get(key, 0) + 1
        groups: dict[tuple, list[int]] = {}
        for vid, profile in profiles.items():
            groups.setdefault(tuple(sorted(profile.items())), []).append(vid)
        total = 1
        for members in groups.values():
            for i in range(2, len(members) + 1):
                total *= i
                if total > _CANON_PERMUTATION_LIMIT:
                    return None
        vid_repr = self.vid_repr
        ordered_groups = [
            sorted(members, key=vid_repr) for __, members in sorted(groups.items())
        ]
        best_key: tuple[str, ...] | None = None
        best_rows: list[_Row] = []
        best_labeling: dict[int, int] = {}
        for orderings in itertools.product(
            *(itertools.permutations(members) for members in ordered_groups)
        ):
            labeling: dict[int, int] = {}
            for members in orderings:
                for vid in members:
                    labeling[vid] = len(labeling)
            entries: list[tuple[str, _Row]] = []
            for group, row in block:
                parts: list[str] = []
                for column in group.columns:
                    vid = column[row]
                    canonical = labeling.get(vid)
                    parts.append(
                        f"_{('#', canonical)}" if canonical is not None
                        else vid_repr(vid)
                    )
                entries.append((f"{group.relation}({', '.join(parts)})", (group, row)))
            entries.sort(key=lambda entry: entry[0])
            key = tuple(entry[0] for entry in entries)
            if best_key is None or key < best_key:
                best_key = key
                best_rows = [entry[1] for entry in entries]
                best_labeling = labeling
        assert best_key is not None
        return best_rows, best_labeling

    def block_fingerprint(
        self, canon_rows: Sequence[_Row], labeling: dict[int, int]
    ) -> str:
        """Content fingerprint of the canonical block, from id tuples.

        Byte-equal to ``fingerprint_fact_sequence`` of the decoded canonical
        atoms (canonical nulls rendered as ``Null(("#", i))``).
        """
        vid_encoding = self.vid_encoding
        encodings: list[bytes] = []
        for group, row in canon_rows:
            arg_encodings: list[bytes] = []
            for column in group.columns:
                vid = column[row]
                canonical = labeling.get(vid)
                arg_encodings.append(
                    encode_canonical_null(canonical) if canonical is not None
                    else vid_encoding(vid)
                )
            encodings.append(encode_atom_parts(group.relation, arg_encodings))
        return fingerprint_encoded_sequence(encodings)

    # ------------------------------------------------------------ elimination

    def encode_block(self, block: Sequence[_Row]) -> list[EncodedFact]:
        """Encode block rows for the id-space kernel: null ids are the vars."""
        is_null_vid = self.is_null_vid
        return [
            EncodedFact(
                group,
                tuple(
                    (_ID_VAR, vid) if is_null_vid(vid := column[row])
                    else (_ID_CONST, vid)
                    for column in group.columns
                ),
            )
            for group, row in block
        ]

    def block_null_vids(self, block: Sequence[_Row]) -> list[int]:
        """The null ids of a block, repr-sorted (the elimination try order)."""
        is_null_vid = self.is_null_vid
        vids = {
            vid
            for group, row in block
            for column in group.columns
            if is_null_vid(vid := column[row])
        }
        return sorted(vids, key=self.vid_repr)

    def rows_containing(
        self, store: ColumnarInstance, vid: int
    ) -> dict[_RelGroup, set[int]]:
        """Per-group row sets in which value id *vid* occurs (forbidden sets)."""
        forbidden: dict[_RelGroup, set[int]] = {}
        for groups in store._groups.values():
            for group in groups:
                rows: set[int] | None = None
                for position_index in group.index:
                    bucket = position_index.get(vid)
                    if bucket:
                        if rows is None:
                            rows = set(bucket)
                        else:
                            rows.update(bucket)
                if rows:
                    forbidden[group] = rows
        return forbidden

    def eliminating_hom(
        self, store: ColumnarInstance, block: Sequence[_Row]
    ) -> dict[object, int] | None:
        """Find a retraction of *block* into *store* eliminating one of its nulls.

        Tries each null id of the block in repr order; "store minus the rows
        containing x" is the kernel's forbidden row set.  The nulls of a
        block occur in no other block, so those rows are block rows only.
        """
        encoded = self.encode_block(block)
        for vid in self.block_null_vids(block):
            mapping = solve_encoded(encoded, self.rows_containing(store, vid))
            if mapping is not None:
                return mapping
        return None

    def process_blocks(
        self, store: ColumnarInstance, pending: "deque[list[_Row]]"
    ) -> None:
        """Drain the block worklist, tombstoning eliminated rows in *store*.

        Every image fact of an eliminating homomorphism already exists in
        the store, so applying it means discarding the block rows that left
        the image; the surviving rows may disconnect and are re-enqueued as
        fresh components.  Blocks with no eliminable null are rigid and
        leave the queue permanently (rigidity is monotone as the store
        shrinks).
        """
        while pending:
            block = pending.popleft()
            mapping = self.eliminating_hom(store, block)
            if mapping is None:
                perf.incr("core.rigid_blocks")
                continue
            perf.incr("core.eliminations")
            images: set[tuple[_RelGroup, tuple[int, ...]]] = set()
            for group, row in block:
                image = tuple(
                    mapping.get(column[row], column[row]) for column in group.columns
                )
                images.add((group, image))
            survivors: list[_Row] = []
            for group, row in block:
                own = tuple(column[row] for column in group.columns)
                if (group, own) in images:
                    survivors.append((group, row))
                else:
                    store.discard_row(group, row)
            if survivors:
                pending.extend(self.null_components(survivors))

    # ----------------------------------------------------------------- folding

    def fold_canonical(
        self, canon_rows: Sequence[_Row], labeling: dict[int, int]
    ) -> tuple[int, ...]:
        """Fold the canonical block in a private store sharing the value table.

        Returns the canonical indexes of the surviving facts -- a pure,
        deterministic function of the canonical form (elimination candidates
        are repr-sorted, and canonical-null reprs are index-determined), so
        the result is safe to memoize process-wide.
        """
        values = self.values
        mini = ColumnarInstance(values=values)
        canon_vids: dict[int, int] = {}
        mini_rows: list[_Row] = []
        for group, row in canon_rows:
            ids: list[int] = []
            for column in group.columns:
                vid = column[row]
                canonical = labeling.get(vid)
                if canonical is None:
                    ids.append(vid)
                else:
                    canon_vid = canon_vids.get(canonical)
                    if canon_vid is None:
                        canon_vid = values.intern(Null(("#", canonical)))
                        canon_vids[canonical] = canon_vid
                    ids.append(canon_vid)
            mini_group = mini.group(group.relation, group.arity)
            mini_row = mini.add_row(mini_group, tuple(ids))
            assert mini_row is not None  # canonical facts are distinct
            mini_rows.append((mini_group, mini_row))
        pending: deque[list[_Row]] = deque(self.null_components(mini_rows))
        self.process_blocks(mini, pending)
        return tuple(
            index
            for index, (mini_group, mini_row) in enumerate(mini_rows)
            if mini_row not in mini_group.dead
        )

    def fold_block(
        self,
        store: ColumnarInstance,
        block: list[_Row],
        canon: tuple[list[_Row], dict[int, int]] | None,
        fingerprint: str | None,
    ) -> list[_Row]:
        """Fold one block in place (memoized via *fingerprint*); survivors back.

        A block too symmetric to canonicalize is returned unchanged: its
        local fold is subsumed by the global worklist pass that follows,
        which tries the same eliminations against the whole store.
        """
        if canon is None or fingerprint is None:
            return block
        canon_rows, labeling = canon
        surviving = _FOLD_CACHE.get(fingerprint)
        if surviving is not None:
            _FOLD_CACHE.move_to_end(fingerprint)
            perf.incr("core.memo_hits")
        else:
            perf.incr("core.memo_misses")
            surviving = _disk_fold_get(fingerprint, len(canon_rows))
            if surviving is None:
                surviving = self.fold_canonical(canon_rows, labeling)
                disk_put(SPACE_FOLD, fingerprint, surviving)
            _store_fold(fingerprint, surviving)
        keep = {canon_rows[index] for index in surviving}
        survivors: list[_Row] = []
        for group, row in block:
            if (group, row) in keep:
                survivors.append((group, row))
            else:
                store.discard_row(group, row)
        return survivors


def _encode(instance: Instance) -> ColumnarInstance:
    """Encode *instance* with value ids fixed by its fact set alone.

    Values are interned in repr order before any fact is added.  Block order
    follows the least null id (:meth:`_ColumnarCore.null_components`) and
    the kernel breaks ties by id, so nothing downstream depends on
    ``PYTHONHASHSEED`` or on the order the instance yields its facts.
    """
    values = ValueTable()
    for value in sorted(
        instance.active_domain(), key=lambda value: (repr(value), type(value).__name__)
    ):
        values.intern(value)
    return ColumnarInstance(instance, values=values)


def core(instance: Instance, *, backend: str = "columnar") -> Instance:
    """Return the core of *instance*.

        >>> from repro.logic.parser import parse_instance
        >>> core(parse_instance("R(a, _x), R(a, b)"))
        Instance{R(a, b)}

    The result contains the same constants as the input and a subset of its
    facts; it is homomorphically equivalent to the input and no proper
    subinstance of it is.  For a given input it does not depend on
    ``PYTHONHASHSEED``.

    ``backend`` selects the execution engine: ``"columnar"`` (the id-space
    worklist of this module; ``"tuple"`` is accepted as an alias),
    ``"sql"`` (per-block eliminating homomorphisms as SELECT joins), or
    ``"auto"`` (:func:`~repro.engine.dispatch.choose_core_backend` by
    instance size).  All backends return the same core up to isomorphism.
    The in-memory engine works on a private id-space copy of *instance*,
    which is left unchanged.
    """
    size = len(instance)
    sql_supported = False
    if backend == "sql" or (backend == "auto" and size >= CORE_SQL_AUTO_THRESHOLD):
        from repro.engine.sql_backend import sql_core_supported

        sql_supported = sql_core_supported(instance)
    choice = choose_core_backend(backend, input_size=size, sql_supported=sql_supported)
    if choice.backend == "sql":
        from repro.engine.sql_backend import sql_core

        return sql_core(instance)

    store = _encode(instance)
    engine = _ColumnarCore(store.values)
    blocks = engine.null_blocks(store)
    perf.incr("core.blocks", len(blocks))

    # Drop isomorphic duplicates (equal canonical form => the isomorphism is
    # a wholesale eliminating retraction into the kept representative).
    kept: list[tuple[list[_Row], tuple[list[_Row], dict[int, int]] | None, str | None]] = []
    seen: set[str] = set()
    for block in blocks:
        canon = engine.canonical_block(block)
        fingerprint = None
        if canon is not None:
            fingerprint = engine.block_fingerprint(canon[0], canon[1])
            if fingerprint in seen:
                perf.incr("core.iso_folds")
                for group, row in block:
                    store.discard_row(group, row)
                continue
            seen.add(fingerprint)
        kept.append((block, canon, fingerprint))

    pending: deque[list[_Row]] = deque()
    for block, canon, fingerprint in kept:
        survivors = engine.fold_block(store, block, canon, fingerprint)
        if survivors:
            pending.extend(engine.null_components(survivors))
    engine.process_blocks(store, pending)
    return store.to_instance()


def is_core(instance: Instance) -> bool:
    """Return True if *instance* equals its own core (no null is eliminable)."""
    store = ColumnarInstance(instance)
    engine = _ColumnarCore(store.values)
    return all(
        engine.eliminating_hom(store, block) is None
        for block in engine.null_blocks(store)
    )


__all__ = ["core", "is_core", "clear_fold_cache"]
