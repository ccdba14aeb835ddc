"""The benchmark's three workloads: seeded inputs, requests and known answers.

Every request is a closed-loop call into the library's public API under its
defaults (one client, ``parallel=None``).  The seed sets relation, variable
and constant names and the request order; the program only ever receives
the generated inputs.  Known answers come from each family's construction,
never from the engine under test, and are checked outside the timed region.
See ``NOTES.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import random
import re
import shutil
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

REFUSED = "refused"
OK = "ok"


class Mismatch(Exception):
    """A verdict or output differs from its known answer."""


@dataclass
class Request:
    """One request: the timed call plus its untimed answer check."""

    kind: str
    call: Callable[[], Any]
    #: Returns ``OK`` or ``REFUSED``; raises :class:`Mismatch` on a wrong answer.
    check: Callable[[Any], str]
    #: Units of work an answered request completed (patterns, facts, requests).
    work: Callable[[Any], int]
    #: Frontier tier of a decision request, computed after the request.
    tier: Callable[[Any], str | None] = lambda __: None
    meta: dict[str, Any] = field(default_factory=dict)


def _expect(kind: str, expected: object, got: object) -> None:
    if got != expected:
        raise Mismatch(f"{kind}: expected {expected!r}, got {got!r}")


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rename(text: str, mapping: dict[str, str]) -> str:
    """Apply a token-level renaming to dependency text."""
    return _TOKEN.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def _fresh_names(rng: random.Random, count: int, upper: bool) -> list[str]:
    """*count* distinct random identifiers, a function of the generator state only."""
    names: list[str] = []
    while len(names) < count:
        head = rng.choice(string.ascii_uppercase if upper else string.ascii_lowercase)
        name = head + "".join(rng.choices(string.ascii_lowercase + string.digits, k=6))
        if name not in names:
            names.append(name)
    return names


def _tier_of(deps: list[Any]) -> str:
    from repro.analysis.frontier import frontier_report

    return frontier_report(deps).tier.tier.value


def reset_memory_tiers() -> None:
    """Drop every in-memory cache tier, so each request starts cold in memory."""
    from repro.analysis.frontier import clear_frontier_cache
    from repro.cache import clear_all_caches

    clear_all_caches(disk=False)
    clear_frontier_cache()


# ------------------------------------------------------------------ implies-deep

DEEP_LHS = (
    "S1(x1) & S2(x2) -> R2(x1,x2)",
    "S1(x1) & S2(x2) & S3(x3) -> R3(x1,x3)",
)
DEEP_RHS = "S1(x1) -> exists y . (S2(x2) -> R2(y,x2) & (S3(x3) -> R3(y,x3)))"
#: |P_k(rhs)| for k = 4: the sweep checks every pattern because it holds.
DEEP_PATTERNS = 3125
DEEP_RELATIONS = ("S1", "S2", "S3", "R2", "R3")
DEEP_VARIABLES = ("x1", "x2", "x3", "y")


class ImpliesDeep:
    """``implies_tgd`` under defaults on renamed copies of one deep query."""

    name = "implies-deep"

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        from repro.core import implication
        from repro.logic.parser import parse_nested_tgd, parse_tgd

        rng = random.Random(seed)
        self.variants = []
        for __ in range(max(8, seconds)):
            relations = _fresh_names(rng, len(DEEP_RELATIONS), upper=True)
            variables = _fresh_names(rng, len(DEEP_VARIABLES), upper=False)
            mapping = dict(zip(DEEP_RELATIONS + DEEP_VARIABLES, relations + variables))
            lhs = [parse_tgd(rename(text, mapping)) for text in DEEP_LHS]
            rhs = parse_nested_tgd(rename(DEEP_RHS, mapping))
            self.variants.append((lhs, rhs))
        self._implication = implication
        # Warm-up on a small renamed query: lazy imports finish in set-up.
        warm = {"S2": "Wa", "S3": "Wb", "R2": "Wc", "R3": "Wd", "S1": "We"}
        implication.implies_tgd(
            [parse_tgd(rename(DEEP_LHS[0], warm))],
            parse_nested_tgd(rename("S1(x1) -> exists y . (S2(x2) -> R2(y,x2))", warm)),
        )

    def close(self) -> None:
        pass

    def round(self, index: int) -> list[Request]:
        lhs, rhs = self.variants[index % len(self.variants)]
        implication = self._implication

        def check(result: Any) -> str:
            _expect(self.name, (True, DEEP_PATTERNS),
                    (result.holds, result.patterns_checked))
            return OK

        return [Request(
            kind="deep",
            call=lambda: implication.implies_tgd(lhs, rhs),
            check=check,
            work=lambda result: result.patterns_checked,
            tier=lambda __: _tier_of(lhs + [rhs]),
        )]


# ----------------------------------------------------------------- exchange-auto

LAYERED_PROGRAM = (
    "S(x,y) & S(y,z) -> R(x,z)",
    "S(x,y) & S(x,z) -> P(x)",
    "Q(x) -> exists w . T(x,w)",
)
STAR_PROGRAM = ("S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))",)
#: (width, degree) of 3-layer graphs: 100 to 24,700 source facts, straddling
#: the chase thresholds (500 columnar, 5k SQL) and, through the target size
#: w * (2d + 2), the core thresholds (300 columnar, 20k SQL).
LAYERED_LADDER = ((20, 2), (40, 3), (60, 4), (200, 5), (450, 5), (500, 5), (1900, 6))
#: Star spokes n: n^2 chased facts (64 to 22,500) and a core of n facts.
STAR_LADDER = (8, 16, 24, 40, 64, 100, 150)


def layered_source(width: int, degree: int, prefix: str):
    """Node (l, i) -> (l+1, (i+j) % width) for j < degree, l < 2; Q on layer 0."""
    from repro.logic.atoms import Atom
    from repro.logic.instances import Instance
    from repro.logic.values import Constant

    def node(layer: int, i: int) -> Constant:
        return Constant(f"{prefix}{layer}_{i}")

    facts = [
        Atom("S", (node(layer, i), node(layer + 1, (i + j) % width)))
        for layer in range(2) for i in range(width) for j in range(degree)
    ]
    facts.extend(Atom("Q", (node(0, i),)) for i in range(width))
    return Instance(facts)


def layered_sizes(width: int, degree: int) -> dict[str, int]:
    """Closed form of the exchange (and of its core, which folds nothing).

    R: a layer-0 node reaches 2d - 1 distinct layer-2 nodes (offsets
    j1 + j2 in 0..2d-2, all distinct mod width since 2d - 1 <= width);
    P: every layer-0 and layer-1 node has an out-edge; T: one per Q fact,
    each its own one-fact block with nowhere to fold.
    """
    return {"R": width * (2 * degree - 1), "P": 2 * width, "T": width}


def star_source(spokes: int, prefix: str):
    from repro.logic.atoms import Atom
    from repro.logic.instances import Instance
    from repro.logic.values import Constant

    hub = Constant(f"{prefix}hub")
    return Instance(Atom("S", (hub, Constant(f"{prefix}v{i}"))) for i in range(spokes))


def _relation_sizes(instance: Any) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for fact in instance:
        sizes[fact.relation] = sizes.get(fact.relation, 0) + 1
    return sizes


class ExchangeAuto:
    """``execute_exchange(backend="auto")`` then ``core(backend="auto")``."""

    name = "exchange-auto"

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        from repro.engine import core_instance
        from repro.export import sql
        from repro.logic.parser import parse_nested_tgd, parse_tgd

        self.rng = random.Random(seed)
        prefix = _fresh_names(self.rng, 1, upper=False)[0]
        layered = [parse_tgd(text) for text in LAYERED_PROGRAM]
        star = [parse_nested_tgd(text) for text in STAR_PROGRAM]
        self.inputs = [
            (f"layered-{w}x{d}", layered_source(w, d, prefix), layered,
             ("layered", w, d))
            for w, d in LAYERED_LADDER
        ] + [
            (f"star-{n}", star_source(n, prefix), star, ("star", n))
            for n in STAR_LADDER
        ]
        self._sql, self._core_instance = sql, core_instance
        # Warm-up: load every backend module on a tiny exchange.
        tiny = layered_source(4, 2, "warm")
        for backend in ("tuple", "columnar", "sql"):
            core_instance.core(sql.execute_exchange(tiny, layered, backend=backend),
                               backend=backend)

    def close(self) -> None:
        pass

    def round(self, index: int) -> list[Request]:
        order = list(self.inputs)
        self.rng.shuffle(order)
        return [self._request(*entry) for entry in order]

    def _request(self, kind: str, source: Any, deps: list[Any], shape: tuple) -> Request:
        sql, core_instance = self._sql, self._core_instance

        def call() -> tuple[Any, Any]:
            target = sql.execute_exchange(source, deps, backend="auto")
            return target, core_instance.core(target, backend="auto")

        def check(output: tuple[Any, Any]) -> str:
            target, folded = output
            if shape[0] == "layered":
                expected = layered_sizes(shape[1], shape[2])
                _expect(kind + " target", expected, _relation_sizes(target))
                _expect(kind + " core", expected, _relation_sizes(folded))
            else:
                n = shape[1]
                _expect(kind + " target", {"R": n * n}, _relation_sizes(target))
                _expect(kind + " core", {"R": n}, _relation_sizes(folded))
                _expect(kind + " core nulls", 1, len({f.args[0] for f in folded}))
                _expect(kind + " core spokes", {f.args[1] for f in source},
                        {f.args[1] for f in folded})
            return OK

        return Request(
            kind=kind, call=call, check=check,
            work=lambda output: len(output[0]),
            meta={"source_facts": len(source)},
        )


# -------------------------------------------------------------------- decide-mix

def _ladder(depth: int) -> list[str]:
    return [f"T{i}(x,y) -> exists z . T{i + 1}(y,z)" for i in range(depth)]


def _contain_templates() -> dict[str, tuple[Any, ...]]:
    templates: dict[str, tuple[Any, ...]] = {}
    for depth in range(2, 6):
        weakenings = [f"T{i}(x,y) -> exists z, w . T{i + 1}(z,w)" for i in range(depth)]
        reversals = [f"T{i}(x,y) -> T{i + 1}(y,x)" for i in range(depth)]
        templates[f"contain-d{depth}-pos"] = ("contain", _ladder(depth), weakenings, True)
        templates[f"contain-d{depth}-neg"] = ("contain", _ladder(depth), reversals, False)
    return templates


#: kind -> (operation, texts..., known verdict).  Verdicts: containment_pair
#: polarity; the paper's running example is not GLAV-equivalent while bounded
#: nesting and flat tgds are; Example 3.10's tau is strictly weaker than
#: tau''; under the key egd, S(x,y) -> R2(y,y) implies S(x,y) & S(x,z) ->
#: R2(y,z) (Example 5.3 / Theorem 5.7).
MIX_TEMPLATES: dict[str, tuple[Any, ...]] = {
    **_contain_templates(),
    "glav-running": ("glav-nested", "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))",
                     False),
    "glav-bounded": ("glav-nested", "S1(x1) -> (S2(x2) -> T(x1, x2))", True),
    "glav-flat": ("glav-flat", "S(x,y) -> R(x,z)", True),
    "equiv-ex310": ("equiv", "S1(x1) -> exists y . (S2(x2) -> R(x2, y))",
                    "S1(x1) & S2(x2) -> R(x2, x1)", False),
    "implies-egd": ("implies-egd", "S(x,y) -> R2(y,y)", "S(x,y) & S(x,z) -> R2(y,z)",
                    "S(x,y) & S(x,z) -> y = z", True),
}

#: First-sight requests per round for each kind; the fixed composition keeps
#: the latency distribution the same across seeds.
MIX_FIRST = {
    **{kind: 6 for kind in _contain_templates()},
    "glav-running": 8, "glav-bounded": 12, "glav-flat": 16,
    "equiv-ex310": 20, "implies-egd": 20,
}
#: Share of each kind's first-sight requests sent again later in the round
#: (served by the disk tier); the seed picks which ones and where.
MIX_REPEAT_SHARE = 0.4

_RELATION = re.compile(r"\b([A-Z][A-Za-z0-9]*)\(")


def _tag_relations(text: str, tag: str) -> str:
    return _RELATION.sub(lambda m: f"{m.group(1)}{tag}(", text)


class DecideMix:
    """Short decision requests parsed from text, persistent store on."""

    name = "decide-mix"

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        from repro.analysis import containment
        from repro.cache import configure, get_store
        from repro.core import glav_equivalence, implication
        from repro.logic import parser

        self.rng = random.Random(seed)
        self.scratch = scratch
        self._configure, self._get_store = configure, get_store
        # Modules, not functions: calls resolve at call time, so the traced
        # run's wrappers see them.
        self._containment, self._glav, self._implication, self._parser = (
            containment, glav_equivalence, implication, parser)
        self._store_dir: Path | None = None
        self._tags = 0
        self.new_store()
        # Warm-up: one request of every kind against the set-up store.
        for kind in MIX_TEMPLATES:
            request = self._request(kind, self._tag())
            request.check(request.call())

    def _tag(self) -> str:
        self._tags += 1
        return f"{_fresh_names(self.rng, 1, upper=False)[0]}{self._tags}"

    def new_store(self) -> None:
        """Point the persistent store at a fresh directory and open it."""
        old = self._store_dir
        self._store_dir = self.scratch / f"store-{self._tags}"
        self._configure(self._store_dir)
        self._get_store()
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)

    def round(self, index: int) -> list[Request]:
        """A fresh store, then a seeded order of first-sight and repeat requests."""
        self.new_store()
        first = [
            self._request(kind, self._tag())
            for kind, count in MIX_FIRST.items() for __ in range(count)
        ]
        self.rng.shuffle(first)
        order = list(first)
        for kind, count in MIX_FIRST.items():
            mine = [request for request in first if request.kind == kind]
            for original in self.rng.sample(mine, round(count * MIX_REPEAT_SHARE)):
                repeat = self._request(kind, original.meta["tag"])
                repeat.meta["repeat"] = True
                after = order.index(original) + 1
                order.insert(self.rng.randint(after, len(order)), repeat)
        return order

    def _request(self, kind: str, tag: str) -> Request:
        op, *texts, known = MIX_TEMPLATES[kind]
        parser, implication = self._parser, self._implication
        tagged = [
            [_tag_relations(t, tag) for t in text] if isinstance(text, list)
            else _tag_relations(text, tag)
            for text in texts
        ]

        def parsed() -> tuple[list[Any], ...]:
            """Parse the request text (inside the timed call, as a user would)."""
            if op == "contain":
                return tuple([parser.parse_tgd(t) for t in side] for side in tagged)
            if op == "glav-nested":
                return ([parser.parse_nested_tgd(tagged[0])],)
            if op == "glav-flat":
                return ([parser.parse_tgd(tagged[0])],)
            if op == "equiv":
                return [parser.parse_nested_tgd(tagged[0])], [parser.parse_tgd(tagged[1])]
            return ([parser.parse_tgd(tagged[0])], [parser.parse_tgd(tagged[1])],
                    [parser.parse_egd(tagged[2])])

        def call() -> Any:
            args = parsed()
            if op == "contain":
                return self._containment.check_containment(*args)
            if op.startswith("glav"):
                return self._glav.is_equivalent_to_glav(*args)
            if op == "equiv":
                return implication.equivalent(*args)
            lhs, rhs, egds = args
            return implication.implies(lhs, rhs, source_egds=egds)

        def check(answer: Any) -> str:
            holds = answer.holds if op == "contain" else answer
            if holds is None:
                return REFUSED
            _expect(kind, known, holds)
            return OK

        return Request(
            kind=kind, call=call, check=check, work=lambda __: 1,
            tier=lambda __: _tier_of([dep for side in parsed() for dep in side]),
            meta={"tag": tag},
        )

    def close(self) -> None:
        self._configure(None)
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ImpliesDeep, ExchangeAuto, DecideMix)}
