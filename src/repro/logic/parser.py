"""A textual syntax for dependencies and instances.

Conventions
-----------
- Relation names start with an upper-case letter: ``S``, ``R2``, ``Emp``.
- Variables and function symbols start with a lower-case letter: ``x1``, ``f``.
- In *instance* syntax, lower-case identifiers are constants and identifiers
  starting with ``_`` are labeled nulls.

Grammar (informal)
------------------
s-t tgd::

    S(x,y) & T(y,z) -> R(x,z) & P(z,w)          # w is existential (not in body)
    S(x,y) -> exists w . R(x,w)                 # explicit quantifier also allowed

nested tgd -- parenthesized implications in a conclusion open nested parts::

    S1(x1) -> exists y1 . ( R2(y1) & ( S3(x1,x3) -> R3(y1,x3) ) )

(parts nest at most ``MAX_NESTING_DEPTH`` levels deep; deeper input is a
:class:`~repro.errors.ParseError`)

SO tgd -- clauses separated by ``;``, function terms and equalities allowed::

    Emp(e) -> Mgr(e, f(e)) ; Emp(e) & e = f(e) -> SelfMgr(e)

egd::

    S(x,y) & S(x,z) -> y = z

instance::

    S(a, b), S(b, c), R(a, _n1)
"""

from __future__ import annotations

import re
from repro.errors import ParseError
from repro.logic.atoms import Atom
from repro.logic.egds import Egd
from repro.logic.instances import Instance
from repro.logic.nested import NestedTgd, Part
from repro.logic.sotgd import SOClause, SOTgd
from repro.logic.terms import FuncTerm
from repro.logic.tgds import STTgd
from repro.logic.values import Constant, Null, Variable

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[(),&;=.])
    """,
    re.VERBOSE,
)


class _Tokens:
    """A token stream with one-token lookahead over a dependency string."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise ParseError(
                    f"unexpected character {text[pos]!r}", pos, text, token=text[pos]
                )
            if match.lastgroup != "ws":
                self.tokens.append((match.group(), match.start()))
            pos = match.end()
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def position(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text), self.text)
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        pos = self.position()
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r}", pos, self.text, token=got)

    def try_take(self, token: str) -> bool:
        if self.peek() == token:
            self.index += 1
            return True
        return False

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    def save(self) -> int:
        return self.index

    def restore(self, mark: int) -> None:
        self.index = mark


def _is_relation_name(token: str) -> bool:
    return token[0].isupper()


def _is_term_name(token: str) -> bool:
    return token[0].islower() or token[0] == "_"


def _parse_term(tokens: _Tokens):
    """Parse a variable or functional term (used in SO tgd heads/equalities)."""
    pos = tokens.position()
    name = tokens.next()
    if not _is_term_name(name):
        raise ParseError(f"expected a term, got {name!r}", pos, tokens.text, token=name)
    if tokens.try_take("("):
        args = [_parse_term(tokens)]
        while tokens.try_take(","):
            args.append(_parse_term(tokens))
        tokens.expect(")")
        return FuncTerm(name, tuple(args))
    return Variable(name)


def _parse_atom(tokens: _Tokens, allow_terms: bool) -> Atom:
    pos = tokens.position()
    name = tokens.next()
    if not _is_relation_name(name):
        raise ParseError(
            f"expected a relation name (upper-case), got {name!r}",
            pos,
            tokens.text,
            token=name,
        )
    tokens.expect("(")
    args: list = []
    if tokens.peek() != ")":
        args.append(_parse_term(tokens) if allow_terms else _parse_plain_variable(tokens))
        while tokens.try_take(","):
            args.append(_parse_term(tokens) if allow_terms else _parse_plain_variable(tokens))
    tokens.expect(")")
    return Atom(name, tuple(args))


def _parse_plain_variable(tokens: _Tokens) -> Variable:
    pos = tokens.position()
    name = tokens.next()
    if not _is_term_name(name):
        raise ParseError(f"expected a variable, got {name!r}", pos, tokens.text, token=name)
    if tokens.peek() == "(":
        raise ParseError(
            f"function term {name!r}(...) not allowed here", pos, tokens.text, token=name
        )
    return Variable(name)


def _parse_atom_conjunction(tokens: _Tokens, allow_terms: bool = False) -> list[Atom]:
    atoms = [_parse_atom(tokens, allow_terms)]
    while tokens.try_take("&"):
        atoms.append(_parse_atom(tokens, allow_terms))
    return atoms


def _skip_forall(tokens: _Tokens) -> None:
    """Accept and ignore an optional ``forall x y .`` prefix (universals are inferred)."""
    if tokens.peek() == "forall":
        tokens.next()
        while True:
            token = tokens.peek()
            if token is None or not _is_term_name(token):
                break
            tokens.next()
            tokens.try_take(",")
        tokens.expect(".")


def _parse_exists(tokens: _Tokens) -> list[Variable]:
    """Parse an optional ``exists y1, y2 .`` prefix; return the variables."""
    if tokens.peek() != "exists":
        return []
    tokens.next()
    names: list[Variable] = []
    while True:
        token = tokens.peek()
        if token is None or not _is_term_name(token):
            break
        names.append(Variable(tokens.next()))
        if not tokens.try_take(","):
            break
    tokens.expect(".")
    return names


# --------------------------------------------------------------------- atoms


def parse_atom(text: str) -> Atom:
    """Parse a single atom over variables, e.g. ``"S(x, y)"``."""
    tokens = _Tokens(text)
    atom = _parse_atom(tokens, allow_terms=False)
    if not tokens.at_end():
        raise ParseError("trailing input after atom", tokens.position(), text)
    return atom


# ------------------------------------------------------------------ s-t tgds


def parse_tgd(text: str, name: str | None = None) -> STTgd:
    """Parse an s-t tgd, e.g. ``"S(x,y) -> exists z . R(x,z)"``."""
    tokens = _Tokens(text)
    _skip_forall(tokens)
    body = _parse_atom_conjunction(tokens)
    tokens.expect("->")
    _parse_exists(tokens)  # explicit exists is allowed but redundant: inferred below
    tokens.try_take("(")
    head = _parse_atom_conjunction(tokens)
    tokens.try_take(")")
    if not tokens.at_end():
        raise ParseError("trailing input after tgd", tokens.position(), text)
    return STTgd(body=tuple(body), head=tuple(head), name=name)


# -------------------------------------------------------------- nested tgds


def _looks_like_implication(tokens: _Tokens) -> bool:
    """Heuristically check whether the upcoming parenthesized group is an implication.

    Scans ahead for a ``->`` before the matching close paren at depth 0.
    """
    depth = 0
    index = tokens.index
    while index < len(tokens.tokens):
        token = tokens.tokens[index][0]
        if token == "(":
            depth += 1
        elif token == ")":
            if depth == 0:
                return False
            depth -= 1
        elif token == "->" and depth == 0:
            return True
        index += 1
    return False


#: The deepest part nesting :func:`parse_nested_tgd` accepts (a single-part
#: tgd has depth 1).  Code that walks a nested tgd (construction,
#: Skolemization, the chases) recurses per level, so deeper input is refused
#: here with a :class:`ParseError` rather than failing later with a
#: ``RecursionError``.  At 329 every tgd that parsed under a recursive
#: parser at CPython's default recursion limit still parses.
MAX_NESTING_DEPTH = 329


def _parse_part(tokens: _Tokens, scope: frozenset[Variable], depth: int = 1) -> Part:
    """Parse one implication ``body -> conclusion`` into a :class:`Part`.

    Recurses only into nested parts; grouping parentheses in a conclusion
    are counted, not recursed into.
    """
    if depth > MAX_NESTING_DEPTH:
        raise ParseError(
            f"nested tgd nesting depth {depth} exceeds the maximum of "
            f"{MAX_NESTING_DEPTH} levels",
            tokens.position(), tokens.text, token=tokens.peek(),
        )
    _skip_forall(tokens)
    body = _parse_atom_conjunction(tokens)
    tokens.expect("->")
    body_vars: dict[Variable, None] = {}
    for atom in body:
        for var in atom.variables():
            if var not in scope:
                body_vars.setdefault(var, None)
    universal = tuple(body_vars)
    inner_scope = scope | set(universal)

    exist_vars = tuple(_parse_exists(tokens))
    head_scope = inner_scope | set(exist_vars)

    head: list[Atom] = []
    children: list[Part] = []
    extra_exists: list[Variable] = []
    groups = 0  # grouping parentheses open in the conclusion
    while True:
        while tokens.peek() == "(" and not _looks_like_implication_after_paren(tokens):
            tokens.expect("(")
            groups += 1
        if tokens.peek() == "(":
            tokens.expect("(")
            children.append(_parse_part(tokens, frozenset(head_scope), depth + 1))
            tokens.expect(")")
        else:
            atom = _parse_atom(tokens, allow_terms=False)
            for var in atom.variables():
                if var not in head_scope:
                    extra_exists.append(var)
                    head_scope = head_scope | {var}
            head.append(atom)
        while not tokens.try_take("&"):
            if not groups:
                return Part(
                    universal_vars=universal,
                    body=tuple(body),
                    exist_vars=exist_vars + tuple(dict.fromkeys(extra_exists)),
                    head=tuple(head),
                    children=tuple(children),
                )
            tokens.expect(")")
            groups -= 1


def _looks_like_implication_after_paren(tokens: _Tokens) -> bool:
    mark = tokens.save()
    tokens.expect("(")
    result = _looks_like_implication(tokens)
    tokens.restore(mark)
    return result


def parse_nested_tgd(text: str, name: str | None = None) -> NestedTgd:
    """Parse a nested tgd.

    Nested parts are written as parenthesized implications inside a
    conclusion.  Universal variables are inferred per part: a variable of a
    part's body that is not bound by an enclosing part is universally
    quantified at that part.  Existential variables may be declared with
    ``exists y .`` or inferred (head variables not in scope).

        >>> s = parse_nested_tgd(
        ...     "S1(x1) -> exists y1 . ("
        ...     "  (S2(x2) -> R2(y1, x2))"
        ...     "  & (S3(x1, x3) -> R3(y1, x3) & (S4(x3, x4) -> exists y2 . R4(y2, x4)))"
        ...     ")"
        ... )
        >>> s.part_count
        4
    """
    tokens = _Tokens(text)
    root = _parse_part(tokens, frozenset())
    if not tokens.at_end():
        raise ParseError("trailing input after nested tgd", tokens.position(), text)
    return NestedTgd(root, name=name)


# ------------------------------------------------------------------- SO tgds


def _parse_so_clause(tokens: _Tokens) -> SOClause:
    _skip_forall(tokens)
    body: list[Atom] = []
    equalities: list[tuple] = []
    while True:
        token = tokens.peek()
        if token is None:
            raise ParseError("unexpected end of clause", tokens.position(), tokens.text)
        if _is_relation_name(token):
            body.append(_parse_atom(tokens, allow_terms=False))
        else:
            left = _parse_term(tokens)
            tokens.expect("=")
            right = _parse_term(tokens)
            equalities.append((left, right))
        if not tokens.try_take("&"):
            break
    tokens.expect("->")
    tokens.try_take("(")
    head = _parse_atom_conjunction(tokens, allow_terms=True)
    tokens.try_take(")")
    return SOClause(body=tuple(body), equalities=tuple(equalities), head=tuple(head))


def parse_so_tgd(text: str, name: str | None = None) -> SOTgd:
    """Parse an SO tgd; clauses are separated by ``;``.

        >>> s = parse_so_tgd("S(x,y) -> R(f(x), f(y))")
        >>> s.functions
        ('f',)
    """
    tokens = _Tokens(text)
    clauses = [_parse_so_clause(tokens)]
    while tokens.try_take(";"):
        clauses.append(_parse_so_clause(tokens))
    if not tokens.at_end():
        raise ParseError("trailing input after SO tgd", tokens.position(), text)
    functions: set[str] = set()
    for clause in clauses:
        functions |= clause.function_symbols()
    return SOTgd(functions=tuple(sorted(functions)), clauses=tuple(clauses), name=name)


# ---------------------------------------------------------------------- egds


def parse_egd(text: str, name: str | None = None) -> Egd:
    """Parse an egd, e.g. ``"S(x,y) & S(x,z) -> y = z"``."""
    tokens = _Tokens(text)
    _skip_forall(tokens)
    body = _parse_atom_conjunction(tokens)
    tokens.expect("->")
    left = _parse_plain_variable(tokens)
    tokens.expect("=")
    right = _parse_plain_variable(tokens)
    if not tokens.at_end():
        raise ParseError("trailing input after egd", tokens.position(), text)
    return Egd(body=tuple(body), left=left, right=right, name=name)


# ----------------------------------------------------------------- instances


def _parse_value(tokens: _Tokens):
    name = tokens.next()
    if name.startswith("_"):
        return Null(name[1:] or name)
    return Constant(name)


def parse_instance(text: str) -> Instance:
    """Parse an instance: comma-separated facts with constant/null arguments.

        >>> inst = parse_instance("S(a, b), R(a, _n1)")
        >>> len(inst)
        2
    """
    tokens = _Tokens(text)
    facts: list[Atom] = []
    if tokens.at_end():
        return Instance()
    while True:
        pos = tokens.position()
        name = tokens.next()
        if not _is_relation_name(name):
            raise ParseError(
                f"expected a relation name, got {name!r}", pos, text, token=name
            )
        tokens.expect("(")
        args: list = []
        if tokens.peek() != ")":
            args.append(_parse_value(tokens))
            while tokens.try_take(","):
                args.append(_parse_value(tokens))
        tokens.expect(")")
        facts.append(Atom(name, tuple(args)))
        if not tokens.try_take(","):
            break
    if not tokens.at_end():
        raise ParseError("trailing input after instance", tokens.position(), text)
    return Instance(facts)


__all__ = [
    "parse_atom",
    "parse_tgd",
    "parse_nested_tgd",
    "parse_so_tgd",
    "parse_egd",
    "parse_instance",
]
