"""First-order formulas over membership and equality, with name constants.

Grammar (see :func:`parse_formula`):

    atom        :=  term "in" term  |  term "=" term
    term        :=  variable  |  "$" natural        (constant: k-th name of
                                                      the active universe)
    formula     :=  atom | "!" formula | formula "&" formula
                  | formula "|" formula | formula "->" formula
                  | "exists" var "(" formula ")" | "forall" var "(" formula ")"

Precedence: "!" binds tightest, then "&", then "|", then "->" (right
associative).  The parser builds no node it can spell with others: Exists
is the one quantifier node, as "forall v (...)" desugars into
"!exists v (!...)", and "a -> b" desugars into "!a | b".

Structural queries (free and bound variables, constants, depth,
quantifier-freeness) go through one traversal: ``_parts`` gives a node's
immediate subformulas, and is the one place that rejects a non-formula with
TypeError, and ``_walk`` yields a formula and every subformula.  A new node
type must extend ``_parts``, ``to_text``, the atom case of ``_subst`` (or
its binder case; a connective is rebuilt through its own constructor),
``eval_classical`` and :meth:`forcinglab.names.TruthSession.value`.

The two evaluators share no connective code.  The truth-lemma tests compare
truth in each generic extension, as ``eval_classical`` reads it, with the
Boolean value ``TruthSession.value`` gives, so a bug in connective code that
both used would show on both sides and pass.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

from .config import Value


class FormulaError(ValueError):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class BoundVariableError(FormulaError):
    pass


# -- terms and AST nodes --------------------------------------------------


class Var(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self):
        return self.name


class Const(Value):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __str__(self):
        return f"${self.index}"


Term = Var | Const


class _Pair(Value):
    """A node over two operands, ``left`` and ``right``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Membership(_Pair):
    __slots__ = ()


class Equality(_Pair):
    __slots__ = ()


class Not(Value):
    __slots__ = ("body",)

    def __init__(self, body: "Formula"):
        self.body = body


class And(_Pair):
    __slots__ = ()


class Or(_Pair):
    __slots__ = ()


class Exists(Value):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "Formula"):
        self.var = var
        self.body = body


Formula = Membership | Equality | Not | And | Or | Exists


# -- parsing --------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[()!&|=]|\$\d+|[A-Za-z_][A-Za-z_0-9]*)")
_KEYWORDS = ("in", "exists", "forall")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise FormulaSyntaxError(f"unexpected character {rest[0]!r}",
                                         len(text) - len(rest))
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {tok!r}", self.pos())
        self.i += 1
        return tok

    def formula(self) -> Formula:
        return self.implies()

    def implies(self) -> Formula:
        left = self.disjunct()
        if self.peek() == "->":
            self.take()
            return Or(Not(left), self.implies())
        return left

    def disjunct(self) -> Formula:
        left = self.conjunct()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.conjunct())
        return left

    def conjunct(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok in ("exists", "forall"):
            self.take()
            at = self.pos()
            var = self.take()
            if not var[0].isalpha() or var in _KEYWORDS:
                raise FormulaSyntaxError("expected a variable after quantifier", at)
            self.take("(")
            body = self.formula()
            self.take(")")
            if tok == "forall":
                return Not(Exists(var, Not(body)))
            return Exists(var, body)
        if tok == "(":
            self.take()
            body = self.formula()
            self.take(")")
            return body
        return self.atom()

    def atom(self) -> Formula:
        left = self.term()
        tok = self.peek()
        if tok == "in":
            self.take()
            return Membership(left, self.term())
        if tok == "=":
            self.take()
            return Equality(left, self.term())
        raise FormulaSyntaxError("expected 'in' or '=' after term", self.pos())

    def term(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("expected a term", len(self.text))
        if tok.startswith("$"):
            self.take()
            return Const(int(tok[1:]))
        if tok[0].isalpha() and tok not in _KEYWORDS:
            self.take()
            return Var(tok)
        raise FormulaSyntaxError(f"expected a term, found {tok!r}", self.pos())


def parse_formula(text: str) -> Formula:
    """Parse a formula; "forall" desugars to not-exists-not, "a -> b" to
    "!a | b"."""
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise FormulaSyntaxError(f"unexpected token {p.peek()!r}", p.pos())
    return f


# -- printing and structural helpers --------------------------------------


def _parts(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f; atoms have none."""
    if isinstance(f, (Membership, Equality)):
        return ()
    if isinstance(f, (Not, Exists)):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


def _walk(f: Formula) -> Iterator[Formula]:
    """f and every subformula of f, outermost first."""
    yield f
    for sub in _parts(f):
        yield from _walk(sub)


_INFIX = {And: "&", Or: "|"}


def to_text(f: Formula) -> str:
    """Canonical text form; parse(to_text(f)) == f for parser-produced trees."""
    if isinstance(f, Membership):
        return f"{f.left} in {f.right}"
    if isinstance(f, Equality):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        return f"!({to_text(f.body)})"
    if isinstance(f, Exists):
        return f"exists {f.var} ({to_text(f.body)})"
    left, right = map(to_text, _parts(f))
    return f"({left}) {_INFIX[type(f)]} ({right})"


def free_variables(f: Formula, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(f, (Membership, Equality)):
        return {t.name for t in (f.left, f.right)
                if isinstance(t, Var) and t.name not in bound}
    if isinstance(f, Exists):
        bound = bound | {f.var}
    return set().union(*(free_variables(sub, bound) for sub in _parts(f)))


def bound_variables(f: Formula) -> set[str]:
    return {g.var for g in _walk(f) if isinstance(g, Exists)}


def constants(f: Formula) -> set[int]:
    return {t.index for g in _walk(f) if isinstance(g, (Membership, Equality))
            for t in (g.left, g.right) if isinstance(t, Const)}


def depth(f: Formula) -> int:
    """Connective depth; atoms have depth 0."""
    parts = _parts(f)
    return 1 + max(map(depth, parts)) if parts else 0


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, Exists) for g in _walk(f))


def substitute(f: Formula, var: str, const_index: int) -> Formula:
    """Replace free occurrences of var by the constant $const_index.

    Substituting a variable that occurs bound anywhere in f is an error;
    constants cannot be captured, so nothing subtler is needed.
    """
    if var in bound_variables(f):
        raise BoundVariableError(f"variable {var!r} is bound in {to_text(f)}")
    return _subst(f, var, Const(const_index))


def _subst(f: Formula, var: str, repl: Term) -> Formula:
    if isinstance(f, (Membership, Equality)):
        return type(f)(*(repl if isinstance(t, Var) and t.name == var else t
                         for t in (f.left, f.right)))
    if isinstance(f, Exists):
        return f if f.var == var else Exists(f.var, _subst(f.body, var, repl))
    return type(f)(*(_subst(sub, var, repl) for sub in _parts(f)))


# -- classical evaluation over a finite membership structure ---------------


def eval_classical(f: Formula, universe: Sequence, constants_env: Sequence,
                   env: dict | None = None) -> bool:
    """Truth of f in the structure (universe, in, =) of HF sets.

    Constants $k denote constants_env[k]; quantifiers range over
    ``universe``.  This is plain two-valued semantics, used for ground-world
    checks and for truth in a fixed generic extension.
    """
    env = env or {}

    def term(t: Term):
        if isinstance(t, Const):
            try:
                return constants_env[t.index]
            except IndexError:
                raise FormulaError(f"constant ${t.index} outside the active universe")
        if t.name not in env:
            raise FormulaError(f"unbound variable {t.name!r}")
        return env[t.name]

    if isinstance(f, Membership):
        return term(f.left) in term(f.right)
    if isinstance(f, Equality):
        return term(f.left) == term(f.right)
    if isinstance(f, Not):
        return not eval_classical(f.body, universe, constants_env, env)
    if isinstance(f, And):
        return (eval_classical(f.left, universe, constants_env, env)
                and eval_classical(f.right, universe, constants_env, env))
    if isinstance(f, Or):
        return (eval_classical(f.left, universe, constants_env, env)
                or eval_classical(f.right, universe, constants_env, env))
    if isinstance(f, Exists):
        for x in universe:
            if eval_classical(f.body, universe, constants_env, {**env, f.var: x}):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")
