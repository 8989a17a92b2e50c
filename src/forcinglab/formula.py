"""First-order formulas over membership and equality, with name constants.

Grammar (see :func:`parse_formula`):

    atom        :=  term "in" term  |  term "=" term
    term        :=  variable  |  "$" natural        (constant: k-th name of
                                                      the active universe)
    formula     :=  atom | "!" formula | formula "&" formula
                  | formula "|" formula | formula "->" formula
                  | "exists" var "(" formula ")" | "forall" var "(" formula ")"

Precedence: "!" binds tightest, then "&", then "|", then "->" (right
associative).  Exists is the one quantifier node: the parser desugars
"forall v (...)" into "!exists v (!...)".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence


class FormulaError(ValueError):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class BoundVariableError(FormulaError):
    pass


# -- terms and AST nodes --------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    index: int

    def __str__(self):
        return f"${self.index}"


Term = Var | Const


@dataclass(frozen=True)
class Membership:
    left: Term
    right: Term


@dataclass(frozen=True)
class Equality:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Membership | Equality | Not | And | Or | Implies | Exists


# -- parsing --------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[()!&|=]|\$\d+|[A-Za-z_][A-Za-z_0-9]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
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
            return Implies(left, self.implies())
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
            var = self.take()
            if not var or not var[0].isalpha():
                raise FormulaSyntaxError("expected a variable after quantifier", self.pos())
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
        if tok[0].isalpha() and tok not in ("in", "exists", "forall"):
            self.take()
            return Var(tok)
        raise FormulaSyntaxError(f"expected a term, found {tok!r}", self.pos())


def parse_formula(text: str) -> Formula:
    """Parse a formula; "forall" desugars to not-exists-not."""
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise FormulaSyntaxError(f"unexpected token {p.peek()!r}", p.pos())
    return f


# -- printing and structural helpers --------------------------------------


def to_text(f: Formula) -> str:
    """Canonical text form; parse(to_text(f)) == f for parser-produced trees."""
    if isinstance(f, Membership):
        return f"{f.left} in {f.right}"
    if isinstance(f, Equality):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        return f"!({to_text(f.body)})"
    if isinstance(f, And):
        return f"({to_text(f.left)}) & ({to_text(f.right)})"
    if isinstance(f, Or):
        return f"({to_text(f.left)}) | ({to_text(f.right)})"
    if isinstance(f, Implies):
        return f"({to_text(f.left)}) -> ({to_text(f.right)})"
    if isinstance(f, Exists):
        return f"exists {f.var} ({to_text(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


def _terms(f: Formula) -> Iterator[Term]:
    if isinstance(f, (Membership, Equality)):
        yield f.left
        yield f.right
    elif isinstance(f, Not):
        yield from _terms(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from _terms(f.left)
        yield from _terms(f.right)
    elif isinstance(f, Exists):
        yield from _terms(f.body)


def free_variables(f: Formula, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(f, (Membership, Equality)):
        return {t.name for t in (f.left, f.right)
                if isinstance(t, Var) and t.name not in bound}
    if isinstance(f, Not):
        return free_variables(f.body, bound)
    if isinstance(f, (And, Or, Implies)):
        return free_variables(f.left, bound) | free_variables(f.right, bound)
    if isinstance(f, Exists):
        return free_variables(f.body, bound | {f.var})
    raise TypeError(f"not a formula: {f!r}")


def bound_variables(f: Formula) -> set[str]:
    if isinstance(f, (Membership, Equality)):
        return set()
    if isinstance(f, Not):
        return bound_variables(f.body)
    if isinstance(f, (And, Or, Implies)):
        return bound_variables(f.left) | bound_variables(f.right)
    if isinstance(f, Exists):
        return {f.var} | bound_variables(f.body)
    raise TypeError(f"not a formula: {f!r}")


def constants(f: Formula) -> set[int]:
    return {t.index for t in _terms(f) if isinstance(t, Const)}


def depth(f: Formula) -> int:
    """Connective depth; atoms have depth 0."""
    if isinstance(f, (Membership, Equality)):
        return 0
    if isinstance(f, Not):
        return 1 + depth(f.body)
    if isinstance(f, (And, Or, Implies)):
        return 1 + max(depth(f.left), depth(f.right))
    if isinstance(f, Exists):
        return 1 + depth(f.body)
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, var: str, const_index: int) -> Formula:
    """Replace free occurrences of var by the constant $const_index.

    Substituting a variable that occurs bound anywhere in f is an error;
    constants cannot be captured, so nothing subtler is needed.
    """
    if var in bound_variables(f):
        raise BoundVariableError(f"variable {var!r} is bound in {to_text(f)}")
    return _subst(f, var, Const(const_index))


def _subst(f: Formula, var: str, repl: Term) -> Formula:
    def term(t: Term) -> Term:
        return repl if isinstance(t, Var) and t.name == var else t
    if isinstance(f, Membership):
        return Membership(term(f.left), term(f.right))
    if isinstance(f, Equality):
        return Equality(term(f.left), term(f.right))
    if isinstance(f, Not):
        return Not(_subst(f.body, var, repl))
    if isinstance(f, And):
        return And(_subst(f.left, var, repl), _subst(f.right, var, repl))
    if isinstance(f, Or):
        return Or(_subst(f.left, var, repl), _subst(f.right, var, repl))
    if isinstance(f, Implies):
        return Implies(_subst(f.left, var, repl), _subst(f.right, var, repl))
    if isinstance(f, Exists):
        if f.var == var:
            return f
        return Exists(f.var, _subst(f.body, var, repl))
    raise TypeError(f"not a formula: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (Membership, Equality)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (And, Or, Implies)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


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
    if isinstance(f, Implies):
        return (not eval_classical(f.left, universe, constants_env, env)
                or eval_classical(f.right, universe, constants_env, env))
    if isinstance(f, Exists):
        for x in universe:
            if eval_classical(f.body, universe, constants_env, {**env, f.var: x}):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")
