import re

import pytest
from hypothesis import given, settings, strategies as st

from forcinglab.formula import (And, BoundVariableError, Const, Equality,
                                Exists, Formula, FormulaError,
                                FormulaSyntaxError, Membership, Not,
                                Or, Var, bound_variables, constants, depth,
                                eval_classical, free_variables,
                                is_quantifier_free, parse_formula, substitute,
                                to_text)
from forcinglab.hfset import EMPTY, HFSet


class TestParsing:
    def test_membership_atom(self):
        assert parse_formula("x in y") == Membership(Var("x"), Var("y"))

    def test_exists_with_conjunction(self):
        f = parse_formula("exists z (z in x & z in y)")
        assert f == Exists("z", And(Membership(Var("z"), Var("x")),
                                    Membership(Var("z"), Var("y"))))

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("x in")
        assert exc.value.position == 4

    def test_forall_desugars(self):
        f = parse_formula("forall v (v in x)")
        assert f == Not(Exists("v", Not(Membership(Var("v"), Var("x")))))

    def test_constants(self):
        f = parse_formula("$0 in $2")
        assert f == Membership(Const(0), Const(2))
        assert constants(f) == {0, 2}

    def test_precedence(self):
        f = parse_formula("x = y & y = z -> x = z")
        assert isinstance(f, Or) and isinstance(f.left, Not)
        assert isinstance(f.left.body, And)

    def test_implication_right_associative(self):
        f = parse_formula("x = x -> y = y -> z = z")
        assert isinstance(f.right, Or) and isinstance(f.right.left, Not)

    def test_implication_desugars(self):
        x_in_y, y_in_x = (Membership(Var(a), Var(b)) for a, b in ("xy", "yx"))
        x_eq_y = Equality(Var("x"), Var("y"))
        assert parse_formula("x in y -> y in x -> x = y") == Or(
            Not(x_in_y), Or(Not(y_in_x), x_eq_y))
        assert parse_formula("x in y & y = x -> x = y") == Or(
            Not(And(x_in_y, Equality(Var("y"), Var("x")))), x_eq_y)

    def test_junk_after_formula(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x in y y")

    @pytest.mark.parametrize("text,message", [
        ("x in y #", "unexpected character '#' at offset 7"),
        ("(x in y", "unexpected end of input at offset 7"),
        ("exists x x in y", "expected '(', found 'x' at offset 9"),
        ("exists ( (x in y)", "expected a variable after quantifier at offset 7"),
        ("forall in (x in y)", "expected a variable after quantifier at offset 7"),
        ("x y", "expected 'in' or '=' after term at offset 2"),
    ])
    def test_syntax_error_names_where_it_stopped(self, text, message):
        with pytest.raises(FormulaSyntaxError, match=re.escape(message)):
            parse_formula(text)

    def test_trailing_blank_parses(self):
        assert parse_formula("x in y ") == parse_formula("x in y")


FORM_TEXTS = [
    "x in y",
    "$0 = $1",
    "!(x in x)",
    "(x in y) & ((y in z) | !(z = x))",
    "exists v ((v in x) -> (v = y))",
    "exists a (exists b ((a in b) & !(b in a)))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", FORM_TEXTS)
    def test_parse_print_parse(self, text):
        f = parse_formula(text)
        assert parse_formula(to_text(f)) == f

    def test_print_parse_is_canonical_form(self):
        f1 = parse_formula("x in y & y in z")
        canon = to_text(f1)
        assert parse_formula(canon) == f1
        assert to_text(parse_formula(canon)) == canon


@st.composite
def formulas(draw, depth_left=3):
    terms = st.one_of(st.sampled_from([Var("x"), Var("y"), Var("z")]),
                      st.builds(Const, st.integers(0, 2)))
    if depth_left == 0:
        cls = draw(st.sampled_from([Membership, Equality]))
        return cls(draw(terms), draw(terms))
    kind = draw(st.integers(0, 5))
    if kind <= 1:
        cls = [Membership, Equality][kind]
        return cls(draw(terms), draw(terms))
    if kind == 2:
        return Not(draw(formulas(depth_left=depth_left - 1)))
    if kind == 5:
        return Exists(draw(st.sampled_from(["x", "y", "v"])),
                      draw(formulas(depth_left=depth_left - 1)))
    cls = [And, Or][kind - 3]
    return cls(draw(formulas(depth_left=depth_left - 1)),
               draw(formulas(depth_left=depth_left - 1)))


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_parse_inverts_print(f):
    assert parse_formula(to_text(f)) == f


class TestSubstitute:
    def test_free_substitution(self):
        f = parse_formula("x in y")
        assert substitute(f, "x", 3) == Membership(Const(3), Var("y"))

    def test_closed_formula_unchanged(self):
        f = parse_formula("$0 in $1")
        assert substitute(f, "x", 0) == f

    def test_bound_variable_rejected(self):
        f = parse_formula("exists z (z in x)")
        with pytest.raises(BoundVariableError):
            substitute(f, "z", 0)

    def test_substitution_under_binder(self):
        f = parse_formula("exists z (z in x)")
        g = substitute(f, "x", 1)
        assert g == Exists("z", Membership(Var("z"), Const(1)))


class TestStructuralHelpers:
    def test_free_and_bound(self):
        f = parse_formula("exists z (z in x)")
        assert free_variables(f) == {"x"}
        assert bound_variables(f) == {"z"}

    def test_depth(self):
        assert depth(parse_formula("x in y")) == 0
        assert depth(parse_formula("!(x in y)")) == 1
        assert depth(parse_formula("(x in y) & !(x = y)")) == 2

    def test_quantifier_free(self):
        assert is_quantifier_free(parse_formula("!(x in y) & (x = y)"))
        assert not is_quantifier_free(parse_formula("exists v (v in x)"))


class TestClassicalEvaluation:
    def setup_method(self):
        self.zero = EMPTY
        self.one = HFSet([EMPTY])
        self.universe = [self.zero, self.one]

    def test_membership(self):
        f = parse_formula("$0 in $1")
        assert eval_classical(f, self.universe, [self.zero, self.one])
        assert not eval_classical(f, self.universe, [self.one, self.zero])

    def test_quantifier_ranges_over_universe(self):
        f = parse_formula("exists v (v in $0)")
        assert eval_classical(f, self.universe, [self.one])
        assert not eval_classical(f, self.universe, [self.zero])

    def test_forall(self):
        f = parse_formula("forall v (! (v in $0))")
        assert eval_classical(f, self.universe, [self.zero])

    def test_missing_constant(self):
        with pytest.raises(FormulaError):
            eval_classical(parse_formula("$5 = $5"), self.universe, [])

    def test_unbound_variable(self):
        with pytest.raises(FormulaError, match="unbound variable 'x'"):
            eval_classical(parse_formula("x in $0"), self.universe, [self.one])


# Formulas that together use all six node types, each with its expected
# canonical text, depth, bound variables, constants, free variables,
# quantifier-freeness and one substitution (var, k, result text, or the
# error it raises).
NODE_TABLE = [
    ("x in $0", "x in $0", 0, set(), {0}, {"x"}, True,
     ("x", 1, "$1 in $0")),
    ("$1 = y", "$1 = y", 0, set(), {1}, {"y"}, True,
     ("y", 0, "$1 = $0")),
    ("!(x in y)", "!(x in y)", 1, set(), set(), {"x", "y"}, True,
     ("x", 2, "!($2 in y)")),
    ("(x in $0) & (y = x)", "(x in $0) & (y = x)", 1, set(), {0},
     {"x", "y"}, True, ("y", 3, "(x in $0) & ($3 = x)")),
    ("(x = $2) | !(exists v (v in x))",
     "(x = $2) | (!(exists v (v in x)))", 3, {"v"}, {2}, {"x"}, False,
     ("x", 0, "($0 = $2) | !(exists v (v in $0))")),
    ("(x in y) -> (exists a (exists b ((a in b) & (b = $3))))",
     "(!(x in y)) | (exists a (exists b ((a in b) & (b = $3))))", 4,
     {"a", "b"}, {3}, {"x", "y"}, False,
     ("y", 1, "(x in $1) -> (exists a (exists b ((a in b) & (b = $3))))")),
    ("forall z ((z in x) | (z = x))",
     "!(exists z (!((z in x) | (z = x))))", 4, {"z"}, set(), {"x"}, False,
     ("x", 5, "forall z ((z in $5) | (z = $5))")),
    ("exists x ((x in y) & (exists y (y in x)))",
     "exists x ((x in y) & (exists y (y in x)))", 3, {"x", "y"}, set(),
     {"y"}, False, ("y", 0, BoundVariableError)),
]


class TestEveryNodeType:
    def test_the_table_uses_every_node_type(self):
        seen = set()

        def visit(f):
            seen.add(type(f))
            for attr in ("body", "left", "right"):
                sub = getattr(f, attr, None)
                if isinstance(sub, (Membership, Equality, Not, And, Or,
                                    Exists)):
                    visit(sub)
        for row in NODE_TABLE:
            visit(parse_formula(row[0]))
        assert seen == {Membership, Equality, Not, And, Or, Exists}

    @pytest.mark.parametrize("row", NODE_TABLE, ids=[r[0] for r in NODE_TABLE])
    def test_helpers(self, row):
        text, canon, d, bound, consts, free, qf, _ = row
        f = parse_formula(text)
        assert to_text(f) == canon
        assert parse_formula(canon) == f
        assert depth(f) == d
        assert bound_variables(f) == bound
        assert constants(f) == consts
        assert free_variables(f) == free
        assert is_quantifier_free(f) is qf

    @pytest.mark.parametrize("row", NODE_TABLE, ids=[r[0] for r in NODE_TABLE])
    def test_substitute(self, row):
        f = parse_formula(row[0])
        var, k, expected = row[-1]
        if isinstance(expected, type):
            with pytest.raises(expected):
                substitute(f, var, k)
        else:
            assert substitute(f, var, k) == parse_formula(expected)


HELPERS = {
    "to_text": to_text, "free_variables": free_variables,
    "bound_variables": bound_variables, "constants": constants,
    "depth": depth, "is_quantifier_free": is_quantifier_free,
    "substitute": lambda f: substitute(f, "x", 0),
    "eval_classical": lambda f: eval_classical(f, [EMPTY], [EMPTY]),
}


@pytest.mark.parametrize("helper", HELPERS.values(), ids=HELPERS.keys())
@pytest.mark.parametrize("thing", [Var("x"), Const(0), "x in y", None])
def test_every_helper_rejects_a_non_formula(helper, thing):
    with pytest.raises(TypeError, match="not a formula"):
        helper(thing)
