import pytest
from hypothesis import given, settings, strategies as st

from forcinglab.formula import (And, BoundVariableError, Const, Equality,
                                Exists, Formula, FormulaError,
                                FormulaSyntaxError, Implies, Membership, Not,
                                Or, Var, bound_variables, constants, depth,
                                eval_classical, free_variables,
                                is_quantifier_free, parse_formula, substitute,
                                to_text)
from forcinglab.hfset import EMPTY, hfset


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
        assert isinstance(f, Implies)
        assert isinstance(f.left, And)

    def test_implication_right_associative(self):
        f = parse_formula("x = x -> y = y -> z = z")
        assert isinstance(f.right, Implies)

    def test_junk_after_formula(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x in y y")


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
    cls = [And, Or, Implies][kind - 3]
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
        self.one = hfset(EMPTY)
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
