"""The record helpers of forcinglab.config: fields, replace and Value."""

import pytest

from forcinglab.cli import ExperimentConfig, InstanceSpec
from forcinglab.config import DEFAULT_CAPS, Caps, fields, replace
from forcinglab.formula import (And, Const, Equality, Exists, Membership,
                                Not, Or, Var, parse_formula)
from forcinglab.iteration import CifsProvider, TableProvider, build_iteration
from forcinglab.names import Name, NameUniverse
from forcinglab.poset import antichain_with_top
from forcinglab.projection import make_context, verify_theorem2

A2 = antichain_with_top(2)


def two_step_antichains():
    return build_iteration(TableProvider([{(): A2}, {(0,): A2, (1,): A2}]))


def one_of_each_record() -> list:
    """One instance of each of the library's 21 record classes."""
    it = two_step_antichains()
    ctx = make_context(it, 1, 0)
    level = ctx.final_level
    report = verify_theorem2(ctx)
    stage = it.stages[1]
    cifs = CifsProvider([parse_formula("x = x")], [(2, 2)])
    build_iteration(cifs)
    x, z = Var("x"), Var("z")
    atom = Membership(z, x)
    return [
        DEFAULT_CAPS, it, stage, stage.generics[0],
        ctx, level, level.hom, report, report.checks[0],
        NameUniverse(level.source, 0, (Name((), level.source),)),
        next(iter(cifs.info.values())),
        ExperimentConfig(), InstanceSpec("it-0", []),
        x, Const(0), atom, Equality(z, Const(0)), Not(atom), And(atom, atom),
        Or(atom, atom), Exists("z", atom),
    ]


def test_a_copy_holds_the_same_fields():
    records = one_of_each_record()
    assert len({type(r) for r in records}) == len(records) == 21
    for record in records:
        copy = replace(record)
        assert type(copy) is type(record) and copy is not record
        assert fields(type(record))
        for name in fields(type(record)):
            assert getattr(copy, name) is getattr(record, name)


def test_a_copied_level_derives_its_own_state():
    ctx = make_context(two_step_antichains(), 1, 0)
    beta, level = len(ctx.iteration), ctx.final_level
    ctx.pi_second(beta, Name((), level.source))
    assert level._pi_second and level.hom.ok
    copy = replace(level)
    assert copy._pi_second == {} and copy._pi_second is not level._pi_second
    assert not {"pi_prime", "hom", "rows"} & vars(copy).keys()
    assert copy.pi_prime == level.pi_prime
    # every defined condition sent to the quotient top: each source
    # element goes to zero or one
    top = level.stage.poset.top
    collapsed = replace(level, pi=[None if v is None else top for v in level.pi])
    one = collapsed.algebra.one
    assert set(collapsed.pi_prime.values()) == {0, one}
    assert set(level.pi_prime.values()) != {0, one}


def test_an_unknown_field_raises_type_error():
    it = two_step_antichains()
    level = make_context(it, 1, 0).final_level
    for record, change in ((DEFAULT_CAPS, {"max_poset": 3}),
                           (it, {"context_cache": {}}),
                           (level, {"_pi_second": {}}),
                           (level, {"pi_prime": {}})):
        with pytest.raises(TypeError):
            replace(record, **change)


def test_equal_caps_hit_the_context_cache():
    it = two_step_antichains()
    ctx = make_context(it, 1, 0)
    caps = Caps(**{name: getattr(it.caps, name) for name in fields(Caps)})
    assert caps is not it.caps and caps == it.caps
    assert hash(caps) == hash(it.caps)
    assert make_context(it, 1, 0, caps) is ctx
    other = it.caps.with_(hom_family_cap=it.caps.hom_family_cap + 1)
    assert other != it.caps and make_context(it, 1, 0, other) is not ctx


def test_caps_hash_once_by_their_fields(monkeypatch):
    caps = Caps(max_stages=3, algebra_max_base=10)
    kw = {name: getattr(caps, name) for name in fields(Caps)}
    assert hash(caps) == hash(Caps(**kw)) == hash(tuple(kw.values()))
    other = caps.with_(hom_family_cap=7)
    assert hash(other) == hash(Caps(**{**kw, "hom_family_cap": 7})) != hash(caps)
    # the hash is read, not recomputed from the fields
    monkeypatch.setattr(Caps, "_key", None)
    assert hash(caps) == hash(tuple(kw.values()))
    monkeypatch.undo()
    # equal caps built twice find one cached context
    it = two_step_antichains()
    assert make_context(it, 1, 0, Caps(**kw)) is make_context(it, 1, 0, Caps(**kw))


def test_caps_with_changes_one_field():
    caps = DEFAULT_CAPS.with_(max_stages=2)
    assert caps.max_stages == 2 and DEFAULT_CAPS.max_stages == 4
    assert caps == Caps(max_stages=2) != DEFAULT_CAPS


def test_values_compare_by_class_and_fields():
    x, y = Var("x"), Var("y")
    assert And(x, y) == And(Var("x"), Var("y"))
    assert hash(And(x, y)) == hash(And(Var("x"), Var("y")))
    assert And(x, y) != Or(x, y) and And(x, y) != And(y, x)
    assert Var("x") != "x"
    assert repr(Exists("z", Not(Var("z")))) == \
        "Exists(var='z', body=Not(body=Var(name='z')))"
    assert repr(DEFAULT_CAPS) == (
        "Caps(max_stages=4, max_stage_conditions=64, algebra_max_base=12, "
        "hom_family_cap=65536)")
