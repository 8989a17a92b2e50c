"""The name route for quotient tails, kept as the oracle of
``projection._tail_image``.

A function-form tail becomes a literal name by mixing the check names of
its values' element codes (:func:`forcinglab.hfset.element_code`) over the
atoms; a name tail becomes a canonical tail again by evaluating it under
every generic that contains the prefix and decoding each value.  Mapping
the literal name through ``pi_second`` and decoding it under the quotient
generics is what ``make_context`` did at every level from alpha+2 on
before it read tails off ``pi_prime``.
"""

from functools import cache

from forcinglab.hfset import element_code
from forcinglab.iteration import TAIL_ONE, ProviderError
from forcinglab.names import check_name, evaluate, mix_name


def element_name(element, algebra, memo=None):
    """Check name of the element code of a step-poset element id."""
    return check_name(element_code(element), algebra, memo)


@cache
def _element_of_code():
    """Every encodable id by the Ackermann code of its encoding."""
    return {element_code(e).code: e for e in range(64)}


def element_code_value(x):
    """Inverse of :func:`forcinglab.hfset.element_code`, or None."""
    return _element_of_code().get(x.code)


def tail_as_name(stage, tail, algebra, memo=None):
    """Literal name for a function-form tail at ``stage``: mixing over the
    atoms of the generics the tail is defined on."""
    memo = {} if memo is None else memo
    return mix_name([(stage.generics[g].atom, element_name(e, algebra, memo))
                     for g, e in tail], algebra)


def tail_from_name(prev, steps, prev_idx, name, memo=None):
    """Turn a literal name tail into its canonical tail under a prefix: one
    (generic, element) pair per generic containing the prefix, ascending,
    or ``TAIL_ONE`` when every element is its step poset's top.

    ``steps`` are the step posets named over ``prev`` (the ``steps`` of the
    stage after it).  The name must evaluate, under every generic containing
    the prefix, to the code of an element of the step poset provided there;
    otherwise ``ProviderError`` is raised.  ``memo`` is passed to
    :func:`forcinglab.names.evaluate`.
    """
    out = []
    all_top = True
    for g in prev.gens_of(prev_idx):
        q = steps[g]
        if q is None:
            raise ProviderError(
                f"no step poset under generic {g}; only the literal 1 tail is valid")
        hf = evaluate(name, prev.generics[g].mask, memo)
        e = element_code_value(hf)
        if e is None or not 0 <= e < q.n:
            raise ProviderError(
                f"name does not denote a step-poset element under generic {g}: {hf!r}")
        all_top = all_top and e == q.top
        out.append((g, e))
    return TAIL_ONE if all_top else tuple(out)
