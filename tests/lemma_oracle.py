"""The direct forms of the lemma suite's per-level kernels, kept as their
oracles.

:func:`frown_table` canonicalizes every s-frown-p from stage 0, and
:func:`prefix_groups` groups a table's rows one by one.  L5 and
L10 compare every ordered pair of defined conditions.  L11, L13 and L14
walk every ordered pair of P_beta conditions with one alpha-prefix and
recompute the premise from the sibling levels, exactly as the lemmas state
it.  L12's oracle is the library's own element loop,
:func:`forcinglab.projection._lemma12_by_elements`, which the library
keeps for maps that are not homomorphisms.
"""

import itertools

from forcinglab.iteration import (TAIL_ONE, ProviderError,
                                  canonicalize_condition)
from forcinglab.poset import _mask_bits, regularize


def frown_table(ctx, beta):
    """Per P_beta condition p: (index of its alpha-prefix in P_alpha,
    {s: P_beta index of s-frown-p or None} for each s below that prefix),
    each s-frown-p found by canonicalizing the prefix s followed by p's
    tails."""
    stages = ctx.iteration.stages
    alpha = ctx.alpha
    astage, src = stages[alpha], stages[beta]
    # alpha-prefixes: the parent rows composed from beta down to alpha + 1
    prefixes = src.parent
    for k in range(beta - 1, alpha, -1):
        prefixes = [stages[k].parent[i] for i in prefixes]
    table = []
    for cond, prefix in zip(src.conditions, prefixes):
        suffix = list(cond[alpha:])
        row = {}
        for s in _mask_bits(astage.poset.below[prefix]):
            s_cond = astage.conditions[s]
            raw = list(s_cond) + [TAIL_ONE] * (alpha - len(s_cond)) + suffix
            try:
                row[s] = src._index.get(
                    canonicalize_condition(raw, ctx.iteration, beta))
            except (KeyError, ProviderError):
                row[s] = None
        table.append((prefix, row))
    return table


def prefix_groups(table):
    """The table's rows grouped by alpha-prefix r, row by row: (the
    conditions with prefix r as a bitmask, {s: {s-frown image: bitmask}}),
    a condition with an undefined s-frown in no class at s.  The oracle
    for the groups the lemma suite's pass extends, and the grouping of a
    corrupted table in the negative controls."""
    groups = {}
    for ci, (r, row) in enumerate(table):
        members, classes = groups.get(r, (0, {}))
        for s, si in row.items():
            if si is not None:
                at_s = classes.setdefault(s, {})
                at_s[si] = at_s.get(si, 0) | 1 << ci
        groups[r] = (members | 1 << ci, classes)
    return groups


def _defined(level):
    return [ci for ci, q in enumerate(level.pi) if q is not None]


def lemma5(src, level):
    """Pairs of defined conditions with disjoint principal cuts whose
    projections' cuts meet, as (ok, {"violations": first four, "count"})."""
    qposet = level.stage.poset
    defined = _defined(level)
    bad = []
    for ci in defined:
        for cj in defined:
            if src.poset.below[ci] & src.poset.below[cj]:
                continue
            if qposet.below[level.pi[ci]] & qposet.below[level.pi[cj]]:
                bad.append((src.poset.labels[ci], src.poset.labels[cj]))
    return not bad, {"violations": bad[:4], "count": len(bad)}


def lemma10(src, level):
    """Pairs ci <= cj of defined conditions with pi(ci) not below pi(cj)."""
    qposet = level.stage.poset
    defined = _defined(level)
    bad = []
    for ci in defined:
        for cj in defined:
            if src.poset.leq(ci, cj) and \
                    not qposet.leq(level.pi[ci], level.pi[cj]):
                bad.append((src.poset.labels[ci], src.poset.labels[cj]))
    return not bad, {"violations": bad[:4], "count": len(bad)}


def same_prefix_pairs(table):
    """Ordered pairs (ci, cj, prefix, row_i, row_j) of P_beta conditions
    with one alpha-prefix, in product order."""
    for (ci, (pre_i, row_i)), (cj, (pre_j, row_j)) in itertools.product(
            enumerate(table), repeat=2):
        if pre_i == pre_j:
            yield ci, cj, pre_i, row_i, row_j


def lemma11(ctx, beta, table, siblings):
    """r in G with forced-equal projected tails: some s in G below r glues
    the two conditions into literal equality."""
    G = ctx.G
    astage = ctx.iteration.stages[ctx.alpha]
    labels = ctx.iteration.stages[beta].poset.labels
    checked = 0
    for ci, cj, r, row_i, row_j in same_prefix_pairs(table):
        if r not in G:
            continue
        # premise: r forces equal projections, i.e. in every sibling context
        # whose generic contains r the two images agree
        if any(r in gen2 and lvl2.pi[ci] != lvl2.pi[cj]
               for gen2, lvl2 in zip(astage.generics, siblings)):
            continue
        checked += 1
        if not any(row_i.get(s) is not None and row_i.get(s) == row_j.get(s)
                   for s in _mask_bits(G.mask & astage.poset.below[r])):
            return False, {"pair": (labels[ci], labels[cj])}
    return True, {"pairs": checked}


def lemma13(ctx, table):
    """U_{p1,p2} = {s : s-frown-p1 == s-frown-p2} is a regular cut of P_alpha."""
    aposet = ctx.iteration.stages[ctx.alpha].poset
    checked = 0
    for ci, cj, _, row_i, row_j in same_prefix_pairs(table):
        mask = 0
        for s, si in row_i.items():
            if si is not None and si == row_j.get(s):
                mask |= 1 << s
        checked += 1
        if not aposet.is_downward_closed(mask) or \
                regularize(mask, aposet) != mask:
            return False, {"pair": (ci, cj), "cut": f"{mask:#x}"}
    return True, {"pairs": checked}


def lemma14(ctx, beta, table, siblings):
    """If r <= p and every generic containing r projects tail p1 below tail
    q1, then r-frown-p1 <= r-frown-q1 already in P_beta."""
    astage = ctx.iteration.stages[ctx.alpha]
    src = ctx.iteration.stages[beta]
    checked = 0
    for ci, cj, _, row_i, row_j in same_prefix_pairs(table):
        for r, ri in row_i.items():
            rj = row_j.get(r)
            if ri is None or rj is None:
                continue
            premise = True
            for gen2, lvl2 in zip(astage.generics, siblings):
                if r not in gen2:
                    continue
                ii, jj = lvl2.pi[ri], lvl2.pi[rj]
                if ii is None or jj is None or \
                        not lvl2.stage.poset.leq(ii, jj):
                    premise = False
                    break
            if not premise:
                continue
            checked += 1
            if not src.poset.leq(ri, rj):
                return False, {"r": astage.poset.labels[r],
                               "pair": (src.poset.labels[ci], src.poset.labels[cj])}
    return True, {"checks": checked}
