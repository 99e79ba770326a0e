"""Three-leg tensor actions, for exercising coproduct coassociativity.

The library works with two-leg tensors (that is all the filtration needs);
these helpers bootstrap a third leg on top of ``tensor_act``/``leg_apply``
so the tests can compare (Delta x 1)Delta against (1 x Delta)Delta on
honest module elements.  A triple vector uses the library's block format one
leg up: a dict mapping a 3-tuple of weight blocks to a dense
dim_u x dim_v x dim_w nested list, with all-zero blocks dropped.
"""

import itertools

from weylpbw import tensor_act
from weylpbw.weylmod import HyperMonomial


def _shape(block):
    return len(block), len(block[0]), len(block[0][0])


def _zeros(shape):
    a, b, c = shape
    return [[[0] * c for _ in range(b)] for _ in range(a)]


def _at(block, idx):
    a, b, c = idx
    return block[a][b][c]


def _nonzero(block):
    return any(any(map(any, plane)) for plane in block)


def triple_of(u, v, w):
    out = {}
    for tu, cu in u.items():
        for tv, cv in v.items():
            for tw, cw in w.items():
                block = [[[x * y * z for z in cw] for y in cv] for x in cu]
                if _nonzero(block):
                    out[(tu, tv, tw)] = block
    return out


def clean(out, reduce):
    out = {key: [[[reduce(v) for v in row] for row in plane] for plane in block]
           for key, block in out.items()}
    return {key: block for key, block in out.items() if _nonzero(block)}


def act_leg3(mod, leg, side, pos, k, triple):
    """X^(k) on one leg of a triple tensor, fiber by fiber through ``leg_apply``."""
    if k == 0:
        return triple
    out = {}
    for key, block in triple.items():
        shape = _shape(block)
        rest = [range(n) for i, n in enumerate(shape) if i != leg]
        for other in itertools.product(*rest):
            def place(r):
                return other[:leg] + (r,) + other[leg:]
            fiber = [_at(block, place(r)) for r in range(shape[leg])]
            res = mod.leg_apply(side, pos, k, key[leg], fiber)
            if res is None:
                continue
            tgt, new = res
            nkey = key[:leg] + (tgt,) + key[leg + 1:]
            if nkey not in out:
                out[nkey] = _zeros(shape[:leg] + (len(new),) + shape[leg + 1:])
            for r, val in enumerate(new):
                a, b, c = place(r)
                out[nkey][a][b][c] += val
    return clean(out, mod.reduce)


def act_pair3(mods3, legs, mono, triple):
    """Delta(mono) on two adjacent legs of a triple, through tensor_act."""
    other = 3 - legs[0] - legs[1]

    def place(o, i, j):
        return (i, j, o) if other == 2 else (o, i, j)

    pair = (mods3[legs[0]], mods3[legs[1]])
    slices = {}
    for key, block in triple.items():
        shape = _shape(block)
        for ro in range(shape[other]):
            mat = [[_at(block, place(ro, i, j)) for j in range(shape[legs[1]])]
                   for i in range(shape[legs[0]])]
            if any(map(any, mat)):
                slices.setdefault((key[other], ro, shape[other]), {})[
                    (key[legs[0]], key[legs[1]])] = mat
    out = {}
    for (to, ro, dim_o), tvec in slices.items():
        for (ta, tb), mat in tensor_act(pair, mono, tvec).items():
            nkey = place(to, ta, tb)
            if nkey not in out:
                out[nkey] = _zeros(place(dim_o, len(mat), len(mat[0])))
            for i, row in enumerate(mat):
                for j, val in enumerate(row):
                    a, b, c = place(ro, i, j)
                    out[nkey][a][b][c] += val
    return clean(out, mods3[0].reduce)


def add3(acc, term):
    for key, block in term.items():
        prev = acc.get(key)
        acc[key] = block if prev is None else [
            [[x + y for x, y in zip(r, s)] for r, s in zip(pp, bp)]
            for pp, bp in zip(prev, block)]
    return acc


def iterated_coproduct(mods3, side, pos, k, triple, nest):
    """(Delta x 1)Delta for nest='left', (1 x Delta)Delta for nest='right'."""
    acc = {}
    for outer in range(k + 1):
        inner = k - outer
        n_pos = mods3[0].system.n_pos
        mono = HyperMonomial(side, tuple(inner if i == pos else 0 for i in range(n_pos)))
        if nest == "left":
            term = act_leg3(mods3[2], 2, side, pos, outer, triple)
            term = act_pair3(mods3, (0, 1), mono, term)
        else:
            term = act_leg3(mods3[0], 0, side, pos, outer, triple)
            term = act_pair3(mods3, (1, 2), mono, term)
        add3(acc, term)
    return clean(acc, mods3[0].reduce)
