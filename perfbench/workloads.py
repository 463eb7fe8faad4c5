"""The benchmark's workloads: seeded inputs, the operations on them, and checks.

build(name, seed, size, tracer) makes one workload's inputs and returns its
fixed list of operations.  An operation is one user query: `body` makes the
calls into grcat (each through the tracer, so a traced run gets one span per
call) and returns what grcat answered; `check` compares that answer with the
benchmark's own computation in reference.py and returns None, or a one-line
reason when the answer is wrong.  Only `body` is timed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from grcat import braidings, cocycles, cohomology, complexes
from grcat.groups import Group
from grcat.roots import Root

import reference as ref


class Op:
    __slots__ = ("kind", "body", "check", "first")

    def __init__(self, kind, body, check):
        self.kind = kind
        self.body = body
        self.check = check
        self.first = False  # the first operation of its group's stream


# Groups and sample sizes.  "tiny" runs the same code paths on small groups
# and is what the benchmark's own tests use.
CENSUS = {
    # ladder: (orders, classes checked (all when |H^3| is at most this),
    #          braidable classes enumerated (None: all))
    "full": {"ladder": [((2, 2, 2), 128, None), ((4, 3), 12, None),
                        ((4, 4), 4, None), ((2, 2, 2, 2), 4, 1)],
             # (orders, None: candidate-grid oracle, k: full space over mu_k)
             "oracles": [((2, 2), None), ((4, 2), None), ((2, 2, 2), None), ((2,), 8)],
             "triples": 8, "quads": 8, "hexagons": 3},
    "tiny": {"ladder": [((2, 2), 4, 2), ((3,), 3, None)],
             "oracles": [((2, 2), None), ((2,), 4)],
             "triples": 4, "quads": 4, "hexagons": 2},
}
CLASSIFY = {
    # (orders, classify queries); plus `pairs` is_bar_coboundary checks per group
    "full": {"groups": [((2, 2), 2), ((4, 2), 16), ((3, 3), 4), ((2, 2, 2), 2)],
             "pairs": 1},
    "tiny": {"groups": [((2, 2), 2), ((3,), 2)], "pairs": 1},
}
COBOUNDARY12 = {
    # (orders, coboundaries of random 2-cochains, ratios of distinct classes)
    "full": {"groups": [((4, 3), 12, 2), ((6, 2), 12, 2)]},
    "tiny": {"groups": [((2, 2), 2, 1), ((3,), 2, 1)]},
}


def build(name, seed, size, tracer):
    """The workload's operations, one stream per group interleaved evenly.

    Spreading each stream over the whole round makes a median latency follow
    the whole run rather than one stretch of it, which matters on a shared
    host whose speed drifts over seconds.  The order is fixed, so the same
    operation is each group's first, cold call for every seed.
    """
    rnd = random.Random(f"{name}/{seed}")
    streams = WORKLOADS[name](rnd, size, tracer)
    for ops in streams:
        ops[0].first = True
    slots = sorted(((i + 0.5) / len(ops), k, i)
                   for k, ops in enumerate(streams) for i in range(len(ops)))
    return [streams[k][i] for _, k, i in slots]


def _params(G, a):
    return cocycles.CocycleParams(G, *a)


def _key(p):
    return (tuple(p.diag), tuple(p.pairs), tuple(p.triples))


def _roots(fracs):
    return [Root(f) for f in fracs]


def _roots_over(nums, den):
    """Roots num/den for an integer array, sharing one Root per residue."""
    table = [Root(Fraction(k, den)) for k in range(den)]
    return [table[k] for k in (nums % den).tolist()]


def _random_2cochain(rnd, orders, den):
    """Numerators over den of a normalized 2-cochain: random off the identity
    row and column, 0 on them."""
    N = math.prod(orders)
    B = np.zeros((N, N), dtype=np.int64)
    for p in range(1, N):
        for q in range(1, N):
            B[p, q] = rnd.randrange(den)
    return B


# ---- census ----------------------------------------------------------------

def census(rnd, size, tr):
    cfg = CENSUS[size]
    streams = []
    for orders, k_classes, k_braid in cfg["ladder"]:
        ops = []
        streams.append(ops)
        G = Group(orders)
        els = G.elements()
        N = len(els)
        classes = ref.all_params(orders)
        ops.append(_count_op(tr, G, classes))
        sample = classes if len(classes) <= k_classes else _spread_sample(rnd, classes,
                                                                          k_classes)
        for a in sample:
            triples = [tuple(rnd.randrange(N) for _ in range(3))
                       for _ in range(cfg["triples"])]
            quads = [tuple(rnd.randrange(N) for _ in range(4))
                     for _ in range(cfg["quads"])]
            ops.append(_class_op(tr, G, els, a, triples, quads))
        ops.append(_pullback_op(tr, G, rnd.choice(sample)))
        ops.append(_chain_map_op(tr, G))

        braidable = [a for a in classes if ref.braidable(orders, a)]
        chosen = list(braidable) if k_braid is None else rnd.sample(braidable, k_braid)
        chosen.append(rnd.choice([a for a in classes if not ref.braidable(orders, a)]))
        for a in chosen:
            ops.append(_enumerate_op(tr, G, a))

        a = rnd.choice(braidable)
        sizes = ref.grid_sizes(orders)
        for h in range(cfg["hexagons"] + 1):
            r = ref.braiding_from_grid(orders, a, [rnd.randrange(s) for s in sizes])
            genuine = h < cfg["hexagons"]
            if not genuine:
                # an entry moved off its solution grid: no longer a braiding
                j = 1 if len(orders) > 1 else 0
                r[0][j] += Fraction(1, 2 * orders[0] * orders[j])
            triples = [tuple(els[rnd.randrange(N)] for _ in range(3))
                       for _ in range(cfg["triples"])]
            ops.append(_hexagon_op(tr, G, a, r, genuine, triples))

    ops = []
    streams.append(ops)
    for orders, values_order in cfg["oracles"]:
        braidable = [a for a in ref.all_params(orders) if ref.braidable(orders, a)]
        ops.append(_oracle_op(tr, Group(orders), rnd.choice(braidable), values_order))
    return streams


def _spread_sample(rnd, classes, k):
    """One class from each of k equal strata of the classes ordered by whether a
    triple exponent is set, then by how many exponents are nonzero: the cost of
    building and checking a table follows these, so the sample's cost does not
    depend on the seed."""
    ranked = sorted(classes, key=lambda a: (any(a[2]), sum(map(bool, sum(a, ()))),
                                            rnd.random()))
    return [ranked[rnd.randrange(s * len(ranked) // k, (s + 1) * len(ranked) // k)]
            for s in range(k)]


def _count_op(tr, G, classes):
    def body():
        return tr.call("cocycles.enumerate_params", cocycles.enumerate_params, G,
                       group=G.orders)

    def check(out):
        want = ref.class_count(G.orders)
        if len(out) != want:
            return f"{len(out)} classes on {G.orders}, the gcd product gives {want}"
        if {_key(p) for p in out} != set(classes):
            return f"parameter set on {G.orders} differs from the index ranges"
        return None
    return Op("census.count", body, check)


def _json_round_trip(t):
    return cocycles.table_from_json(cocycles.table_to_json(t))


def _class_op(tr, G, els, a, triples, quads):
    orders = G.orders
    P = _params(G, a)
    N = len(els)
    g = orders

    def body():
        t = tr.call("cocycles.build_table", cocycles.build_table, P, work=N ** 3, group=g)
        pent = tr.call("cocycles.verify_pentagon", cocycles.verify_pentagon, t,
                       work=N ** 4, group=g)
        norm = tr.call("cocycles.verify_normalized", cocycles.verify_normalized, t, group=g)
        sym = tr.call("cocycles.verify_symmetry_last_two",
                      cocycles.verify_symmetry_last_two, t, group=g)
        back = tr.call("cocycles.table_json", _json_round_trip, t, group=g)
        evals = [tr.call("cocycles.eval_cocycle", cocycles.eval_cocycle, P,
                         els[x], els[y], els[z], group=g) for x, y, z in triples]
        return t, pent, norm, sym, back, evals

    def check(out):
        t, pent, norm, sym, back, evals = out
        W, L = ref.cocycle_numerators(orders, a)
        got = ref.numerators(t.values, L)
        if got is None or len(got) != N ** 3 or (got != W.reshape(-1)).any():
            return f"table of {a} on {orders} differs from the closed form"
        if pent is not None:
            return f"pentagon reported failing for {a} at {pent}"
        bad = ref.pentagon_fails(got, ref.mul_index(orders), L, quads)
        if bad is not None:
            return f"pentagon fails for {a} at element indices {bad}"
        if norm is not None:
            return f"normalization reported failing for {a} at {norm}"
        if (sym is not None) != any(a[2]):
            return f"symmetry verdict {sym} for {a}, triple exponents {a[2]}"
        if sym is not None:
            x, y, z = (ref.index(orders, e.exps) for e in sym)
            if W[x, y, z] == W[x, z, y]:
                return f"symmetry witness {sym} for {a} is symmetric"
        if back != t:
            return f"JSON round trip changed the table of {a}"
        for (x, y, z), v in zip(triples, evals):
            if v.exponent != Fraction(int(W[x, y, z]), L):
                return f"eval_cocycle{(x, y, z)} = {v} for {a}, closed form differs"
        return None
    return Op("census.class", body, check)


def _pullback_op(tr, G, a):
    P = _params(G, a)
    g = G.orders

    def body():
        f = tr.call("cohomology.representative_cochain", cohomology.representative_cochain,
                    P, group=g)
        return tr.call("complexes.pullback_3cochain", complexes.pullback_3cochain, f, G,
                       group=g)

    def check(t):
        W, L = ref.cocycle_numerators(g, a)
        got = ref.numerators(t.values, L)
        if got is None or (got != W.reshape(-1)).any():
            return f"pullback of the representative of {a} is not the canonical table"
        return None
    return Op("census.pullback", body, check)


def _chain_map_op(tr, G):
    def body():
        return tr.call("complexes.verify_chain_map", complexes.verify_chain_map, G,
                       group=G.orders)

    def check(out):
        if out != {1: None, 2: None, 3: None}:
            return f"chain map fails to commute on {G.orders}: {out}"
        return None
    return Op("census.chain_map", body, check)


def _matrix(qb):
    return tuple(tuple(v.exponent for v in row) for row in qb.r)


def _enumerate_op(tr, G, a):
    P = _params(G, a)

    def body():
        return tr.call("braidings.enumerate_braidings", braidings.enumerate_braidings, P,
                       work=ref.braiding_count(G.orders, a), group=G.orders)

    def check(found):
        reason = ref.braiding_set_reason(G.orders, a, (_matrix(R) for R in found))
        return None if reason is None else f"braidings of {a} on {G.orders}: {reason}"
    return Op("census.enumerate", body, check)


def _hexagon_op(tr, G, a, r, genuine, triples):
    orders = G.orders
    P = _params(G, a)
    R = braidings.QuasiBicharacter(G, tuple(tuple(Root(v) for v in row) for row in r))
    W, L = ref.cocycle_numerators(orders, a)

    def body():
        return tr.call("braidings.verify_hexagons", braidings.verify_hexagons, P, R,
                       group=orders)

    def check(v):
        own = [t for t in triples
               if ref.hexagons_failing(orders, W, L, r, *(e.exps for e in t))]
        if genuine:
            if v is not None:
                return f"verify_hexagons rejects the braiding {r} of {a} at {v}"
            if own:
                return f"hexagons fail at {own[0]} for {r}, verify_hexagons holds"
            return None
        if v is None:
            return f"verify_hexagons accepts {r}, which is off the solution grid of {a}"
        x, y, z, which = v
        if which not in ref.hexagons_failing(orders, W, L, r, x.exps, y.exps, z.exps):
            return f"verify_hexagons witness {v} for {r} does not fail"
        return None
    return Op("census.hexagons", body, check)


def _oracle_op(tr, G, a, values_order):
    orders = G.orders
    P = _params(G, a)
    els = [e.exps for e in G.elements()]

    def body():
        if values_order is None:
            found = tr.call("braidings.brute_force_braidings",
                            braidings.brute_force_braidings, P,
                            work=math.prod(m * k for m in orders for k in orders),
                            group=orders)
        else:
            found = tr.call("braidings.brute_force_full_function_space",
                            braidings.brute_force_full_function_space, P, values_order,
                            work=values_order ** ((len(els) - 1) ** 2), group=orders)
        listed = tr.call("braidings.enumerate_braidings", braidings.enumerate_braidings,
                         P, work=ref.braiding_count(orders, a), group=orders)
        return found, listed

    def check(out):
        found, listed = out
        matrices = [_matrix(R) for R in listed]
        reason = ref.braiding_set_reason(orders, a, matrices)
        if reason is not None:
            return f"braidings of {a} on {orders}: {reason}"
        if values_order is None:
            got = [ref.braiding_coords(orders, a, _matrix(R)) for R in found]
            want = {ref.braiding_coords(orders, a, r) for r in matrices}
        else:
            G_els = G.elements()
            got = [tuple(f[(x, y)].exponent for x in G_els for y in G_els) for f in found]
            want = {tuple(ref.pair_value(r, x, y) for x in els for y in els)
                    for r in matrices}
        if len(got) != len(set(got)) or set(got) != want:
            return (f"oracle on {orders} finds {len(got)} braidings of {a}, "
                    f"enumeration {len(want)}, and the sets differ")
        return None
    return Op("census.oracle", body, check)


# ---- classify --------------------------------------------------------------

def classify(rnd, size, tr):
    cfg = CLASSIFY[size]
    streams = []
    for orders, k in cfg["groups"]:
        ops = []
        streams.append(ops)
        G = Group(orders)
        classes = ref.all_params(orders)
        L = math.lcm(*orders)
        # Fixed quantiles of the parameter order: today's classify scans that
        # order, so its cost grows with the position; the seed draws the twists.
        for s in range(k):
            a = classes[(2 * s + 1) * len(classes) // (2 * k)]
            if s % 2 == 0:
                W, _ = ref.cocycle_numerators(orders, a)
                db = ref.bar_coboundary(orders, _random_2cochain(rnd, orders, 2 * L))
                t = cocycles.CocycleTable(G, _roots_over(2 * W.reshape(-1) + db, 2 * L))
                ops.append(_classify_table_op(tr, t, a))
            else:
                w = [Fraction(rnd.randrange(2 * L), 2 * L)
                     for _ in range(math.comb(len(orders), 2))]
                f = ref.add_cochains(ref.representative(orders, a),
                                     ref.tensor_coboundary(orders, w))
                ops.append(_classify_cochain_op(tr, G, f, a))
        for _ in range(cfg["pairs"]):
            a, b = rnd.sample(classes, 2)
            ops.append(_ratio_op(tr, G, a, b, "classify.ratio"))
    return streams


def _classify_table_op(tr, t, a):
    def body():
        return tr.call("cohomology.classify", cohomology.classify, t, group=t.group.orders)

    def check(p):
        return None if _key(p) == a else f"classify gives {_key(p)}, input class {a}"
    return Op("classify.table", body, check)


def _classify_cochain_op(tr, G, f, a):
    g = G.orders
    cochain = cohomology.TensorCochain3(G, *(tuple(_roots(part)) for part in f))

    def body():
        t = tr.call("complexes.pullback_3cochain", complexes.pullback_3cochain, cochain, G,
                    group=g)
        p = tr.call("cohomology.classify", cohomology.classify, t, group=g)
        normal = tr.call("cohomology.reduce_to_normal_form",
                         cohomology.reduce_to_normal_form, cochain, group=g)
        return p, normal

    def check(out):
        p, (q, witness) = out
        if _key(p) != a:
            return f"classify gives {_key(p)}, input class {a}"
        if _key(q) != a:
            return f"reduce_to_normal_form gives {_key(q)}, input class {a}"
        w = [v.exponent for v in witness.pairs]
        if ref.add_cochains(ref.representative(g, a), ref.tensor_coboundary(g, w)) != f:
            return f"normal-form witness {w} does not reproduce the cochain of {a}"
        return None
    return Op("classify.cochain", body, check)


def _ratio_op(tr, G, a, b, kind):
    Wa, L = ref.cocycle_numerators(G.orders, a)
    Wb, _ = ref.cocycle_numerators(G.orders, b)
    t = cocycles.CocycleTable(G, _roots_over((Wa - Wb).reshape(-1), L))

    def body():
        return tr.call("cohomology.is_bar_coboundary", cohomology.is_bar_coboundary, t,
                       group=G.orders)

    def check(w):
        return None if w is None else f"classes {a} and {b} reported cohomologous"
    return Op(kind, body, check)


# ---- coboundary12 ----------------------------------------------------------

def coboundary12(rnd, size, tr):
    streams = []
    for orders, n_cob, n_ratio in COBOUNDARY12[size]["groups"]:
        ops = []
        streams.append(ops)
        G = Group(orders)
        L = math.lcm(*orders)
        for _ in range(n_cob):
            db = ref.bar_coboundary(orders, _random_2cochain(rnd, orders, 2 * L)) % (2 * L)
            ops.append(_coboundary_op(tr, G, db, 2 * L))
        classes = ref.all_params(orders)
        for _ in range(n_ratio):
            a, b = rnd.sample(classes, 2)
            ops.append(_ratio_op(tr, G, a, b, "coboundary12.ratio"))
    return streams


def _coboundary_op(tr, G, db, den):
    """db: the input's numerators over den, reduced."""
    orders = G.orders
    t = cocycles.CocycleTable(G, _roots_over(db, den))
    N = G.order

    def body():
        w = tr.call("cohomology.is_bar_coboundary", cohomology.is_bar_coboundary, t,
                    group=orders)
        if w is None:
            return None, None
        return w, tr.call("cohomology.bar_coboundary_table",
                          cohomology.bar_coboundary_table, G, w, group=orders)

    def check(out):
        w, table = out
        if w is None:
            return f"a coboundary on {orders} reported as not one"
        if len(w) != N * N:
            return f"the witness on {orders} has {len(w)} values, not {N * N}"
        common = math.lcm(den, *(v.exponent.denominator for v in w.values()))
        B = np.zeros((N, N), dtype=object)
        for (p, q), v in w.items():
            B[ref.index(orders, p.exps), ref.index(orders, q.exps)] = \
                v.exponent.numerator * (common // v.exponent.denominator)
        want = db.astype(object) * (common // den)
        if ((ref.bar_coboundary(orders, B) - want) % common).any():
            return f"the witness on {orders} does not reproduce the input table"
        got = ref.numerators(table.values, den)
        if got is None or (got != db).any():
            return f"bar_coboundary_table of the witness on {orders} differs from the input"
        return None
    return Op("coboundary12.coboundary", body, check)


WORKLOADS = {"census": census, "classify": classify, "coboundary12": coboundary12}
