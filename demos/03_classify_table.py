"""Recover the cohomology class of a cocycle table, two ways.

Bar side: classify() checks that the table is a normalized cocycle, pulls
it back through the comparison map psi_3 to the small complex and reads the
class off there; is_bar_coboundary() confirms the answer by solving for a
2-cochain on G x G whose coboundary is the ratio against the canonical table.
Tensor side: reduce_to_normal_form() reads the class directly off the
values on the small complex, producing an explicit coboundary witness.
"""

import random

from grcat import (CocycleParams, CoboundaryWitness2, Group,
                   bar_coboundary_table, build_table, classify,
                   is_bar_coboundary, reduce_to_normal_form,
                   representative_cochain, tensor_coboundary)
from grcat.roots import Root

rng = random.Random(7)
group = Group((2, 2))
a = CocycleParams(group, (1, 0), (1,), ())
table = build_table(a)

# hide the class behind a random coboundary shift
b = {}
for x in group.elements():
    for y in group.elements():
        trivial = x.is_identity() or y.is_identity()
        b[(x, y)] = Root.one() if trivial else Root.of(rng.randrange(8), 8)
shifted = table * bar_coboundary_table(group, b)
changed = sum(1 for u, v in zip(table.values, shifted.values) if u != v)
print(f"shifted table differs from the canonical one in {changed} cells")

recovered = classify(shifted)
print("classify recovers:", recovered.diag, recovered.pairs)
assert recovered == a
assert is_bar_coboundary(shifted / build_table(recovered)) is not None

# tensor side: perturb the small-complex representative instead
w = CoboundaryWitness2(group, (Root.of(3, 4),))
f = representative_cochain(a) * tensor_coboundary(w)
back, witness = reduce_to_normal_form(f)
print("reduce_to_normal_form recovers:", back.diag, back.pairs)
print("witness g_12 =", witness.value(0, 1))
assert back == a
assert representative_cochain(back) * tensor_coboundary(witness) == f
