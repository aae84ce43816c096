"""Transporting the whole computation through a quotient group.

Characters that are constant on a normal subgroup N are pullbacks from G/N,
and every symmetric/exterior multiplicity can then be computed in the
smaller group.  S4 with the Klein four-group V is the standard example:
S4/V is S3, and the two-dimensional character of S4 is the pullback of the
standard character of S3, so its entire power structure is the S3 one.
"""

from symext import (
    LambdaSequence,
    decompose,
    genfun_rational,
    get_group,
    quotient_pullback,
)
from symext.catalog import quotient_transfers

s4 = get_group("S4")
s3, class_map = quotient_transfers("S4")["V"]
qt = quotient_pullback(s4, s3, class_map)
print("class map S4 -> S3:", class_map)

pulled = qt.pulled_irreducibles()
for phi, chi_labels in zip(pulled, s3.labels):
    names = [s4.labels[j] for j, q in enumerate(decompose(phi, s4)) if q]
    print(f"  pullback of {chi_labels} is {names[0]}")

chi3 = s3.character("chi3")
chi5 = qt.pull(chi3)
assert chi5 == s4.character("chi5")

# multiplicities agree on both sides of the projection, degree by degree: the
# S4 row of S^i(chi5) is the S3 row of S^i(chi3) at the pulled-back
# irreducibles and 0 at every other irreducible of S4
seq_q = LambdaSequence.compute(chi3, 10, expect_character=True)
seq_g = LambdaSequence.compute(chi5, 10, expect_character=True)
at = [s4.irreducibles.index(phi) for phi in pulled]
print("\nS^i(chi5) decomposed over S4 vs S^i(chi3) over S3:")
for i in (2, 5, 8):
    over_g = [int(q) for q in decompose(seq_g.syms[i], s4)]
    over_q = [int(q) for q in decompose(seq_q.syms[i], s3)]
    assert [over_g[j] for j in at] == over_q
    assert all(over_g[j] == 0 for j in range(len(over_g)) if j not in at)
    print(f"  i={i}: over S4 {over_g}, over S3 {over_q}")

# consequently the generating functions coincide with the S3 ones
print("\nS_t generating functions of the pulled-back character:")
for j, lbl in [(0, "chi1"), (1, "chi2"), (4, "chi5")]:
    print(f"  <{lbl}, S_t(chi5)> over S4 =", genfun_rational(chi5, s4, j, "sym"))
