"""
Symplectic cone membership
==========================

"""

# A form lies in the symplectic cone when its square is positive and
# it pairs positively with every exceptional class.  The test either
# certifies membership or names a violated class.
from latwist import LatticeModel, in_cone, parse_form, print_class

model = LatticeModel.rational(6)
tau = parse_form("3H-E1-E2-E3-E4-E5-E6", model)
res = in_cone(tau)
print("3H-E1-...-E6:", res.verdict)

# A failing form comes with a witness.
model1 = LatticeModel.rational(1)
res = in_cone(parse_form("H", model1))
print("H at n=1:", res.verdict, "witness:", print_class(res.witness))

model3 = LatticeModel.rational(3)
res = in_cone(parse_form("3H-E1-E2-2E3", model3))
print("boundary form:", res.verdict, "witness:", print_class(res.witness))

# The test reduces the form itself by Cremona moves, so it is exact for
# every n, although the exceptional set is infinite from n=9 on.
model9 = LatticeModel.rational(9)
tau9 = parse_form("4H-E1-E2-E3-E4-E5-E6-E7-E8-E9", model9)
print("n=9 reduced form:", in_cone(tau9).verdict)

# Ten equal balls of capacity 3/10 < 1/sqrt(10) embed in the unit ball.
model10 = LatticeModel.rational(10)
tau10 = parse_form("10H-" + "-".join(f"3E{i}" for i in range(1, 11)), model10)
print("n=10, ten balls of capacity 3/10:", in_cone(tau10).verdict)

# A No beyond n=8 still names an exceptional class of nonpositive area.
res = in_cone(parse_form("7H-3E1-2E2-3E3-3E4-3E5-E6-E7-E8-E9", model9))
print("n=9 failing form:", res.verdict, "witness:", print_class(res.witness))

# Ruled verdicts carry a caveat: the conditions checked are the
# stated per-model ones.
ruled = LatticeModel.ruled(1, 2)
res = in_cone(parse_form("2T+3F-E1-E2", ruled))
print("ruled form:", res.verdict, "note:", res.note)
