"""
Enumerating exceptional classes
===============================

"""

# The exceptional classes (square -1, canonical pairing -1, spherical)
# form finite sets up to n=8; their sizes are the classical counts of
# lines on del Pezzo surfaces.
from latwist import LatticeModel, enumerate_exceptional, parse_form, print_class

for n in range(1, 9):
    es = enumerate_exceptional(LatticeModel.rational(n))
    print(f"n={n}: {len(es):3d} exceptional classes")

# The n=3 set is small enough to list.
for x in enumerate_exceptional(LatticeModel.rational(3)):
    print("  ", print_class(x))

# Other canonical classes of the same shape are handled by conjugating
# the sign pattern: here K flips the sign of E1.
model = LatticeModel.rational(2)
k_delta = parse_form("-3H-E1+E2", model)
print("K_delta variant:")
for x in enumerate_exceptional(model, K=k_delta):
    print("  ", print_class(x))

# In the ruled model the answer is a closed form: E_i and F-E_i.
ruled = LatticeModel.ruled(2, 3)
print("ruled h=2 n=3:")
for x in enumerate_exceptional(ruled):
    print("  ", print_class(x))

# Beyond n=8 the sets are infinite; enumeration needs an explicit
# degree bound and says so in the result.  Not every class of square -1
# and canonical pairing -1 is exceptional there (K_0 itself at n=10), but
# the listing never meets one: it walks the twist orbit of E_n upward,
# raising the H-coefficient up to the bound, so it holds only images of E_n.
model10 = LatticeModel.rational(10)
es = enumerate_exceptional(model10, degree_bound=3)
print(f"n=10, degree <= 3: {len(es)} classes, complete={es.complete}")
print("K_0 listed:", model10.k0() in es)
