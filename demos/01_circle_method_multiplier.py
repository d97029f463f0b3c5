"""Walkthrough: the prime-average multiplier and its main-term approximation.

The scale-k average along a direction has the 1D symbol

    m_k(alpha) = sum_p e(-p alpha) 2^(-k) phi(2^(-k) p) log p.

Near a reduced fraction a/q the symbol looks like mu(q)/phi(q) times a smooth
profile; this script sweeps the sup-norm gap between m_k and the assembled
main term L_k, and prints the landmark values m_k(0) ~ 1 (prime number
theorem), m_k(1/2) = -m_k(0) (all weighted primes are odd), m_k(1/3) ~ -1/2.

Run:  python demos/01_circle_method_multiplier.py      (~1 s)
"""

from fractions import Fraction

from primedir import arith, multiplier

print("sieving primes to 2^21 ...")
table = arith.sieve_primes(2**21)

print("\nlandmark values at k = 20:")
for label, alpha, expect in [
    ("m_k(0)  ", Fraction(0), "~ +1   (PNT with unit-mass bump)"),
    ("m_k(1/2)", Fraction(1, 2), "~ -1   (odd primes: e(-p/2) = -1)"),
    ("m_k(1/3)", Fraction(1, 3), "~ -1/2 (mu(3)/phi(3))"),
    ("m_k(1/5)", Fraction(1, 5), "~ -1/4 (mu(5)/phi(5))"),
]:
    val = multiplier.m_k(20, alpha, table)
    print(f"  {label} = {val.real:+.5f}{val.imag:+.5f}i   {expect}")

print("\nmain-term agreement: L_k at the same fractions")
for alpha in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
    print(f"  L_20({alpha}) = {multiplier.L_k(20, alpha).real:+.5f}")

print("\nsup-grid error |m_k - L_k| as the scale grows (fraction-heavy grid):")
res = multiplier.error_profile([14, 16, 18, 20], D=17.0, grid_size=512, table=table)
for row in res.rows:
    print(f"  k={row.k}: sup|E_k| = {row.sup_abs_E:.5f}   (argmax alpha = {row.argmax_alpha:.4f})")

print("\narc classification at desk scale:")
for D, why in [(1.2, "no fraction with q <= 20^1.2 close enough"), (1.5, "Fibonacci")]:
    frac = multiplier.classify_arc(0.6180339887, 20, D)  # None on a minor arc
    arc = "minor" if frac is None else f"major via {frac}"
    print(f"  golden ratio at D={D}  -> {arc} ({why})")
print("  (at the error-bound exponent D = 17 the arc radius is >= 2 for every k from 2 to 115,")
print("   so every desk-scale frequency is major; minor arcs need the true regime)")
