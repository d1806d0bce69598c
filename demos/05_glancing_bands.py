"""Airy-zero glancing bands of the delta problem vs computed resonances.

For a delta potential of strength V0 (Re lambda)^(5/6) on the unit
circle, resonances of the near-glancing family should concentrate in
bands indexed by the Airy zeros.  The script computes the band
predictions and the actual single-mode resonances at several
frequencies.  The window above each mode holds its first four Airy
roots; counted up from the turning point in Re lambda, the k-th root
belongs to band k, and the script prints the measured-to-predicted
quotient of each.

The band is the delta1 -> 0 limit of the glancing expansion, with
delta1 = 2^(1/3) n^(-1/6) / V0.  At V0 = 1 this is 0.398, 0.342, 0.293
and 0.272 for n = 1000, 2500, 6300 and 9800, not yet small: the
quotients sit well below 1 and drift upward slowly, the O(n^(-1/6))
approach to the asymptotic band.
"""
from qsabine import DeltaPotential, glancing_bands, scan

M_BANDS = 4

print(f"glancing band predictions at h = 1/1000 (first {M_BANDS} Airy zeros):")
for b in glancing_bands(DeltaPotential(1.0, 5.0 / 6.0, 1e-3), M_BANDS):
    print(f"  j={b.j}: Im lambda = {b.im_lambda:+.6f}")

print("\nband quotients measured / predicted:")
print("    n   delta1  j   Re lambda    Im lambda    val/B")
for n in (1000, 2500, 6300, 9800):
    h = 1.0 / n
    law = DeltaPotential(1.0, 5.0 / 6.0, h)
    delta1 = 2.0 ** (1.0 / 3.0) * n ** (-1.0 / 6.0)
    res = scan(law, (n + 0.5, n + 5.5 * n ** (1.0 / 3.0)), -4.0, [n])
    bands = glancing_bands(law, M_BANDS)
    roots = sorted((r for r in res if 0.95 <= r.n / r.lam.real <= 1.0),
                   key=lambda r: r.lam.real)
    for b, r in zip(bands, roots):
        val = h ** (2.0 / 3.0) * (r.lam * h).imag / b.im_phi_j
        print(f"  {n:5d}  {delta1:.3f}  {b.j}  {r.lam.real:10.2f}  {r.lam.imag:+.4f}"
              f"  {val / b.scale:.4f}")
