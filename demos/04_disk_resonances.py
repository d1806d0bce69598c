"""Exact disk resonances vs the Sabine band, on a small window.

Scans modes 0..40 of the transparent disk (c=2, alpha=1) over
Re lambda in [200, 230] and compares every imaginary part against the
extremized band.  The one-bounce decay curve explains the low-angle
cloud: resonances of mode n sit near the quotient of the orbit with
tangential momentum c n / Re lambda.
"""
import sys

import numpy as np

from qsabine import (
    ConvexDomain,
    TransparentObstacle,
    one_bounce_quotients,
    sabine_bounds,
    scan,
    write_resonance_csv,
)

law = TransparentObstacle(2.0, 1.0)
disk = ConvexDomain.disk()

res = scan(law, (200.0, 230.0), -3.0, range(0, 41))
band = sabine_bounds(disk, law)
print(f"{len(res)} resonances in [200, 230] x [-3, 0), modes 0..40")
print(f"sabine band: [{band.lower:+.6f}, {band.upper:+.6f}]")

im = np.array([r.lam.imag for r in res])
inside = np.mean((im >= band.lower - 0.05) & (im <= band.upper + 0.05))
print(f"within band +-0.05: {100 * inside:.1f}%")

print("\n  n   Re lambda     Im lambda     one-bounce prediction")
preds = one_bounce_quotients(law, [r.n / r.lam.real for r in res[:10]])
for r, pred in zip(res[:10], preds):
    print(f"  {r.n:3d}  {r.lam.real:10.4f}  {r.lam.imag:+.8f}   {pred:+.8f}")

write_resonance_csv(res, sys.stdout if "--dump" in sys.argv else open("/dev/null", "w"))
print("\n(rerun with --dump to print the full CSV table)")
