"""Reflectivity models and the Sabine bands they generate on the disk.

The Sabine quotient averages c log|R| over a billiard orbit and divides
by twice the mean chord time; extremizing it over phase space yields a
band that should trap the resonances of the corresponding disk problem.
Brewster zeros of the transparent model puncture the lower bound.
"""
import numpy as np

from qsabine import (
    BoundaryDamping,
    ConvexDomain,
    DeltaPotential,
    TransparentObstacle,
    brewster,
    reflect,
    sabine_bounds,
)

disk = ConvexDomain.disk()

print("reflection coefficient magnitude |R(xi)|:")
print("  xi      transparent(2,1)  transparent(2,0.4)  damping(a=2)")
for xi in (0.0, 0.3, 0.654653670708, 0.9):
    r1 = abs(reflect(TransparentObstacle(2.0, 1.0), xi))
    r2 = abs(reflect(TransparentObstacle(2.0, 0.4), xi))
    r3 = abs(reflect(BoundaryDamping(2.0), xi))
    print(f"  {xi:.3f}   {r1:16.6f}  {r2:18.6f}  {r3:12.6f}")

xi_b = brewster(TransparentObstacle(2.0, 0.4))
print(f"\nbrewster zero of transparent(2, 0.4): xi_B = {xi_b:.12f}")
print(f"(transparent(2, 1) has none: {brewster(TransparentObstacle(2.0, 1.0))})")

print("\nsabine bands (Im lambda ranges predicted for disk resonances):")
for label, model in (
    ("transparent c=2, alpha=1  ", TransparentObstacle(2.0, 1.0)),
    ("transparent c=2, alpha=0.4", TransparentObstacle(2.0, 0.4)),
    ("damping a=2               ", BoundaryDamping(2.0)),
    ("delta V0=1, h=1/250       ", DeltaPotential(1.0, 5.0 / 6.0, 1.0 / 250.0)),
):
    band = sabine_bounds(disk, model)
    lower = "-inf" if not np.isfinite(band.lower) else f"{band.lower:+.6f}"
    flag = " (brewster window excluded)" if band.brewster_excluded else ""
    print(f"  {label}: [{lower}, {band.upper:+.6f}]{flag}")
