"""Sabine-law resonance bands and exact unit-disk scattering resonances.

The package computes acoustic-style decay bands for quantum scattering
resonances: billiard-averaged reflectivity bounds (the Sabine band) and
Airy-zero glancing bands, checked against resonances of the unit disk
computed from exact secular functions for three transmission problems.

The curated surface below covers the standard workflow: build a
reflectivity model and a disk problem, extremize the Sabine quotient,
scan a frequency window for resonances, and compare.  Everything else
stays importable from the submodules.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .billiards import (
    ConvexDomain,
    GlancingError,
    OrbitSegment,
    PhasePoint,
    billiard_step,
    glancing_expansion_check,
    mean_chord,
    orbit,
)
from .reflectivity import (
    BoundaryDamping,
    DeltaPotential,
    TransparentObstacle,
    brewster,
    log_reflectivity,
    reflect,
)
from .sabine import (
    GlancingBand,
    SabineBand,
    band_report,
    glancing_bands,
    one_bounce_quotients,
    sabine_bounds,
    sabine_quotient,
)
from .disk import (
    DampingDisk,
    DeltaDisk,
    IncompleteScanWarning,
    NoConvergenceError,
    Resonance,
    TransparentDisk,
    scan,
    secular,
    write_resonance_csv,
)
from .specfun import airy, airy_minus, airy_zeros, bessel_quad, friedlander_symbols

__all__ = [
    "__version__",
    "ConvexDomain",
    "GlancingError",
    "OrbitSegment",
    "PhasePoint",
    "billiard_step",
    "glancing_expansion_check",
    "mean_chord",
    "orbit",
    "BoundaryDamping",
    "DeltaPotential",
    "TransparentObstacle",
    "brewster",
    "log_reflectivity",
    "reflect",
    "GlancingBand",
    "SabineBand",
    "band_report",
    "glancing_bands",
    "one_bounce_quotients",
    "sabine_bounds",
    "sabine_quotient",
    "DampingDisk",
    "DeltaDisk",
    "IncompleteScanWarning",
    "NoConvergenceError",
    "Resonance",
    "TransparentDisk",
    "scan",
    "secular",
    "write_resonance_csv",
    "airy",
    "airy_minus",
    "airy_zeros",
    "bessel_quad",
    "friedlander_symbols",
]
