"""Exact peg-board calculus for immersed curves of knot complements.

Layers:

* geometry: exact rational points, segments and windings
* curves: diagrams, validity, extrema census, tau/epsilon, the knot zoo
* pairing: minimal intersection counts with filling lines and graded arcs
* differentials: first-page rank computations, census bounds, slope scans
* ledger: dimension-sequence arithmetic and 2-torsion certificates
* cli/render: command-line front end and SVG output

Importing the package or its command line loads neither ledger nor
render: each is imported by the commands that use it.
"""

from .curves import CurveDiagram, Component, build_zoo, validate, zoo_names
from .pairing import ArcLift, SlopeSpec, dual_hfk_dims, genus_of, surgery_dim

__all__ = [
    "ArcLift",
    "Component",
    "CurveDiagram",
    "SlopeSpec",
    "build_zoo",
    "dual_hfk_dims",
    "genus_of",
    "surgery_dim",
    "validate",
    "zoo_names",
]

__version__ = "0.1.0"
