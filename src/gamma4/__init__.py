"""Obstruction-based bounds on the non-orientable 4-genus of knots.

The pipeline: parse planar-diagram codes, build Goeritz matrices from
checkerboard colorings, compute the linking form of the double branched
cover with exact arithmetic, run the Mobius-band obstructions, and combine
them with ingested invariant tables and band-move certificates into a
per-knot interval for gamma_4 with a full derivation trail.
"""

__version__ = "0.1.0"
