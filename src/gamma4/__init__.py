"""Obstruction-based bounds on the non-orientable 4-genus of knots.

The pipeline: parse planar-diagram codes, build Goeritz matrices from
checkerboard colorings, compute the linking form of the double branched
cover with exact arithmetic, run the Mobius-band obstructions, and combine
them with ingested invariant tables and band-move certificates into a
per-knot interval for gamma_4 with a full derivation trail.
"""

from .bounds import (GammaBounds, apply_certificate, clasp_number, classify,
                     sig_arf_obstruction, upper_from_clasp, upper_misc)
from .errors import (DataError, DiagramError, Gamma4Error, InconsistencyError,
                     KnotNotFound, PDSemanticError, PDSyntaxError)
from .exactalg import SNFResult, det, inverse, signature, smith_normal_form
from .knotio import (BandMoveCertificate, KnotRecord, PDCode, load_certificates,
                     load_dataset, parse_pd, render_pd)
from .linkform import (FiniteAbelianGroup, LinkingForm, ObstructionVerdict,
                       definiteness_consistency, homology,
                       klein_discriminant, linking_form,
                       mobius_obstruction_cyclic, mobius_obstruction_p2q,
                       represents, square_class)
from .planar import (Coloring, FaceSet, GoeritzData, checkerboard, faces,
                     goeritz, signature_via_goeritz)

__version__ = "0.1.0"
