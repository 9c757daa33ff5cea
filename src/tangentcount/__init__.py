"""Exact counts of rational curves with multibranched tangency constraints.

The invariant N<P_1, ..., P_r> counts rational curves in a fixed class on
the projective plane or the quadric surface, where each constraint P_i is
a branching diagram (an integer partition) prescribing how the curve meets
a chosen local divisor at one point: one branch per row, with contact
order the row length.  The all-ones diagram (1,...,1)_b is an ordinary
b-fold point constraint; the single-row diagram (k) is a full tangency of
order k.

The computation runs entirely in integer and rational arithmetic: point
constraints reduce to blowup Gromov-Witten invariants of the plane, and
deeper tangencies are recovered by inverting the box-moving linear system
that relates the different diagrams of one weight.

Public surface:

  Engine                 memoizing evaluator (invariant, hat_invariant,
                         full_table, sum_identity)
  canonical_constraints  the canonical key order of a constraint multiset
  InconsistencyError     raised where an internal invariant fails
  star                   the diagram product and its structure constants
  move_matrix            the box-moving matrix of one weight
  gw_blowup              rational-curve counts on blowups of the plane
  kontsevich_count       plane curves through generic points

The command-line entry point is tangentcount.cli:main.
"""

from .engine import Engine, canonical_constraints
from .errors import InconsistencyError
from .gw import gw_blowup, kontsevich_count
from .matrices import move_matrix
from .star import star

__version__ = "0.1.0"

__all__ = [
    "Engine", "InconsistencyError", "canonical_constraints", "gw_blowup",
    "kontsevich_count", "move_matrix", "star", "__version__",
]
