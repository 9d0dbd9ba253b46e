"""Exact symbolic calculator for degenerate Eisenstein series on D4/G2 groups.

Constant terms via the Gindikin-Karpelevich formula, pole orders with
cancellation detection, Siegel-Weil proportionality constants, the dual-side
L-function factorization calculus for the standard L-function of G2, and the
formal local Tate integral.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .characters import (TorusCharacter, iota_check, line_chi_P, line_chi_Q,
                         line_kappa, line_mu_P, line_mu_Q, modular_character,
                         weyl_act)
from .dualside import (LFactorization, arthur_expand, lfactor_standard,
                       order_at_2, restrict_via_r)
from .eisenstein import (ConstantTerm, GKTerm, PoleReport, constant_term,
                         coset_reps, entireness_report, gk_factor,
                         h0_cancellation_check, intertwiner_residue,
                         pole_report, sharp_invariance_check, sharp_limit,
                         sharp_normalizer, siegel_weil_constant)
from .forms import AffineForm
from .localint import ShellFunction, local_zeta, tate_integral
from .rootdata import (FieldLabel, Root, RootSystem, WeylWord, build_system,
                       load_custom)
from .zetas import LaurentData, ZetaAtom, ZetaExpr, laurent_at
