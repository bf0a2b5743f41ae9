"""betabound: validated-numerics certification of a sharp lower bound for
Euler's beta function on (0,1]^2.

Layers, bottom up:

* ``polys``      exact rational/polynomial algebra (identity certificates)
* ``signs``      one-sign-change criterion and bisection root enclosures
* ``specials``   50-digit gamma/polygamma/beta evaluation (Stirling series),
                 and the same series as integer enclosures for the replay
* ``quadrature`` independent tanh-sinh integral oracles
* ``psibounds``  rational sandwich bounds for psi' and psi''
* ``constants``  the named constants and their reference digits
* ``catalogue``  the bundled certificate polynomials
* ``proof``      step-by-step replay of the case analysis
* ``cli``        the ``betabound`` command
"""

from .catalogue import Catalogue, load_catalogue
from .constants import NamedConstants, compute_constants, solve_a3
from .polys import BiPoly, Poly, RationalFn
from .proof import (
    ProofReport,
    ProofStep,
    big_F,
    big_G,
    replay_all,
    sweep_theorem,
    theorem_margin,
)
from .signs import (
    Enclosure,
    PatternKind,
    classify,
    isolate_crossing,
    negative_below,
    positive_below,
    verify_root_ordering,
)
from .specials import beta, delta, gamma, log_gamma, psi, psi1, psi2

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "Catalogue",
    "Enclosure",
    "NamedConstants",
    "PatternKind",
    "Poly",
    "ProofReport",
    "ProofStep",
    "RationalFn",
    "beta",
    "big_F",
    "big_G",
    "classify",
    "compute_constants",
    "delta",
    "gamma",
    "isolate_crossing",
    "load_catalogue",
    "log_gamma",
    "negative_below",
    "positive_below",
    "psi",
    "psi1",
    "psi2",
    "replay_all",
    "solve_a3",
    "sweep_theorem",
    "theorem_margin",
    "verify_root_ordering",
]
