"""Bundled catalogue of the displayed certificate polynomials.

The five PN-type polynomials p0..p4 and the six NP-type polynomials q0..q5
are transcribed once, in ``data/catalogue.json``, and loaded from there by
everything else (library, CLI, tests).  A build-time test pins the SHA-256
of each entry so any edit to the transcription is caught immediately.  The
bivariate Q(x, y) is not transcribed: ``Catalogue.Q`` builds it from the q's,

    Q(x, y) = -q0(x) + sum_{k=1..5} q_k(x) y^k - (1 - 2x) y^6.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .polys import BiPoly, Poly

P_NAMES = ("p0", "p1", "p2", "p3", "p4")
Q_NAMES = ("q0", "q1", "q2", "q3", "q4", "q5")


@dataclass(frozen=True)
class Catalogue:
    p: tuple[Poly, ...]
    q: tuple[Poly, ...]

    @property
    def Q(self) -> BiPoly:
        return build_q_bipoly(self.q)


def _raw_data() -> dict:
    path = resources.files("betabound").joinpath("data/catalogue.json")
    return json.loads(path.read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def load_catalogue() -> Catalogue:
    data = _raw_data()
    p = tuple(Poly.from_json(data["polynomials"][n]) for n in P_NAMES)
    q = tuple(Poly.from_json(data["polynomials"][n]) for n in Q_NAMES)
    return Catalogue(p=p, q=q)


def build_q_bipoly(qs) -> BiPoly:
    """Q(x, y) from q0..q5: the x^i coefficient of the k-th of -q0, q1..q5,
    2x - 1 is the coefficient of x^i y^k."""
    rows = (-qs[0], *qs[1:6], Poly((-1, 2)))
    return BiPoly({(i, k): c for k, row in enumerate(rows) for i, c in row.terms.items()})


def catalogue_hashes() -> dict[str, str]:
    """SHA-256 of the canonical JSON of every catalogue entry."""
    data = _raw_data()
    out = {}
    for name in P_NAMES + Q_NAMES:
        canon = json.dumps(
            data["polynomials"][name], sort_keys=True, separators=(",", ":")
        )
        out[name] = hashlib.sha256(canon.encode()).hexdigest()
    return out
