"""Shared tolerance policy.

Every threshold in the package is relative to the spectral norm of the
operand, switching to an absolute threshold once the norm drops below 1
(``tol * max(norm, 1)``), so statements stay scale invariant for large
matrices without becoming vacuous near zero.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    tol_psd: float = 1e-9
    tol_rank: float = 1e-8
    tol_range: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("tol_psd", "tol_rank", "tol_range"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {value}")


DEFAULT_TOLERANCES = Tolerances()

# Relative margin on a Frobenius-norm bound that stands in for a spectral
# norm before a threshold test. The bounds ||A||_F / sqrt(d) <= ||A|| <=
# ||A||_F are attained (by scalar and by rank-one matrices), and the computed
# norms differ from the exact ones by rounding of order d * eps; the margin
# keeps each bound on its side of the computed spectral norm. It is fixed,
# not a setting: it changes no verdict.
GATE_MARGIN = 1e-8


def scaled(tol: float, norm: float) -> float:
    """Threshold for a matrix of the given spectral norm."""
    return tol * max(norm, 1.0)
