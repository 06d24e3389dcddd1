"""Construction and numerical certification of dimension-4 SIC-POVMs
covariant under the Weyl-Heisenberg group."""

from .numerics import DEFAULT_TOL, GroupElement, proj_equal
from .weyl_heisenberg import (
    CONSTANTS,
    SicPovm,
    displacement,
    fiducial_ket_d4,
    generate_sic,
    is_fiducial,
    verify_sic,
    weyl_commutation_check,
)

__all__ = [
    "DEFAULT_TOL",
    "GroupElement",
    "proj_equal",
    "CONSTANTS",
    "SicPovm",
    "displacement",
    "fiducial_ket_d4",
    "generate_sic",
    "is_fiducial",
    "verify_sic",
    "weyl_commutation_check",
]
