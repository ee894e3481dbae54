"""First-use reordering: static estimation, profiles, restructuring."""

from .first_use import FirstUseEntry, FirstUseOrder, textual_first_use
from .profile_estimator import (
    order_from_profile,
    profile_first_use,
    profile_program,
)
from .restructure import restructure
from .static_estimator import StaticFirstUseEstimator, estimate_first_use
from .weighted import weighted_first_use

__all__ = [
    "FirstUseEntry",
    "FirstUseOrder",
    "textual_first_use",
    "order_from_profile",
    "profile_first_use",
    "profile_program",
    "restructure",
    "StaticFirstUseEstimator",
    "estimate_first_use",
    "weighted_first_use",
]
