"""Efficient local attention kernels, baselines, accounting, and toy training.

All tensors are plain numpy arrays in NCHW (rank 4) or NCL (rank 3) row-major
layout, double precision by default. Every kernel has an explicit forward and
an explicit vector-Jacobian backward; there is no autograd tape.
"""

from elakit.params import ParamStore
from elakit.modules import (
    ElaConfig,
    CaConfig,
    SeConfig,
    EcaConfig,
    build_attention,
    MODULE_CHOICES,
)

__all__ = [
    "ParamStore",
    "ElaConfig",
    "CaConfig",
    "SeConfig",
    "EcaConfig",
    "build_attention",
    "MODULE_CHOICES",
]

__version__ = "0.1.0"
