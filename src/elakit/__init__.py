"""Efficient local attention kernels, baselines, accounting, and toy training.

All tensors are plain numpy arrays in NCHW (rank 4) or NCL (rank 3) row-major
layout, double precision by default. Every kernel has an explicit forward and
an explicit vector-Jacobian backward; there is no autograd tape.
"""

__version__ = "0.1.0"
