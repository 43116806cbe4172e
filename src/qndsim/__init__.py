"""Toolkit for dispersive phonon-number measurement in optomechanical cavities.

Submodules:

- ``system``: parameter container, unit conversions, config parsing
- ``cavity``: cavity susceptibility and photon-number spectral density
- ``rates``: every rate formula, cooperativities, feasibility checks; the
  only exact (Fraction) arithmetic
- ``fock``: truncated Fock-space operators and density matrices
- ``lindblad``: master-equation generators, propagation, steady states
- ``trajectories``: stochastic jump-chain and quantum-jump unravelings
- ``twomode``: supermode reduction of two coupled optical modes
- ``coupling``: optomechanical coupling coefficients from 1D mode fields
- ``cli``: command-line interface

Internally every frequency-like quantity is an angular rate in rad/s;
ordinary frequencies in Hz appear only at the CLI/file boundary.
"""

__version__ = "0.1.0"
