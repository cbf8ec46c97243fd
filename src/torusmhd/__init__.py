"""Pseudo-spectral incompressible hydrodynamics and MHD on the periodic torus.

The package is organized bottom-up: grids and spectral fields, norms and
time-series bookkeeping, regularity-criterion monitoring, the integrating
factor RK4 dynamics, a numerical verification harness for the analytical
identities the monitoring rests on, and file formats plus a command line.
"""

__version__ = "0.1.0"
