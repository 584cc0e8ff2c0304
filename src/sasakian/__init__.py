"""Numerical toolkit for biharmonic integral C-parallel submanifolds of Sasakian spheres."""

__version__ = "0.1.0"
