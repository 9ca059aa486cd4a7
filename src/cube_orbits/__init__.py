"""Exact vertex and edge orbit counts for Fibonacci and Lucas cubes.

Closed-form counts live in :mod:`cube_orbits.formulas`, the string machinery
(enumeration, periods, witnesses) in :mod:`cube_orbits.strings`, the
brute-force graph oracle in :mod:`cube_orbits.oracle`, the structural
bijections in :mod:`cube_orbits.bijections`, and the CLI in
:mod:`cube_orbits.cli`.  Import each name from the module that defines it.
"""

__version__ = "0.1.0"
