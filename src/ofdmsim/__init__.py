"""Deterministic OFDM baseband simulator with cyclic-prefix sweep experiments.

The package exports nothing itself: callers import from the submodules, as
the command line (``ofdmsim.cli``) does -- grids, cells and records from
``ofdmsim.sweep``, channel models from ``ofdmsim.channel``, the self-checks
from ``ofdmsim.validate``.
"""
