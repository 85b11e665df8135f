"""Deterministic OFDM baseband simulator with cyclic-prefix sweep experiments.

The package surface is what the command line, the experiment script and the
benchmark use; the building blocks of the chain live in the submodules.
"""

from .bitsource import DEFAULT_MASTER_SEED, make_stream
from .channel import (
    DEFAULT_TDL_DECAY_DB,
    DEFAULT_TDL_LEN,
    ChannelSpec,
    ebno_to_noise_variance,
    exponential_pdp,
)
from .errors import ConfigError, IoError
from .sweep import (
    SweepFailure,
    SweepGrid,
    emit_plot,
    read_records,
    resolve_workers,
    run_cell,
    run_grid,
    write_records,
)
from .validate import format_table, run_validation

__all__ = [
    "DEFAULT_MASTER_SEED",
    "make_stream",
    "DEFAULT_TDL_DECAY_DB",
    "DEFAULT_TDL_LEN",
    "ChannelSpec",
    "ebno_to_noise_variance",
    "exponential_pdp",
    "ConfigError",
    "IoError",
    "SweepFailure",
    "SweepGrid",
    "emit_plot",
    "read_records",
    "resolve_workers",
    "run_cell",
    "run_grid",
    "write_records",
    "format_table",
    "run_validation",
]
