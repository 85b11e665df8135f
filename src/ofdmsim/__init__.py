"""Deterministic OFDM baseband simulator with cyclic-prefix sweep experiments."""

from .bitsource import DEFAULT_MASTER_SEED, RngStream, draw_bits, make_stream
from .channel import (
    ChannelRealization,
    ChannelSpec,
    apply_channel,
    ebno_to_noise_variance,
    exponential_pdp,
    realize_channel,
)
from .equalizer import channel_freq_response, zero_forcing
from .framing import (
    OfdmConfig,
    add_cyclic_prefix,
    remove_cyclic_prefix,
    serial_to_parallel,
)
from .metrics import BerRecord, count_bit_errors, theoretical_mpsk_ber, wilson_interval
from .psk import Constellation, demap_psk, make_constellation, map_psk
from .sweep import (
    SweepGrid,
    emit_plot,
    read_records,
    run_cell,
    run_grid,
    run_raw_modem,
    write_records,
)
from .validate import run_validation

__all__ = [
    "DEFAULT_MASTER_SEED",
    "RngStream",
    "make_stream",
    "draw_bits",
    "Constellation",
    "make_constellation",
    "map_psk",
    "demap_psk",
    "OfdmConfig",
    "serial_to_parallel",
    "add_cyclic_prefix",
    "remove_cyclic_prefix",
    "ChannelSpec",
    "ChannelRealization",
    "ebno_to_noise_variance",
    "exponential_pdp",
    "realize_channel",
    "apply_channel",
    "channel_freq_response",
    "zero_forcing",
    "BerRecord",
    "count_bit_errors",
    "theoretical_mpsk_ber",
    "wilson_interval",
    "SweepGrid",
    "run_cell",
    "run_grid",
    "run_raw_modem",
    "write_records",
    "read_records",
    "emit_plot",
    "run_validation",
]
