"""Bitstream toolchain: packets, containers, bus macros, components,
frame generation and BitLinker-style assembly."""

from .bits import deterministic_bits, extract_bits, int_to_words, place_bits, words_to_int
from .bitlinker import BitLinker, LinkReport, Placement
from .bitstream import Bitstream, BitstreamKind, device_idcode
from .busmacro import BusMacro, Direction, MacroKind, Port, Side, standard_data_macros
from .component import ComponentConfig
from .generator import (
    full_configuration_frames,
    initialize_static_configuration,
    placement_frame_content,
    verify_preserves_static,
)
from .packets import (
    DUMMY_WORD,
    SYNC_WORD,
    Command,
    PacketReader,
    PacketWriter,
    Register,
)

__all__ = [
    "BitLinker",
    "Bitstream",
    "BitstreamKind",
    "BusMacro",
    "Command",
    "ComponentConfig",
    "DUMMY_WORD",
    "Direction",
    "LinkReport",
    "MacroKind",
    "PacketReader",
    "PacketWriter",
    "Placement",
    "Port",
    "Register",
    "SYNC_WORD",
    "Side",
    "deterministic_bits",
    "device_idcode",
    "extract_bits",
    "full_configuration_frames",
    "initialize_static_configuration",
    "int_to_words",
    "place_bits",
    "placement_frame_content",
    "standard_data_macros",
    "verify_preserves_static",
    "words_to_int",
]
