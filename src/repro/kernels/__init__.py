"""Hardware-kernel models for the dynamic area.

Each kernel is bit-exact functionally (verified against the software
references and against the word-at-a-time references in
``tests/oracles/kernels.py``) and carries the resource footprint used by
the partial-reconfiguration fit checks.
"""

from .base import BaseKernel
from .image_ops import (
    FLUSH_OFFSET,
    PARAM_OFFSET,
    BlendKernel,
    BrightnessKernel,
    FadeKernel,
    interleave_images,
    saturate_u8,
)
from .jenkins_hash import GOLDEN_RATIO, JenkinsHashKernel, key_to_words, lookup2
from .pattern_match import PatternMatchKernel, pattern_to_columns
from .sha1_core import Sha1Kernel, sha1
from .streams import CounterSourceKernel, LoopbackKernel, SinkKernel

__all__ = [
    "BaseKernel",
    "BlendKernel",
    "BrightnessKernel",
    "CounterSourceKernel",
    "FLUSH_OFFSET",
    "FadeKernel",
    "GOLDEN_RATIO",
    "JenkinsHashKernel",
    "LoopbackKernel",
    "PARAM_OFFSET",
    "PatternMatchKernel",
    "Sha1Kernel",
    "SinkKernel",
    "interleave_images",
    "key_to_words",
    "lookup2",
    "pattern_to_columns",
    "saturate_u8",
    "sha1",
]
