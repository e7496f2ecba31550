"""Deterministic seed derivation shared by generators and the harness."""

from __future__ import annotations

# 64-bit golden-ratio multiplier; decorrelates consecutive trial indices.
GOLDEN_MIX = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def derive_seed(base_seed: int, index: int) -> int:
    """Per-trial seed: base_seed XOR (index * golden multiplier), mod 2^64."""
    return (int(base_seed) ^ ((int(index) * GOLDEN_MIX) & _MASK)) & _MASK

