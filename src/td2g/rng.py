"""Deterministic pseudo-random numbers for test-input generation.

The generator is xorshift64* with the standard (12, 25, 27) shift triple
and output multiplier 0x2545F4914F6CDD1D.  Seeds are conditioned through
one round of the splitmix64 finalizer (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) so that any 64-bit seed, including 0, yields a
nonzero internal state.  These constants are part of the on-disk/CLI
contract: any implementation seeded with the same integer must produce
the same stream.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_SEED_GAMMA = 0x9E3779B97F4B9C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STAR = 0x2545F4914F6CDD1D


def _mix64(z: int) -> int:
    z = (z + _SEED_GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class XorShift64Star:
    """xorshift64* stream; state advances by x^=x>>12, x^=x<<25, x^=x>>27."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        state = _mix64(seed & _MASK)
        self.state = state if state != 0 else _SEED_GAMMA

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _STAR) & _MASK

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); n must be positive."""
        if n <= 0:
            raise ValueError("below() requires a positive bound")
        return self.next_u64() % n

    def int_in(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def fraction(self, max_abs_num: int = 4, max_den: int = 7) -> Fraction:
        """Rational with numerator in [-max_abs_num, max_abs_num], denominator in [1, max_den]."""
        num = self.int_in(-max_abs_num, max_abs_num)
        den = self.int_in(1, max_den)
        return Fraction(num, den)


def substream_seeds(seed: int, count: int) -> list[int]:
    """The first `count` outputs of the stream for `seed`, used as per-trial seeds.

    Trials seeded this way may run in any order (or in parallel) and still
    reproduce the sequential result.
    """
    rng = XorShift64Star(seed)
    return [rng.next_u64() for _ in range(count)]
