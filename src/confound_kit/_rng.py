"""Deterministic 64-bit generator used by the sampling campaigns.

splitmix64, chosen because it is trivial to reproduce exactly in both the
compiled and the pure-Python campaign kernels, and because cheap per-sample
substreams can be derived from (seed, sample index).  Substreams make the
campaign reductions independent of chunking, so threaded and single-threaded
runs of the same seed return identical reports.
"""

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """A splitmix64 stream; the state advances by the golden gamma per draw."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        try:
            self._state = seed & _MASK64
        except TypeError:
            raise ParameterError(f"seed must be an int, got {type(seed).__name__}") from None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE


def sample_stream(seed: int, index: int) -> SplitMix64:
    """Substream for one sample of a campaign.

    The origin is scrambled, so streams for distinct indices do not overlap
    as shifted copies of one another.
    """
    try:
        origin = (seed + (index + 1) * _GOLDEN) & _MASK64
    except TypeError:
        raise ParameterError(
            f"seed and index must be ints, got {type(seed).__name__} and {type(index).__name__}"
        ) from None
    return SplitMix64(_mix(origin))
