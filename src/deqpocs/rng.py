"""Fully specified pseudo-random stream used by every stochastic component.

All randomness in the package (mask selection, noise, weight init, epoch
shuffling, harness trials) flows through the generator defined here so that datasets, checkpoints and reports are
reproducible from integer seeds alone, independent of numpy's RNG choices.

The stream is xoshiro256++ seeded through splitmix64:

* splitmix64: ``state += 0x9E3779B97F4A7C15``; then
  ``z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
  z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31`` (all mod 2^64).
* xoshiro256++ state ``s[0..3]`` is four consecutive splitmix64 outputs of
  the seed. One step returns ``rotl(s[0]+s[3], 23) + s[0]`` and updates
  ``t = s[1]<<17; s[2]^=s[0]; s[3]^=s[1]; s[1]^=s[2]; s[0]^=s[3];
  s[2]^=t; s[3]=rotl(s[3], 45)``.
* uniform doubles in [0, 1) take the top 53 bits: ``(u64 >> 11) * 2**-53``.
* Gaussians use Box-Muller on consecutive uniforms,
  ``sqrt(-2 ln u1) * (cos, sin)(2 pi u2)`` with ``u1`` shifted into (0, 1];
  the second variate of each pair is consumed before new uniforms are drawn.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and an index path, via splitmix64.

    Used to hand independent, reproducible streams to per-sample / per-trial
    workers: ``derive_seed(s, i) != derive_seed(s, j)`` for ``i != j``.
    """
    state = seed & _MASK64
    for part in path:
        state, out = _splitmix64(state ^ (part & _MASK64))
        state = out
    state, out = _splitmix64(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class RandomStream:
    """xoshiro256++ stream with uniform/Gaussian draws (see module docstring)."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = s
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top 53 bits."""
        if n <= 0:
            raise ValueError("n must be positive")
        span = 1 << 53
        limit = span - span % n
        while True:
            v = self.next_u64() >> 11
            if v < limit:
                return v % n

    def gaussian(self) -> float:
        """Standard normal via Box-Muller; pairs are consumed in order."""
        if self._spare_gauss is not None:
            z = self._spare_gauss
            self._spare_gauss = None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * (2.0 ** -53)  # in (0, 1]
        u2 = (self.next_u64() >> 11) * (2.0 ** -53)
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_gauss = r * math.sin(theta)
        return r * math.cos(theta)

    def gaussians(self, n: int) -> list[float]:
        return [self.gaussian() for _ in range(n)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order."""
        if k > n:
            raise ValueError("cannot draw more items than available")
        pool = list(range(n))
        out = []
        for _ in range(k):
            j = self.randint(len(pool))
            out.append(pool.pop(j))
        return out
