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
  ``ln``, ``cos`` and ``sin`` are Python's ``math`` functions: numpy's
  vectorized ``log`` rounds differently on a few inputs in a thousand.

That spec is the whole contract. :meth:`RandomStream.gaussians` computes
the same outputs in numpy lanes: xoshiro256++ is linear over GF(2), so the
state ``2**j`` steps ahead is a bit-matrix product, and each lane starts
that far after the previous one. Lanes and jumps change how fast the
values come, never which values come.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PAIRS_PER_CHUNK = 4096  # bounds the Box-Muller temporaries of one draw
_LANE_BIAS = 3  # m outputs run in lanes of about sqrt(m / 2**_LANE_BIAS) steps


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


def _map(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each entry of ``x``, for the ``math`` functions of the spec."""
    return np.fromiter(map(f, x.tolist()), dtype=np.float64, count=len(x))


def _step(s: np.ndarray, out: np.ndarray) -> None:
    """One xoshiro256++ step of every lane of ``s`` (4, lanes) in place,
    writing each lane's output to ``out``."""
    s0, s1, s2, s3 = s
    x = s0 + s3
    out[:] = ((x << np.uint64(23)) | (x >> np.uint64(41))) + s0
    t = s1 << np.uint64(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[:] = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))


def _bits(states: np.ndarray) -> np.ndarray:
    """(B, 4) uint64 states as (B, 256) bits, bit ``b`` being bit ``b % 64``
    of word ``b // 64``."""
    return np.unpackbits(states.astype("<u8").view(np.uint8), axis=1, bitorder="little")


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply the GF(2)-linear map whose unit-state images are ``table`` to
    each row of ``states``: the XOR of the rows of ``table`` at set bits."""
    # float32 counts up to 256 exactly, and its BLAS product is the fast one
    counts = _bits(states).astype(np.float32) @ _bits(table).astype(np.float32)
    odd = (counts.astype(np.uint16) & 1).astype(np.uint8)
    return np.packbits(odd, axis=1, bitorder="little").view("<u8").astype(np.uint64)


@functools.cache  # threads that miss together build equal tables; one is kept
def _jump_table(j: int) -> np.ndarray:
    """The states that the 256 unit states reach after ``2**j`` steps,
    (256, 4) uint64, built by squaring the one-step table ``j`` times."""
    if j == 0:
        units = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little")
        s = np.ascontiguousarray(units.view("<u8").T, dtype=np.uint64)
        _step(s, np.empty(256, dtype=np.uint64))
        table = s.T.copy()
    else:
        half = _jump_table(j - 1)
        table = _jump(half, half)
    table.flags.writeable = False
    return table


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
        span = 1 << 53
        if not 0 < n <= span:
            raise ValueError("n must be in 1 ... 2**53")  # above it no draw is accepted
        limit = span - span % n
        while True:
            v = self.next_u64() >> 11
            if v < limit:
                return v % n

    def gaussians(self, n: int) -> np.ndarray:
        """The next ``n`` standard normals of the stream, as float64.

        Exactly the values and final state of ``n`` scalar Box-Muller draws
        (module docstring), a pending second variate included.
        """
        k = 0 if self._spare_gauss is None else 1
        pairs = (n - k + 1) // 2
        z = np.empty(k + 2 * pairs)  # the pending variate, then whole pairs
        if k:
            z[0] = self._spare_gauss
        u = self._outputs(2 * pairs) >> np.uint64(11)
        for a in range(0, pairs, _PAIRS_PER_CHUNK):
            b = min(a + _PAIRS_PER_CHUNK, pairs)
            u1 = (u[2 * a:2 * b:2] + np.uint64(1)) * 2.0 ** -53  # in (0, 1]
            theta = 2.0 * math.pi * (u[2 * a + 1:2 * b:2] * 2.0 ** -53)
            r = np.sqrt(-2.0 * _map(math.log, u1))
            z[k + 2 * a:k + 2 * b:2] = r * _map(math.cos, theta)
            z[k + 2 * a + 1:k + 2 * b:2] = r * _map(math.sin, theta)
        self._spare_gauss = float(z[n]) if len(z) > n else None
        return z[:n]

    def _outputs(self, m: int) -> np.ndarray:
        """The next ``m`` outputs of :meth:`next_u64`, as uint64. Lane ``i``
        runs ``2**j`` steps from ``i * 2**j`` steps ahead; each jump table
        applied to the starts so far doubles their number."""
        if m == 0:
            return np.empty(0, dtype=np.uint64)
        j = max(0, (m.bit_length() - _LANE_BIAS) // 2)
        steps = 1 << j
        lanes = -(-m // steps)
        starts = np.array([self._s], dtype=np.uint64)
        while len(starts) < lanes:
            starts = np.concatenate([starts, _jump(_jump_table(j), starts)])
            j += 1
        s = np.ascontiguousarray(starts[:lanes].T)
        out = np.empty((steps, lanes), dtype=np.uint64)
        last = m - (lanes - 1) * steps  # steps the final lane contributes
        for i in range(steps):
            _step(s, out[i])
            if i + 1 == last:
                self._s = [int(w) for w in s[:, -1]]
        return out.T.reshape(-1)[:m]

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
