"""Seeded uniform and normal arrays from the standard library's generator.

`Generator(seed)` is a `random.Random`, so integer draws are its
`randrange`. Its array draws read `randbytes`: a uniform takes 8 bytes,
little-endian, and keeps their top 53 bits; a normal takes two consecutive
uniforms (u1, u2) and is the cosine branch of Box-Muller,
sqrt(-2 log1p(-u1)) cos(2 pi u2). Every value thus takes a fixed number of
bytes from one stream, so drawing an array in several pieces gives the
values of drawing it at once, whatever the pieces' sizes.

`random` is loaded with numpy, so drawing here adds no module that
`numpy.random` (and through `secrets`, OpenSSL) would.
"""

import math
import random

import numpy as np

# values formed per pass: the temporaries of a draw are O(_CHUNK), not
# O(its size)
_CHUNK = 4096


class Generator(random.Random):
    """random.Random(seed) with array draws; seed must be a nonnegative
    integer."""

    def __init__(self, seed):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed {seed!r} must be a nonnegative integer")
        super().__init__(seed)

    def _fill(self, shape, width, values):
        """An array of `shape`, filled _CHUNK values at a time with
        values(u), where u holds `width` uniforms on [0, 1) per value."""
        out = np.empty(shape)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _CHUNK):
            count = min(_CHUNK, flat.size - start)
            bits = np.frombuffer(self.randbytes(8 * width * count), "<u8")
            flat[start:start + count] = values((bits >> 11) * 2.0 ** -53)
        return out

    def uniforms(self, lo, hi, shape=()):
        """Uniforms on [lo, hi): lo + (hi - lo) u."""
        return self._fill(shape, 1, lambda u: lo + (hi - lo) * u)

    def normals(self, shape=()):
        """Standard normals by Box-Muller, two uniforms each."""
        return self._fill(shape, 2, lambda u: np.sqrt(
            -2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * math.pi * u[1::2]))
