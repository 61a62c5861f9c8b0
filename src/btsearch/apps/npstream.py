"""numpy's ``default_rng(seed)`` stream in pure Python, for gwtree's sampler.

Each public generator yields, one at a time, the values that calls of the
``numpy.random.Generator`` method in its docstring take from
``default_rng(seed)``, whatever the sizes of those calls.  With ``skip``
it starts after that many 64-bit outputs, jumped over in O(log skip)
steps as ``PCG64.advance`` does.

The port covers numpy's seeding (``SeedSequence`` with its default pool of
four words), PCG64 with the XSL-RR output (O'Neill 2014), the 32-bit
buffer that hands out the low half of a 64-bit output first,
``next_double``, and one method per distribution: Lemire's bounded 32-bit
integers with their rejection loop (Lemire, ACM TOMACS 2019), geometric by
search, poisson by multiplication and binomial by inversion.  Those are the
methods numpy picks for the parameters the offspring laws use; each
generator notes the range where that holds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=1)  # a sampler begins the stream of one seed anew per attempt
def _seed_words(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as PCG64's (state, increment)."""
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's own message
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    out = []
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    words = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    return words[0] << 64 | words[1], words[2] << 64 | words[3]


def _advance(state: int, inc: int, steps: int) -> int:
    """PCG64's state ``steps`` outputs later: the LCG's jump ahead in
    O(log steps) multiplications, as ``PCG64.advance`` does."""
    mult, plus = 1, 0
    step_mult, step_plus = _PCG_MULT, inc
    while steps:
        if steps & 1:
            mult = mult * step_mult & _M128
            plus = (plus * step_mult + step_plus) & _M128
        step_plus = (step_mult + 1) * step_plus & _M128
        step_mult = step_mult * step_mult & _M128
        steps >>= 1
    return (mult * state + plus) & _M128


def _pcg64_words(seed: int, skip: int) -> Iterator[int]:
    """The 64-bit outputs of ``numpy.random.PCG64(seed)`` after the first
    ``skip``, one at a time."""
    initstate, initseq = _seed_words(seed)
    mult, m64, m128 = _PCG_MULT, _M64, _M128
    inc = (initseq << 1 | 1) & m128
    state = ((inc + initstate) * mult + inc) & m128  # srandom: step, add, step
    state = _advance(state, inc, skip)
    while True:
        state = (state * mult + inc) & m128
        x = (state >> 64 ^ state) & m64
        yield (x << 64 | x) >> (state >> 122) & m64  # XSL, then rotate right


def _uint32s(seed: int, skip: int) -> Iterator[int]:
    m32 = _M32
    for word in _pcg64_words(seed, skip):
        yield word & m32
        yield word >> 32


def _doubles(seed: int, skip: int) -> Iterator[float]:
    for word in _pcg64_words(seed, skip):
        yield (word >> 11) * (1.0 / 9007199254740992.0)


def table_draws(seed: int, table: Sequence[int], skip: int = 0) -> Iterator[int]:
    """``table[integers(0, len(table))]``, for 2 to 2**32 - 1 entries."""
    high = len(table)
    threshold = (1 << 32) % high  # 0 for a power of two: then nothing is rejected
    m32 = _M32
    words = _uint32s(seed, skip)
    for word in words:
        m = word * high
        while m & m32 < threshold:
            m = next(words) * high
        yield table[m >> 32]


def geometric(seed: int, p: float, skip: int = 0) -> Iterator[int]:
    """``geometric(p)``, for p >= 1/3 (numpy draws smaller p by inversion)."""
    q = 1.0 - p
    for u in _doubles(seed, skip):
        x = 1
        total = prod = p
        while u > total:
            prod *= q
            total += prod
            x += 1
        yield x


def poisson(seed: int, lam: float, skip: int = 0) -> Iterator[int]:
    """``poisson(lam)``, for 0 < lam < 10 (numpy draws larger lam by PTRS)."""
    enlam = math.exp(-lam)
    doubles = _doubles(seed, skip)
    while True:
        x = 0
        prod = next(doubles)
        while prod > enlam:
            x += 1
            prod *= next(doubles)
        yield x


def binomial(seed: int, n: int, p: float, skip: int = 0) -> Iterator[int]:
    """``binomial(n, p)``, for 0 < p <= 1/2 and n p <= 30 (numpy draws other
    parameters by BTPE or from 1 - p)."""
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    doubles = _doubles(seed, skip)
    while True:
        x = 0
        px = qn
        u = next(doubles)
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = next(doubles)
            else:
                u -= px
                px = (n - x + 1) * p * px / (x * q)
        yield x
