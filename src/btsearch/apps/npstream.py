"""numpy's ``default_rng(seed)`` stream in pure Python, for gwtree's sampler.

Each public generator yields, one at a time, the values that calls of the
``numpy.random.Generator`` method in its docstring take from
``default_rng(seed)``, whatever the sizes of those calls.  With ``skip``
it starts after that many 64-bit outputs, jumped over in O(log skip)
steps as ``PCG64.advance`` does.

The port covers numpy's seeding (``SeedSequence`` with its default pool of
four words), PCG64 with the XSL-RR output (O'Neill 2014), the 32-bit
buffer that hands out the low half of a 64-bit output first,
``next_double``, and two distributions: Lemire's bounded 32-bit integers
(Lemire, ACM TOMACS 2019) over a power-of-two range, where numpy rejects
no draw, and geometric by search.  Each takes a fixed number of outputs
per value, so a skip lands on a value's first output.
"""

from __future__ import annotations

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
    """``table[integers(0, len(table))]``, for 2, 4, ... 2**31 entries: numpy
    rejects no 32-bit draw for a power of two, so each value takes one.
    ValueError, at the call, on any other length."""
    high = len(table)
    if not 2 <= high <= 1 << 31 or high & (high - 1):
        raise ValueError(f"a table of {high} entries; need a power of two from 2 to 2**31")
    return (table[word * high >> 32] for word in _uint32s(seed, skip))


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
