"""Exact integer and modular arithmetic: primality, factoring, sieves,
Kronecker symbols, square roots and quadratic roots mod p, and CRT.

Everything here is deterministic: primality is decided by trial division
by the primes up to 47, which settles every n < 53**2, and then by
Miller-Rabin with the shortest prefix of the first twelve prime bases that
is proven for n's size (the bounds of Jaeschke, Math. Comp. 61 (1993);
Jiang and Deng, Math. Comp. 83 (2014); Sorenson and Webster, Math. Comp. 86
(2017)), all twelve being exact below 2**64. Inputs outside that range are
rejected instead of being answered probabilistically.
"""
from __future__ import annotations

import bisect
import math
import operator
from functools import lru_cache
from itertools import compress
from typing import Iterator, Sequence

from .errors import InputError, InvariantError

PRIMALITY_LIMIT = 1 << 64

# The first twelve prime bases. _MR_PSI[k - 1] is psi_k of OEIS A014233, the
# least strong pseudoprime to the first k of them (Jaeschke, Math. Comp. 61
# (1993) for k <= 8; Jiang and Deng, Math. Comp. 83 (2014) for k = 9, 10, 11),
# so the first k bases decide every n < psi_k, and the shortest proven prefix
# for n has bisect_right(_MR_PSI, n) + 1 bases. psi_12 > 2**64 (Sorenson and
# Webster, Math. Comp. 86 (2017)) is not listed: all twelve decide the rest.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
           3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
           3_825_123_056_546_413_051)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# A composite with no prime factor up to 47 is at least 53**2, so below this
# a number that trial division by _SMALL_PRIMES leaves whole is 1 or a prime.
_TRIAL_LIMIT = 53 * 53


class PrimalityRangeError(InputError, ValueError):
    """Raised for primality queries at or above 2**64. The numbers tested
    derive from the discriminant, modulus and bound the user gives, so the
    CLI reports this as bad input (exit 2)."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n >= PRIMALITY_LIMIT:
        raise PrimalityRangeError(f"primality test limited to n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_LIMIT:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES[:bisect.bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Some nontrivial factor of composite n. Deterministic: the Brent cycle
    walk is retried with c = 1, 2, 3, ... until a factor splits off."""
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InvariantError(f"invariant failed: rho failed on {n}")  # unreachable for composite n


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: multiplicity}, primes ascending."""
    if n < 1:
        raise ValueError(f"factor wants n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n < _TRIAL_LIMIT:  # 1 or a prime above 47, the largest factor
        if n > 1:
            out[n] = 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return dict(sorted(out.items()))


def valuation(n: int, p: int) -> int:
    """Largest k with p**k | n. Requires n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def squarefree_part(n: int) -> int:
    """The unique squarefree d with n = d * (square), sign preserved."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    s = -1 if n < 0 else 1
    d = 1
    for p, k in factor(abs(n)).items():
        if k % 2:
            d *= p
    return s * d


@lru_cache(maxsize=None)
def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return tuple(i for i in range(limit + 1) if flags[i])


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, cut from the sieve cached at the next power of two >= 2^10."""
    primes = _sieve(1 << max((limit - 1).bit_length(), 10))
    return primes[:bisect.bisect_right(primes, limit)]


_SIEVE_SEGMENT = 1 << 16  # progression slots per sieved segment


def primes_1_mod(step: int, lo: int, hi: int) -> Iterator[int]:
    """Primes p ≡ 1 (mod step) with lo <= p <= hi, ascending: the flagged
    slots of `progression_flags`, one segment at a time, so no list of the
    range's primes is ever built."""
    for k, flags in progression_flags(step, lo, hi, _SIEVE_SEGMENT):
        yield from compress(range(1 + k * step, 1 + (k + len(flags)) * step, step), flags)


def progression_flags(step: int, lo: int, hi: int, chunk: int) -> Iterator[tuple[int, bytes]]:
    """The primes p ≡ 1 (mod step) with lo <= p <= hi as flags over the
    slots of the progression: pairs (k, flags), ascending, with flags[i] = 1
    when slot k + i, the integer 1 + (k + i)*step, is such a prime and 0
    otherwise. The pieces cover the range's slots, and none holds more than
    `chunk` slots or crosses a multiple of `chunk` or a segment: segment j
    is the slots [j*size, (j+1)*size), where size is _SIEVE_SEGMENT, or the
    power of two that covers the slots up to hi when that is fewer, so a
    range below one segment sieves less than twice its slots. Each segment
    is sieved once per process and kept in a bounded cache (`_segment`), so
    a second scan of a range sieves nothing."""
    if step < 1:
        raise ValueError(f"modulus must be positive, got {step}")
    k, last = max(0, -((1 - lo) // step)), (hi - 1) // step
    if k > last:
        return
    size = min(_SIEVE_SEGMENT, 1 << last.bit_length())
    while k <= last:
        j = k // size
        end = min(last + 1, (j + 1) * size, (k // chunk + 1) * chunk)
        yield k, _segment(step, size, j)[k - j * size:end - j * size]
        k = end


@lru_cache(maxsize=8)
def _segment(step: int, size: int, j: int) -> bytes:
    """flags[i] = 1 when slot j*size + i of the progression 1 + k*step is
    prime and 0 otherwise: each prime q <= sqrt of the segment's top that
    does not divide step strikes its multiples from q*q on, which lie q
    slots apart."""
    base = 1 + j * size * step
    top = base + (size - 1) * step
    flags = bytearray(b"\x01") * size
    if j == 0:
        flags[0] = 0  # the slot of 1
    for q in primes_up_to(math.isqrt(top)):
        if step % q:  # else q never divides 1 + k*step
            k = max(0, -((base - q * q) // step))  # the first slot >= q*q
            k += (-base * pow(step, -1, q) - k) % q  # on to the first that q divides
            flags[k::q] = bytes(len(range(k, size, q)))
    return bytes(flags)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    t = valuation(n, 2) if n % 2 == 0 else 0
    n >>= t
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # now (a/n) for odd n via quadratic reciprocity
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo a prime p, or None if a is a nonresidue.
    Returns r with 0 <= r < p. For p = 3 (mod 4), and for p = 5 (mod 8) by
    Atkin's closed form, one exponentiation gives a candidate root, and it
    squares to a exactly when a is a residue. For p = 1 (mod 8) the same
    power a^((q-1)/2), p - 1 = q*2^s, gives the Euler test and the start of
    Tonelli-Shanks, whose nonresidue is the least one (`_least_nonresidue`),
    so the answer is deterministic."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    if p % 8 == 5:
        v = pow(2 * a, (p - 5) // 8, p)
        r = a * v * (2 * a * v * v - 1) % p
        return r if r * r % p == a else None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    h = pow(a, (q - 1) // 2, p)
    x = a * h % p  # a^((q+1)/2)
    t = x * h % p  # a^q, of order dividing 2^(s-1) exactly when a is a square
    tt = t
    for _ in range(s - 1):
        tt = tt * tt % p
    if tt != 1:
        return None
    c = pow(_least_nonresidue(p), q, p)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _least_nonresidue(p: int) -> int:
    """The least quadratic nonresidue z mod a prime p = 1 (mod 8). It is
    prime, as a product of residues is a residue, and at least 3, as 2 is a
    residue; for odd prime z, (z / p) = (p / z) by reciprocity since
    p = 1 (mod 4), so each test is a power of the small residue p mod z."""
    limit = 1 << 10
    while True:
        for z in _sieve(limit):
            if z > 2 and pow(p % z, z >> 1, z) == z - 1:
                return z
        limit <<= 1


def power(x, e: int, one, mul=operator.mul):
    """x**e by square-and-multiply from the lowest set bit of e: out starts
    as x to that bit, then takes one square per higher bit and one product
    per higher set bit, popcount(e) + bit_length(e) - 2 calls of `mul` in
    all. `one` is the identity of `mul`, the answer for e = 0."""
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return one
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    out = x
    e >>= 1
    while e:
        x = mul(x, x)
        if e & 1:
            out = mul(out, x)
        e >>= 1
    return out


def crt(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int]:
    """Solve x ≡ r_i (mod m_i) for pairwise coprime moduli.
    Returns (x, M) with 0 <= x < M = prod(m_i)."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli, strict=True):
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError(f"moduli not coprime: gcd={g}")
        # x + m*t ≡ r (mod mi)
        t = (r - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x % m, m


def roots_mod_p(coeffs: Sequence[int], p: int) -> list[int]:
    """All roots in F_p of an integer polynomial of degree at most 2 over
    F_p, coefficients low to high, sorted ascending. A linear polynomial
    takes one inverse, a quadratic over odd p one square root of its
    discriminant; a quadratic mod 2 tries 0 and 1."""
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise ValueError("zero polynomial has every root")
    if len(c) > 3:
        raise ValueError(f"degree {len(c) - 1} mod {p}: only degree <= 2 is solved")
    if len(c) == 1:
        return []
    if len(c) == 2:
        return [-c[0] * pow(c[1], -1, p) % p]
    if p == 2:  # f(0) = c0, f(1) = c0 + c1 + c2
        return [x for x, v in ((0, c[0]), (1, sum(c))) if v % 2 == 0]
    c0, c1, c2 = c
    r = sqrt_mod(c1 * c1 - 4 * c2 * c0, p)
    if r is None:
        return []
    inv = pow(2 * c2, -1, p)
    return sorted({(-c1 + r) * inv % p, (-c1 - r) * inv % p})
