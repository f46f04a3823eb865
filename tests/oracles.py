"""Reference implementations that only the tests use: a fraction-free
determinant, matrix products, multiplicative orders, divisor lists, strong
probable primes and primality by Miller-Rabin on all twelve bases, primes
in an arithmetic progression by a primality test on each member, splitting
degrees of polynomials mod q, analytic class numbers of imaginary fields,
synthetic abelian groups given by their invariants, the identity, sums and
element list of a group in invariant-factor form, the cyclic complement of
an element of an ell-group, ideals of K as the HNF of their generators'
lattice, exact ideal division, Dirichlet composition of integer triples by
two extended gcds, ray-principal generators, the splitting of p in K by the
roots of w's minimal polynomial, ray generators closed by ideal products,
real reduction by a rho walk that moves its multiplier at every step, with
an exact multiplier num/den kept in lowest terms as a reference, the
fundamental unit of a real field as the inverse of its rho cycle's step
product and a multiplier's local value read off the exact element, ideals
of L = Q(sqrt d, sqrt p) as the HNF of all products of basis elements,
principal ideals of L as the HNF of one generator, square roots in K by
integer square roots and in L by that chain alone, with no residue test
first, relative norms of L in closed form, the square-test primes of L by
Kronecker symbols, and the unit norm index of a quadratic field over Q by
exponent lattices, its ambiguous count at m = 1 in the ray class group of
the trivial modulus, square roots mod p with the Tonelli-Shanks nonresidue
found by linear scan, a scan candidate's conditions decided without genus
characters, the Gaussian period polynomial by CRT across auxiliary primes,
and the residue factor of a prime of L found by scanning roots for
membership. The library never calls them.
The square roots and closed-form norms stand on the library's element
arithmetic alone. The ideal oracles stand on the library's `QIdeal`,
`BqIdeal` and its HNF, division and ray principality also on its ideal
product and generator search, the composition on its `xgcd`, the splitting
on its `kronecker` and `roots_mod_p`, the square-test primes on the same
two and `is_prime`, the ray generators on its ideal product and
`class_key`, the fundamental unit on its rho cycle and step product, the
rho walk on its residue factors' valuation and unit-part residue, the local
value on their residues and discrete logs, the principal ideal of L on
`BqIdeal.from_generators`, and the norm index on its residue systems and
unit lattice, the trivial-modulus ambiguous count on its ray class group
and prime splitting, the scan's reference decision on the checker's ray
class group, unit and square root, the primes in progression on
`is_prime`, the period polynomial on its primitive root, CRT and those
primes, and the residue factor of L on `ResidueFactor`, `BqIdeal.contains`
and the roots mod p; the rest share no code with it.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from itertools import zip_longest
from typing import Iterator, Sequence

from raycap.abgroup import FiniteAbelianGroup, hnf_rows, solve_left, xgcd
from raycap.ambigcheck import _unit_lattice, rayclass_Q_generators
from raycap.biquad import BqElt, BqIdeal, _w_elt
from raycap.exactmath import (
    crt,
    factor,
    is_prime,
    kronecker,
    power,
    roots_mod_p,
    sqrt_mod,
    valuation,
)
from raycap.errors import InputError, InvariantError, require
from raycap.kummerfrob import residue_character
from raycap.quadfield import (
    QElt,
    QIdeal,
    QuadField,
    RayClassData,
    ResidueFactor,
    _Fp2,
    _class_cycle,
    _ideal_from_rows,
    _primitive_root,
    _steps_product,
    adjust_by_units,
    class_key,
    factor_prime,
    is_principal_with_generator,
    modulus_from_rational,
    ray_class_group,
    residue_system,
    unit_gens,
)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def group_identity(G: FiniteAbelianGroup) -> tuple[int, ...]:
    return (0,) * G.rank


def group_add(G: FiniteAbelianGroup, y1: Sequence[int], y2: Sequence[int]) -> tuple[int, ...]:
    return G.reduce([a + b for a, b in zip(y1, y2, strict=True)])


def group_elements(G: FiniteAbelianGroup) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(d) for d in G.invariants))


def group_from_invariants(ds: Sequence[int]) -> FiniteAbelianGroup:
    """Synthetic group with the given invariants as its own ambient."""
    ds = tuple(int(d) for d in ds if d != 1)
    if any(d < 1 for d in ds):
        raise ValueError("invariants must be positive")
    for a, b in zip(ds, ds[1:]):
        if b % a != 0:
            raise ValueError("invariants must form a divisibility chain")
    k = len(ds)
    eye = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return FiniteAbelianGroup(ds, eye)


def cyclic_complement(
    invariants: Sequence[int], c: Sequence[int], ell: int
) -> tuple[int, list[tuple[int, ...]]]:
    """For an ell-group A = prod Z/d_i and an element c, pick the coordinate
    i0 where d_i/gcd(c_i, d_i) peaks and return (i0, basis of B) where
    B = <e_i : i != i0>. Then A/B is cyclic and c keeps its full order in
    the quotient; dropping any other coordinate can shrink the image order.
    """
    k = len(invariants)
    if k == 0:
        raise ValueError("trivial group has no distinguished coordinate")
    if len(c) != k:
        raise ValueError("element length disagrees with the group rank")
    n = []
    for d in invariants:
        v = valuation(d, ell)
        if ell**v != d:
            raise ValueError(f"invariant {d} is not a power of {ell}")
        n.append(v)
    gaps = []
    for ci, di, ni in zip(c, invariants, n):
        ci %= di
        gaps.append(0 if ci == 0 else ni - min(valuation(ci, ell), ni))
    best = max(gaps)
    i0 = gaps.index(best)
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k) if i != i0]
    return i0, basis


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, k in factor(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


def is_strong_probable_prime(n: int, a: int) -> bool:
    """Odd n > a passes the Miller-Rabin test to base a: with
    n - 1 = d*2^s, d odd, a^d = 1 or a^(d*2^r) = -1 mod n for some r < s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << r, n) == n - 1 for r in range(1, s))


def is_prime_by_twelve_bases(n: int) -> bool:
    """Primality of 0 <= n < 2**64 by Miller-Rabin on all of the first
    twelve prime bases, whatever n's size, after division by the bases
    alone: the reference for the library's graded base prefixes."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    return all(is_strong_probable_prime(n, a) for a in bases)


def primes_in_progression(a: int, mod: int, start: int = 2) -> Iterator[int]:
    """Primes p ≡ a (mod mod) with p >= start, ascending, by `is_prime` on
    every member: the reference for the library's progression sieve. With
    gcd(a, mod) > 1 at most one prime exists, and it is still found."""
    if mod < 1:
        raise ValueError(f"modulus must be positive, got {mod}")
    p = max(start, 2)
    p += (a - p) % mod  # align p with the residue class, then step by mod
    while True:
        if is_prime(p):
            yield p
        p += mod


def multiplicative_order(a: int, m: int, group_exponent: int | None = None) -> int:
    """Order of a in (Z/m)^*. If the caller knows a multiple of the order
    (e.g. p - 1 for prime p) passing it avoids factoring m."""
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    if group_exponent is None:
        group_exponent = _carmichael(m)
    e = group_exponent
    if pow(a, e, m) != 1:
        raise ValueError("group_exponent is not a multiple of the order")
    for p in factor(e):
        while e % p == 0 and pow(a, e // p, m) == 1:
            e //= p
    return e


def _carmichael(m: int) -> int:
    lam = 1
    for p, k in factor(m).items():
        if p == 2:
            piece = 2 ** max(k - 2, 1) if k > 1 else 1
        else:
            piece = p ** (k - 1) * (p - 1)
        lam = lam * piece // math.gcd(lam, piece)
    return lam


# ---------------------------------------------------------------------------
# splitting degrees mod q on coefficient lists (low to high), the reference
# for the Gaussian period check; the library solves only quadratics


def _poly_trim(f: Sequence[int], q: int) -> list[int]:
    out = [c % q for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(f: Sequence[int], g: list[int], q: int) -> list[int]:
    """f mod g over F_q, for g trimmed and nonzero."""
    f = _poly_trim(f, q)
    inv = pow(g[-1], -1, q)
    while len(f) >= len(g):
        c, shift = f[-1] * inv % q, len(f) - len(g)
        for i, gi in enumerate(g):
            f[shift + i] -= c * gi
        f = _poly_trim(f, q)
    return f


def _poly_mulmod(f: list[int], g: list[int], h: list[int], q: int) -> list[int]:
    """f*g mod h over F_q."""
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _poly_mod(out, h, q)


def _gcd_degree(f: Sequence[int], g: Sequence[int], q: int) -> int:
    """The degree of gcd(f, g) over F_q, -1 when both are zero."""
    f, g = _poly_trim(f, q), _poly_trim(g, q)
    while g:
        f, g = g, _poly_mod(f, g, q)
    return len(f) - 1


def splitting_degree(coeffs: Sequence[int], q: int) -> int:
    """Common degree of the irreducible factors of f mod q, for squarefree f
    mod q whose factors all share one degree (the Frobenius orbit length):
    the least j >= 1 with x^(q^j) = x mod (f, q). Raises ValueError when f
    is constant, not squarefree, or has factors of different degrees."""
    f = _poly_trim(coeffs, q)
    n = len(f) - 1
    if n < 1:
        raise ValueError("need a nonconstant polynomial")
    if _gcd_degree(f, [i * c for i, c in enumerate(f)][1:], q) != 0:
        raise ValueError(f"polynomial is not squarefree mod {q}")
    x = _poly_mod([0, 1], f, q)
    w = x
    for j in range(1, n + 1):
        w = power(w, q, [1], lambda a, b: _poly_mulmod(a, b, f, q))
        g = _gcd_degree([a - b for a, b in zip_longest(w, x, fillvalue=0)], f, q)
        if g == n:
            return j
        if g > 0:  # some factor has degree exactly j while another does not
            raise ValueError(f"factor degrees are not uniform mod {q}")
    raise ArithmeticError("Frobenius order exceeded the degree")  # unreachable


# ---------------------------------------------------------------------------
# class numbers of imaginary fields by the analytic formula


def smallest_prime_factors(n: int) -> list[int]:
    """spf[k] for 0 <= k < n: the least prime factor of k >= 2."""
    spf = list(range(n))
    for q in range(2, math.isqrt(n) + 1):
        if spf[q] == q:
            for k in range(q * q, n, q):
                if spf[k] == k:
                    spf[k] = q
    return spf


def analytic_class_number(D: int, spf: list[int]) -> int:
    """h = -(w/(2|D|)) * sum_{0<a<|D|} (D/a) * a for a fundamental D < 0,
    w the number of roots of unity (6 at D = -3, 4 at D = -4, else 2), with
    spf a smallest-prime-factor table past |D|. The Kronecker character
    comes from Euler's criterion on primes, extended multiplicatively, so
    it shares no code with the library."""
    n = -D
    chi = [0, 1] + [0] * (n - 2)
    for a in range(2, n):
        p = spf[a]
        if p != a:
            chi[a] = chi[p] * chi[a // p]
        elif p == 2:
            chi[a] = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        else:
            r = pow(D, (p - 1) // 2, p)
            chi[a] = 0 if r == 0 else (1 if r == 1 else -1)
    total = sum(chi[a] * a for a in range(1, n)) * {-3: 3, -4: 2}.get(D, 1)
    if total % n:
        raise ArithmeticError(f"the class number sum is not divisible by |D| = {n}")
    return -total // n


# ---------------------------------------------------------------------------
# ideals of K by lattice HNF, the product the library had before composition


def hnf_ideal(field: QuadField, gens: Sequence[QElt]) -> QIdeal:
    """The ideal generated by gens: the HNF of the lattice spanned by each
    z and z*w, as rows (coefficient of w, coefficient of 1), so the pivots
    are [[p, q], [0, r]] with r the least rational integer."""
    t, u = field.t, field.u
    rows = []
    for z in gens:
        rows.append([z.y, z.x])
        rows.append([z.x + z.y * t, z.y * u])  # z * w
    return _ideal_from_rows(field, rows)


def principal_ideal(z: QElt) -> QIdeal:
    if z.is_zero():
        raise ValueError("zero element generates no ideal")
    return hnf_ideal(z.field, [z])


def divide_exact(I: QIdeal, J: QIdeal) -> QIdeal:
    """I / J when J divides I, from I * conj(J) = (N J) * (I / J)."""
    prod = I * J.conj()
    n = J.norm()
    if prod.g % n:
        raise ValueError("ideal does not divide")
    return QIdeal(I.field, prod.g // n, prod.a, prod.b)


def compose_by_xgcd(field: QuadField, I1: tuple[int, int, int],
                    I2: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product of two (g, a, b) triples by Dirichlet composition with
    both extended gcds always taken: d1 = gcd(a1, a2) = x1*a1 + y1*a2 and
    d = gcd(d1, (B1 + B2)/2) = x2*d1 + z*(B1 + B2)/2, B_i = 2*b_i + t
    (Cohen, GTM 138, section 5.4)."""
    (g1, a1, b1), (g2, a2, b2) = I1, I2
    t = field.t
    B1, B2 = 2 * b1 + t, 2 * b2 + t
    d1, x1, y1 = xgcd(a1, a2)
    d, x2, z = xgcd(d1, (B1 + B2) // 2)
    a = a1 * a2 // (d * d)
    B3 = (x2 * (x1 * a1 * B2 + y1 * a2 * B1) + z * ((B1 * B2 + field.D) // 2)) // d
    return g1 * g2 * d, a, ((B3 - t) // 2) % a


def is_ray_principal(ray: RayClassData, I: QIdeal) -> QElt | None:
    """A generator x of I with x = 1 mod^x m, when I's ray class is trivial."""
    if any(ray.dlog(I)):
        return None
    # a trivial ray class is principal outright, so the table vector is 0
    assert not any(ray.ray_table[class_key(I)])
    y = is_principal_with_generator(I)
    assert y is not None
    out = adjust_by_units(y, ray.residue, unit_gens(ray.field))
    assert out is None or principal_ideal(out).key() == I.key()
    return out


# ---------------------------------------------------------------------------
# the splitting of p in K as the library found it before one helper split
# each prime: the Kronecker symbol decides the kind, and each prime comes
# from its own root of w^2 - t*w - u mod p


def factor_prime_by_roots(field: QuadField, p: int) -> tuple[str, list[tuple[QIdeal, int, int]]]:
    """("split"|"inert"|"ramified", [(prime, e, f), ...]) for p*O_K."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    k = kronecker(field.D, p)
    if k == -1:
        return "inert", [(QIdeal(field, p, 1, 0), 1, 2)]
    roots = roots_mod_p([-field.u, -field.t, 1], p)  # w^2 - t w - u
    if k == 1:
        ideals = [QIdeal(field, 1, p, (-r) % p) for r in roots]
        return "split", [(I, 1, 1) for I in ideals]
    r = roots[0]  # double root at a ramified prime
    return "ramified", [(QIdeal(field, 1, p, (-r) % p), 2, 1)]


# ---------------------------------------------------------------------------
# ray generators by ideal products, as the library chose them before its
# closure read class sums off the class group's table


def key_ideal(field: QuadField, key: tuple[int, int]) -> QIdeal:
    """The reduced primitive ideal [a, b + w] that a class key names."""
    a, B = key
    return QIdeal(field, 1, a, ((B - field.t) // 2) % a)


def bfs_closure(field: QuadField, gens: Sequence[QIdeal]) -> tuple[dict, list[list[int]]]:
    """Breadth-first closure of the subgroup generated by the given prime
    classes: (table: key -> exponent vector, relation rows). Each class is
    walked from the reduced ideal its key names, times one prime, and the
    product is keyed by `class_key`."""
    start = class_key(QIdeal.unit_ideal(field))
    table = {start: (0,) * len(gens)}
    frontier = deque([start])
    relations: list[list[int]] = []
    while frontier:
        key = frontier.popleft()
        vec, rep = table[key], key_ideal(field, key)
        for i, P in enumerate(gens):
            jk = class_key(rep * P)
            nvec = list(vec)
            nvec[i] += 1
            if jk in table:
                rel = [a - b for a, b in zip(nvec, table[jk])]
                if any(rel):
                    relations.append(rel)
            else:
                table[jk] = tuple(nvec)
                frontier.append(jk)
    return table, relations


def ray_ideal_gens_by_products(field: QuadField, modulus, h: int):
    """(gens, table, relations): the non-inert primes off the modulus, one
    per split pair, appended in ascending order and closed by `bfs_closure`
    after each until the closure has h classes."""
    if h == 1:
        return (), {class_key(QIdeal.unit_ideal(field)): ()}, []
    skip = {q.entry()[0] for q in modulus.primes}
    gens: list[QIdeal] = []
    for p in itertools.count(2):
        if p in skip or not all(p % q for q in range(2, math.isqrt(p) + 1)):
            continue
        kind, data = factor_prime_by_roots(field, p)
        if kind != "inert":
            gens.append(data[0][0])
            table, relations = bfs_closure(field, gens)
            if len(table) == h:
                return tuple(gens), table, relations


# ---------------------------------------------------------------------------
# square roots mod p as the library took them before it found the
# Tonelli-Shanks nonresidue by reciprocity


def sqrt_mod_linear_scan(a: int, p: int) -> int | None:
    """`exactmath.sqrt_mod` with the Tonelli-Shanks nonresidue for
    p = 1 (mod 8) found by Euler's criterion on z = 3, 4, 5, ... in turn."""
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
    z = 3  # 2 is a square mod p = 1 (mod 8)
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
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


# ---------------------------------------------------------------------------
# a scan candidate's conditions as the checker decided them before its genus
# prefilter


def reference_decide(checker, p: int) -> tuple[str | None, int | None]:
    """(failed_at, root) at a prime p that passed `checker.forbidden`: (i')
    from the congruence p = 1 mod ell^n (mod 2^(n+1) for ell = 2) and one
    square root of D mod p, (ii) from the ray class of the prime above p,
    (iii) from the order of the eps-character, then (iv); no genus
    character is read."""
    params = checker.params
    ell, n = params.ell, params.n
    r = None
    if (p - 1) % (2 ** (n + 1) if ell == 2 else ell**n) == 0:
        r = sqrt_mod(checker.field.D, p)
    if r is None:
        return "i", None
    root = min(r, p - r)
    if checker.ray.dlog_prime(p, root) != checker.target:
        return "ii", root
    _, order = residue_character(checker.eps, p, ell, n, root)
    if order != ell ** (n - checker.h):
        return "iii", root
    return (None if checker.iv_ok else "iv"), root


# ---------------------------------------------------------------------------
# real reduction along the rho orbit, as the library walked it before its
# reduction became one loop that folds the steps' factors in once


class Mult:
    """A running multiplier num/den with num in O_K, den a positive integer,
    kept in lowest terms: the exact element, moved one factor at a time."""

    __slots__ = ("num", "den")

    def __init__(self, num: QElt, den: int):
        g = math.gcd(math.gcd(abs(num.x), abs(num.y)), den)
        self.num = QElt(num.field, num.x // g, num.y // g) if g > 1 else num
        self.den = den // g

    def fold(self, factors) -> "Mult":
        """This multiplier times each (x + y*w) / den of `factors` in turn."""
        mult = self
        for x, y, den in factors:
            mult = Mult(mult.num * QElt(mult.num.field, x, y), mult.den * den)
        return mult


def _local_times(F, state, x: int, y: int, den: int):
    """One step of a local state (v, num, den) at the residue factor F of
    a prime of K: that of the multiplier times (x + y*w) / den."""
    v, num, dr = state
    if F.b is not None and (rx := (x - y * F.b) % F.p):
        vx = 0
    else:
        vx, rx = F.unit(x, y)
    r = den % F.p
    if r == 0:
        vd, r = F.unit(den, 0)
        if F.b is None:
            r = r[0]
        vx -= vd
    return v + vx, F.mul(num, rx), dr * r % F.p


class LocalMult:
    """A multiplier known by its local state at each factor of a residue
    system of K (`ResidueSystem.one`), moved one factor at a time by
    `_local_times`."""

    __slots__ = ("residue", "state")

    def __init__(self, residue, state=None):
        self.residue = residue
        self.state = residue.one if state is None else state

    def fold(self, factors) -> "LocalMult":
        state = self.state
        for x, y, den in factors:
            state = tuple(_local_times(F, st, x, y, den)
                          for F, st in zip(self.residue.factors, state, strict=True))
        return LocalMult(self.residue, state)


def local_value(F, state) -> tuple[int, int]:
    """What a local state (v, num, den) at the residue factor F says of its
    multiplier: its Q-valuation v and the discrete log of num/den."""
    v, num, dr = state
    den = dr if F.f == 1 else (dr, 0)
    return v, (F.dlog_residue(num) - F.dlog_residue(den)) % F.order


def exact_local_value(F, mult: Mult) -> tuple[int, int]:
    """`local_value` of the exact multiplier num/den at the prime Q of F,
    read off the element: for each of num and den, z * s^v / p^v with v =
    v_Q(z) found by dividing while z lies in Q, s = conj(b + w) for
    Q = [p, b + w] and s = 1 for Q = (p) inert."""
    K, p = mult.num.field, F.p
    s = K.elt(1, 0) if F.b is None else K.elt(F.b + K.t, -1)

    def unit_part(z: QElt) -> tuple[int, int]:
        v = 0
        while F.residue(z) == F.zero:
            z = z * s
            assert z.x % p == 0 and z.y % p == 0
            z, v = QElt(K, z.x // p, z.y // p), v + 1
        return v, F.dlog(z)

    (vn, ln), (vd, ld) = unit_part(mult.num), unit_part(K.elt(mult.den, 0))
    return vn - vd, (ln - ld) % F.order


def rho_orbit(field: QuadField, a: int, b: int, mult=None):
    """[a, b+w] and the ideals the rho steps lead to from it, without end,
    as (a, b, mult): B centered in (-a, a] while a > sqrt(D), in the window
    (s-2a, s] after, and the multiplier moved at every step."""
    D, t, s = field.D, field.t, field.isqrt_D
    while True:
        yield a, b, mult
        B0 = 2 * b + t
        if a > s:
            B = B0 - 2 * a * ((B0 + a - 1) // (2 * a))
        else:
            B = s - ((s - B0) % (2 * a))
        c = abs((D - B * B) // (4 * a))
        if c == 0:
            raise InvariantError("a rho step met a norm-zero form")
        if mult is not None:
            mult = mult.fold(((B + t, -2, 2 * a),))
        a, b = c, ((-B - t) // 2) % c


def fundamental_unit_by_steps(field: QuadField) -> QElt:
    """Smallest unit > 1 of a real quadratic field by the rho cycle of
    O_K: the steps once around the cycle of the reduced [1, w] multiply to
    num / den, a unit of absolute value below 1, and the fundamental unit
    is its signed inverse."""
    steps = [(B + field.t, -2, 2 * a) for a, _, B in _class_cycle(field, 1, 0)[1]]
    num, den = _steps_product(field, steps)
    require(num.x % den == 0 and num.y % den == 0, "the period multiplier is not integral")
    inv = QElt.exact_div(QElt(field, 1, 0), QElt(field, num.x // den, num.y // den))
    require(inv is not None, "the period multiplier is not a unit")
    return inv if inv.sign_real() > 0 else -inv


def is_reduced_real(field: QuadField, a: int, b: int) -> bool:
    """|sqrt(D) - 2a| < B < sqrt(D) for B = 2b + t taken in (s-2a, s]."""
    s = field.isqrt_D
    B = s - ((s - 2 * b - field.t) % (2 * a))
    return B > 0 and (2 * a <= B or (2 * a - B) ** 2 < field.D)


def reduce_real_by_orbit(field: QuadField, a: int, b: int, mult=None):
    """(a*, b*, mult*): the first reduced ideal on the rho orbit of
    [a, b+w], with the same step limit as the library's reduction."""
    limit = 64 + 4 * (a.bit_length() + abs(field.D).bit_length())
    for steps, (a, b, mult) in enumerate(rho_orbit(field, a, b, mult)):
        if is_reduced_real(field, a, b):
            return a, b, mult
        if steps == limit:
            raise ArithmeticError("reduction failed to terminate")


# ---------------------------------------------------------------------------
# ideals of L = Q(sqrt d, sqrt p) by lattice HNF, the product the library had
# before its multiplication table: every element split into k1 coordinates


def bq_elt_product(x: BqElt, y: BqElt) -> BqElt:
    """(A + B*w2)(C + E*w2) with A, B, C, E in k1 = Z[w1] multiplied as
    `QElt`s and w2^2 = t2*w2 + u2."""
    k1, k2 = x.L.k1, x.L.k2
    A, B = QElt(k1, x.a, x.b), QElt(k1, x.c, x.e)
    C, E = QElt(k1, y.a, y.b), QElt(k1, y.c, y.e)
    BE = B * E
    lo, hi = A * C + BE * k2.u, A * E + B * C + BE * k2.t
    return BqElt(x.L, lo.x, lo.y, hi.x, hi.y)


def _bq_span(L, elts) -> BqIdeal:
    h = hnf_rows([list(z.coords()) for z in elts])
    assert len(h) == 4
    return BqIdeal(L, tuple(tuple(r) for r in h))


def bq_principal(z: BqElt) -> BqIdeal:
    """(z) = z*O_L, the ideal of the one generator z."""
    return BqIdeal.from_generators(z.L, [z])


def bq_ideal_product(I: BqIdeal, J: BqIdeal) -> BqIdeal:
    """I*J as the HNF of the 16 products of their basis elements."""
    return _bq_span(I.L, [bq_elt_product(x, y) for x in I.elements() for y in J.elements()])


def bq_ideal_conj(I: BqIdeal, j: int) -> BqIdeal:
    """tau_j(I) as the HNF of the images of its basis elements."""
    return _bq_span(I.L, [z.tau(j) for z in I.elements()])


def bq_contains(I: BqIdeal, z: BqElt) -> bool:
    """Whether z is an integer combination of I's basis, by a Smith form."""
    return solve_left([list(r) for r in I.rows], list(z.coords())) is not None


def sqrt_in_quadratic_by_integers(theta: QElt) -> QElt | None:
    """rho in O_K with rho^2 = theta, or None, as the library found it
    before one norm descent served K and L: writing theta = (U + V sqrt D)/2
    and rho = (X + Y sqrt D)/2, X^2 and D Y^2 are the roots of
    z^2 - 2Uz + DV^2, tried in the same order with X >= 0."""
    K = theta.field
    D, t = K.D, K.t
    if theta.is_zero():
        return QElt(K, 0, 0)
    U = 2 * theta.x + theta.y * t
    V = theta.y
    n4 = U * U - D * V * V  # 4*N(theta)
    if n4 < 0:
        return None
    r = math.isqrt(n4)
    if r * r != n4:
        return None
    for X2, DY2 in ((U + r, U - r), (U - r, U + r)):
        if X2 < 0:
            continue
        X = math.isqrt(X2)
        if X * X != X2:
            continue
        if DY2 % D:
            continue
        Y2 = DY2 // D
        if Y2 < 0:
            continue
        Y = math.isqrt(Y2)
        if Y * Y != Y2:
            continue
        for sy in (Y, -Y) if Y else (0,):
            if X * sy != V:
                continue
            if (X - sy * t) % 2:
                continue
            rho = QElt(K, (X - sy * t) // 2, sy)
            if rho * rho == theta:
                return rho
    return None


def rel_norm_closed_form(z: BqElt, j: int) -> QElt:
    """N_{L/k_j}(z) for j = 1, 2 from z = A + B w2, A and B in k1, in the
    closed forms the library used before it read z * tau_j(z):
    A^2 + t2 AB - u2 B^2 in k1, and N(A) + u2 N(B) + (Tr(A conj B) + t2 N(B)) w2
    in k2."""
    L = z.L
    t2, u2 = L.k2.t, L.k2.u
    A, B = QElt(L.k1, z.a, z.b), QElt(L.k1, z.c, z.e)
    if j == 1:
        return A * A + A * B * t2 - B * B * u2
    r = A.norm() + u2 * B.norm()
    s = (A * B.conj()).trace() + t2 * B.norm()
    return QElt(L.k2, r, s)


def sqrt_in_biquad_unfiltered(w: BqElt) -> BqElt | None:
    """xi in O_L with xi^2 = w, or None, by the k1-norm descent alone: the
    library's square root before it tested residues at split primes first,
    so it tries the same roots in the same order."""
    L = w.L
    k1, p = L.k1, L.k2.D
    t2 = L.k2.t
    if w.is_zero():
        return BqElt(L, 0, 0, 0, 0)
    A, B = QElt(k1, w.a, w.b), QElt(k1, w.c, w.e)
    U = A + A + B * t2
    V = B
    R = sqrt_in_quadratic_by_integers(U * U - V * V * p)
    if R is None:
        return None
    for Rs in (R, -R):
        X = sqrt_in_quadratic_by_integers(U + Rs)
        if X is None:
            continue
        rem = U - Rs
        if rem.x % p or rem.y % p:
            continue
        Y = sqrt_in_quadratic_by_integers(QElt(k1, rem.x // p, rem.y // p))
        if Y is None:
            continue
        for sx in (X, -X):
            for sy in (Y, -Y):
                if sx * sy != V:
                    continue
                diff = sx - sy * t2
                if diff.x % 2 or diff.y % 2:
                    continue
                xi = BqElt(L, diff.x // 2, diff.y // 2, sy.x, sy.y)
                if xi * xi == w:
                    return xi
    return None


def square_test_primes_by_kronecker(L, count: int) -> tuple[tuple[int, int, int, int], ...]:
    """(q, r1, r2, r1*r2 mod q) for the first `count` odd primes q below
    1024 with (D1 / q) = (p / q) = 1, D1 the discriminant of k1 = K: the
    primes that split completely in L, each with a root of w1's and of w2's
    minimal polynomial mod q, as the library chose them before it tested
    the splitting by Euler's criterion."""
    out = []
    for q in range(3, 1024, 2):
        if is_prime(q) and kronecker(L.k1.D, q) == 1 and kronecker(L.p, q) == 1:
            r1 = roots_mod_p(L.k1.minpoly, q)[0]
            r2 = roots_mod_p(L.k2.minpoly, q)[0]
            out.append((q, r1, r2, r1 * r2 % q))
            if len(out) == count:
                break
    return tuple(out)


# ---------------------------------------------------------------------------
# the unit norm index over Q by lattices


def quadratic_norm_index(L: QuadField, m: int) -> int:
    """(E^m_Q : N_{L/Q}(E^{m_L}_L)) over E_Q = <-1>: the exponent lattice of
    the units of L that are 1 mod m_L (the kernel of their classes in
    (O_L/m_L)^*), pushed down by the unit norms (-1)^s, against E^m_Q,
    which is E_Q when -1 = 1 mod m (m <= 2) and trivial otherwise."""
    ug = unit_gens(L)
    lattice = _unit_lattice(residue_system(L, modulus_from_rational(L, m)), ug)
    signs = [0 if u.norm() == 1 else 1 for u in ug]
    norm_rows = [[sum(a * s for a, s in zip(row, signs))] for row in lattice]
    over_norms = hnf_rows([[2]] + norm_rows)[0][0]
    over_em = 1 if m <= 2 else 2
    assert over_norms % over_em == 0
    return over_norms // over_em


# ---------------------------------------------------------------------------
# the direct ambiguous count over Q in the ray class group of m: a second
# presentation of Cl^m_L, with its own generators, SNF basis and lookups


def ray_class_of_principal(ray: RayClassData, z: QElt) -> tuple[int, ...]:
    """The ray class of the principal ideal (z), z coprime to m: the residue
    of z on the residue generators of `ray.group`."""
    return ray.group.dlog_ambient((0,) * ray.n_ideal + ray.residue.dlog(z))


def ambiguous_count_by_ray_group(L: QuadField, m: int = 1) -> int:
    """Order of the subgroup of Cl^m_L generated by the ramified primes
    prime to m and the (a) of `rayclass_Q_generators(m)`, from the `dlog`
    of each prime and the residue of each a in `ray_class_group(L, m)`."""
    ray = ray_class_group(L, modulus_from_rational(L, m))
    vecs = []
    for p0 in sorted(factor(abs(L.D))):
        if m % p0 == 0:
            continue
        kind, data = factor_prime(L, p0)
        require(kind == "ramified", "a prime dividing D_L is not ramified")
        vecs.append(ray.dlog(data[0][0]))
    vecs += [ray_class_of_principal(ray, QElt(L, a, 0)) for a in rayclass_Q_generators(m)]
    return ray.group.subgroup_order(vecs)


# ---------------------------------------------------------------------------
# the Gaussian period polynomial as the library built it before the
# cyclotomic numbers: its coefficients mod auxiliary primes Q = 1 mod p,
# where the periods are explicit sums of p-th roots of unity in F_Q, joined
# by CRT under the bound (1 + R)^m


def period_poly_by_crt(p: int, m: int) -> tuple[int, ...]:
    """Coefficients (low to high, monic) of the minimal polynomial of the
    degree-m Gaussian period for the prime p, with m dividing p - 1."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if m < 1 or (p - 1) % m:
        raise InputError(f"degree {m} does not divide p - 1 = {p - 1}")
    if m == 1:
        return (1, 1)  # eta = -1
    R = (p - 1) // m
    bound = (1 + R) ** m  # every |e_k(eta_0..eta_{m-1})| is below this
    g = _primitive_root(p)
    # exponent classes: cosets of <g^m> in (Z/p)^*
    cosets = []
    for j in range(m):
        cosets.append([pow(g, j + i * m, p) for i in range(R)])
    residues: list[list[int]] = []
    moduli: list[int] = []
    prod = 1
    for Q in primes_in_progression(1, p, start=max(p + 1, 100)):
        w = pow(_primitive_root(Q), (Q - 1) // p, Q)
        periods = [sum(pow(w, a, Q) for a in coset) % Q for coset in cosets]
        # poly = prod (T - eta_j) mod Q, low-to-high coefficients
        poly = [1]
        for eta in periods:
            nxt = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] = (nxt[i + 1] + c) % Q
                nxt[i] = (nxt[i] - c * eta) % Q
            poly = nxt
        residues.append(poly)
        moduli.append(Q)
        prod *= Q
        if prod > 2 * bound:
            break
    coeffs = []
    for k in range(m + 1):
        c, M = crt([r[k] for r in residues], moduli)
        if c > M // 2:
            c -= M
        coeffs.append(c)
    require(coeffs[m] == 1, "the period polynomial is not monic")
    require(coeffs[m - 1] == 1, "the periods do not sum to -1")
    return tuple(coeffs)


# the residue factor of a prime of L as the library built it before each
# prime kept its residue map: the splitting of p decided again from the
# Kronecker symbols, and each image of w_j found by trying every root of its
# minimal polynomial for membership


def _scan_root(Q: BqIdeal, j: int, p: int) -> int:
    """The image of w_j in O_L/Q, for a w_j whose minimal polynomial splits mod p."""
    L = Q.L
    k = (L.k1, L.k2, L.k3)[j - 1]
    w = _w_elt(L, j)
    for x in roots_mod_p(k.minpoly, p):
        if Q.contains(w - BqElt(L, x, 0, 0, 0)):
            return x
    raise InvariantError("invariant failed: a subfield generator has no residue image")


def l_residue_factor_by_scan(Q: BqIdeal) -> ResidueFactor:
    """(O_L/Q)^* for one unramified-over-m prime Q; residue field F_p or
    F_{p^2} presented through whichever of w1, w2 stays irreducible."""
    L = Q.L
    norm = Q.norm()
    p = min(factor(norm))
    if norm == p:
        im1, im2 = _scan_root(Q, 1, p), _scan_root(Q, 2, p)
        return ResidueFactor(p, 1, None, (1, im1, im2, im1 * im2 % p))
    require(norm == p * p, "a residue prime's norm is neither p nor p^2")
    chis = tuple(kronecker(k.D, p) for k in (L.k1, L.k2, L.k3))
    if chis[0] == -1:
        tu = (L.k1.t, L.k1.u)
        im1 = (0, 1)
        if chis[1] >= 0:
            im2 = (_scan_root(Q, 2, p), 0)
        else:
            # both w1 and w2 inert: w3 has an integer image, and
            # w2 = (w3 - t1 + w1) / (2 w1 - t1)
            fp2 = _Fp2(p, *tu)
            t1 = L.k1.t
            num = ((_scan_root(Q, 3, p) - t1) % p, 1)
            den = (-t1 % p, 2 % p)
            im2 = fp2.mul(num, power(den, p * p - 2, (1, 0), fp2.mul))
    else:
        require(chis[1] == -1, "a degree-2 prime has neither w1 nor w2 inert")
        tu = (L.k2.t, L.k2.u)
        im1, im2 = (_scan_root(Q, 1, p), 0), (0, 1)
    return ResidueFactor(p, 2, tu, ((1, 0), im1, im2, _Fp2(p, *tu).mul(im1, im2)))
