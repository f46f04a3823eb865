"""Splitting criteria for principalization primes.

A candidate prime p must split in the right Kummer-type extensions; at desk
scale every criterion collapses to congruences on p and to residue characters
chi(x) = x^((p-1)/ell^n) computed through a chosen square root of D mod p.
Genus theory, the norm and Hilbert 90 decide most candidates without that
root: the genus characters and p mod M, M the product of the odd primes
below the modulus, read the ray class off p where they tell every class
apart, and at ell^n = 2 the eps-character is a Legendre symbol of the
rational integer N(1 + eps), whose squarefree kernel divides 2D: on those
fields the scan's chunk codes, read off the characters of the prime
discriminants of D, decide (iii) too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import filterfalse, islice

from .abgroup import lattice_index
from .errors import InputError, InvariantError, require
from .exactmath import (factor, is_prime, kronecker, primes_1_mod, progression_flags, sqrt_mod,
                        squarefree_part, valuation)
from .quadfield import (
    Modulus,
    QElt,
    QuadField,
    RayClassData,
    aug_unit_data,
    ray_class_group,
)


def cyclotomic_step(ell: int, n: int) -> int:
    """The modulus of (i')'s congruence: p splits completely in Q(zeta_{ell^n})
    when p = 1 mod ell^n, and the ell^n-th roots of -1 (the rational unit
    radical) sharpen the 2-part to p = 1 mod 2^(n+1)."""
    return 2 ** (n + 1) if ell == 2 else ell**n


def is_split_cyclotomic(p: int, ell: int, n: int) -> bool:
    """Whether p is a prime that splits completely in Q(zeta_{ell^n}) with
    the ell^n-th roots of -1 adjoined (`cyclotomic_step`)."""
    return is_prime(p) and p != ell and (p - 1) % cyclotomic_step(ell, n) == 0


def residue_character(
    eta: QElt, p: int, ell: int, n: int, root: int
) -> tuple[int, int]:
    """chi(eta) = phi(eta)^((p-1)/ell^n) mod p and its exact order (an ell
    power), where phi sends w to (t + root)/2."""
    if (p - 1) % ell**n:
        raise InputError("p does not satisfy the cyclotomic congruence")
    val = (eta.x + eta.y * eta.field.w_mod(p, root)) % p
    if val == 0:
        raise InputError("eta is not coprime to p")
    c = pow(val, (p - 1) // ell**n, p)
    order = 1
    cur = c
    while cur != 1:
        cur = pow(cur, ell, p)
        order *= ell
        if order > ell**n * ell:
            raise InvariantError("invariant failed: the character order escaped its ell-part")
    return c, order


def h_K_constant(field, ell: int) -> dict:
    """v_ell of the constant ell^{h_K}: the ell-part of the roots of unity
    times the first cyclotomic-layer overlap of the Hilbert class field.
    Only the first layer can be unramified over K, so the overlap exponent
    is 0 or 1."""
    if not is_prime(ell):
        raise InputError("ell must be prime")
    d = field.d
    mu_exp = 0
    if ell == 2:
        mu_exp = 2 if d == -1 else 1
    elif ell == 3 and d == -3:
        mu_exp = 1
    layer_exp = 0
    if ell == 2 and d != 2:
        # K(sqrt 2)/K is unramified everywhere iff the biquadratic field
        # Q(sqrt d, sqrt 2) has discriminant D_d^2
        if 8 * QuadField(squarefree_part(2 * d)).D == field.D:
            layer_exp = 1
    return {
        "ell": ell,
        "mu_exponent": mu_exp,
        "layer_exponent": layer_exp,
        "h_K": mu_exp + layer_exp,
    }


# The scan's counters in the order its reports stamp them; "rejected_iv"
# joins after them when first counted.
SCAN_COUNTERS = ("scanned", "rejected_i", "rejected_ii", "rejected_iii")

# Genus characters whose conductor exceeds this stay out of the prefilter,
# which bounds each residue table it keeps.
GENUS_TABLE_LIMIT = 1 << 16


def prime_discriminants(D: int) -> list[int]:
    """The prime discriminants d_1, ..., d_t with D = d_1 * ... * d_t, by
    ascending |d_i|: q* = +-q = 1 mod 4 for each odd q | D, and D over
    their product (-4, 8 or -8) when D is even."""
    ds = [q if q % 4 == 1 else -q for q in factor(abs(D)) if q != 2]
    two = D // math.prod(ds)
    return sorted(ds + [two] * (two != 1), key=abs)


def _genus_signature(ds: list[int], q: int) -> int:
    """The genus signature of a prime ideal of norm q as a bit mask over
    the prime discriminants ds, bit i set when its i-th genus character is
    -1: the Kronecker symbol (d_i / q), and for a ramified prime, q | d_j,
    the product of the others at coordinate j."""
    chars = [kronecker(d, q) for d in ds]
    if 0 in chars:
        j = chars.index(0)
        chars[j] = math.prod(chars[:j] + chars[j + 1:])
    return sum(1 << i for i, c in enumerate(chars) if c == -1)


@dataclass(frozen=True)
class GenusFilter:
    """Which split primes can lie in a ray class, read off the joint key
    psi(P) = (sigma(P), N P mod M) of genus signature and norm.

    With D = d_1 * ... * d_t, the genus signature sigma = ((d_i / N P))_i
    is a homomorphism on the narrow class group (Cox, Primes of the Form
    x^2 + ny^2, ch. 1), and M is the product of the odd primes below m.
    For alpha = 1 mod^x m, conj(alpha) = 1 too, m being conjugation-stable,
    so N alpha = 1 mod M; and (alpha) has sigma = 1 when N alpha > 0 and
    s = (sign d_i)_i when N alpha < 0. So psi is a homomorphism from the
    ray class group to keys modulo the one joint flip (s, -1), and a P in
    the ray class c has psi(P) in psi(c) * {1, (s, -1)}. psi(c) comes from
    an ambient word for c: an ideal generator P_i contributes
    (sigma(P_i), N P_i), and a residue generator x of (O/m)^* (1, N x),
    which is (sigma, |N x|) up to the flip. On a split prime all
    coordinates of sigma multiply to 1, so the last (largest) is dropped,
    and so is every coordinate whose conductor exceeds GENUS_TABLE_LIMIT.
    `chars` holds (i, |d_i|, table) per kept coordinate, table[x] = 1 when
    (d_i / x) = -1 for an odd prime x, and `allowed` the kept bits of the
    signatures in psi(c) * {1, (s, -1)}. `norms` is None when the norm
    coordinate passes every residue, as for M = 1, where the filter reads
    the signature alone; else norms[k] holds the residues mod `modulus`
    that a key with the signature allowed[k] may have."""

    chars: tuple[tuple[int, int, bytes], ...] = dc_field(repr=False)
    allowed: tuple[int, ...]
    norms: tuple[frozenset, ...] | None
    modulus: int

    @staticmethod
    def build(
        ray: RayClassData, target: tuple[int, ...], ds: list[int]
    ) -> tuple["GenusFilter | None", bool]:
        """(filter, ray_exact) for primes in the class `target` of `ray`,
        whose field has the prime discriminants ds. The filter is None when
        it would pass every split prime. ray_exact says whether psi tells
        every ray class apart modulo (s, -1): then a split prime that the
        filter passes lies in the target class (`_ray_exact`)."""
        kept = [i for i, d in enumerate(ds[:-1]) if abs(d) <= GENUS_TABLE_LIMIT]
        mask = sum(1 << i for i in kept)
        s = sum(1 << i for i, d in enumerate(ds) if d < 0) & mask
        odd = [q for q in ray.modulus.residue_chars() if q > 2]
        M, phi = math.prod(odd), math.prod(q - 1 for q in odd)
        res, group = ray.residue, ray.group
        units = [[int(i == j) for j in range(len(res.factors))] for i in range(len(res.factors))]
        ambient = [(_genus_signature(ds, P.norm()) & mask, P.norm() % M) for P in ray.ideal_gens]
        ambient += [(0, res.crt_lift(e).norm() % M) for e in units]
        exact = _ray_exact(ray, kept, [*ambient, (s, M - 1)])
        sigma, n = 0, 1 % M
        # a zero target, as every scan's, is the zero word
        coeffs = group.express(group.to_canonical, target) if any(target) else ()
        for (sig, norm), e in zip(ambient, coeffs):
            sigma ^= sig * (e % 2)
            n = n * pow(norm, e, M) % M
        pairs = {sigma: {n}}
        pairs.setdefault(sigma ^ s, set()).add(-n % M)
        allowed = tuple(pairs)
        norms = tuple(map(frozenset, pairs.values()))
        if all(len(r) == phi for r in norms):
            norms = None
        if norms is None and len(allowed) == 2 ** len(kept):
            return None, exact
        chars = tuple((i, abs(ds[i]), _character_table(ds[i])) for i in kept)
        return GenusFilter(chars, allowed, norms, M), exact

    def code(self, mask: int) -> int:
        """The scan's code of a split odd prime, prime to D and to M,
        whose kept signature bits are mask: 1 when mask is not allowed, else
        2 plus, when the filter reads the norm, the index of mask in
        `allowed`, whose residues mod `modulus` are norms[code - 2]."""
        if mask not in self.allowed:
            return 1
        return 2 + self.allowed.index(mask) * (self.norms is not None)


def _ray_exact(ray: RayClassData, kept: list[int], keys: list) -> bool:
    """Whether psi is injective on the ray class group modulo the flip.
    keys are the (sigma, n) of the ambient generators, which generate the
    group, and the flip (s, -1) last; psi is injective exactly when they
    generate a subgroup of order |Cl_m| * ord(flip) in F_2^kept x (Z/M)^*.
    Each n is read by its discrete logs at the residue factors of m over
    the odd primes q | M, which embed (Z/q)^*, so the keys lie in Z^w
    modulo the diagonal `orders`, where their subgroup has the index
    `lattice_index` of the keys stacked on the relations."""
    factors = [f for f in ray.residue.factors if f.p > 2]
    orders = [2] * len(kept) + [f.order for f in factors]
    rows = [[sigma >> i & 1 for i in kept] + [f.dlog(ray.field.elt(n)) for f in factors]
            for sigma, n in keys]
    flip = math.lcm(*(o // math.gcd(c, o) for c, o in zip(rows[-1], orders)))
    rows += [[o * (i == j) for j in range(len(orders))] for i, o in enumerate(orders)]
    return math.prod(orders) // lattice_index(rows) == ray.group.order() * flip


def _character_table(d: int) -> bytes:
    """table[x] = 1 when (d / x) = -1 and 0 otherwise, for x mod |d| the
    residue of an odd prime prime to d: the Kronecker character of the
    prime discriminant d, which for d = q* is (x / q)."""
    m = abs(d)
    if m in (4, 8):
        return bytes(kronecker(d, x) == -1 for x in range(m))
    table = bytearray([1]) * m
    for x in range(1, m // 2 + 1):
        table[x * x % m] = 0
    return bytes(table)


# The scan's break-even, in bytes written at C speed. On a shared 2-CPU
# x86-64 VM with Python 3.11 one byte took 2.5-3.6 ns, marking one residue of
# a character table in Python about 117 ns (~32 bytes), and the (i') power
# and genus loop of `_code` that one chunk code replaces, measured with a
# `forbidden` call beside them, 1.7-2.0 us (~512 bytes).
_MARK_BYTES = 32
_CANDIDATE_BYTES = 512
# The largest |d_i| whose character table a scan builds; the table and its
# slot row (`_slot_row`) hold |d_i| bytes each.
SPLIT_TABLE_LIMIT = 1 << 26
# Progression slots a scan codes at once, each a byte of every row.
SCAN_CHUNK = 1 << 13


def _table_break_even(ds: list[int]) -> int | None:
    """How many candidates a scan decides one by one before it codes the
    rest of its range by chunks (`ConditionChecker.scan`): the character
    tables of the prime discriminants ds mark sum |d_i| / 2 residues, and a
    chunk writes t bytes per slot, so building codes never costs more than
    _CANDIDATE_BYTES bytes per candidate already decided, even when the
    first chunk holds the hit. None when t > 8 characters do not fit in a
    byte or some |d_i| > SPLIT_TABLE_LIMIT."""
    if len(ds) > 8 or max(map(abs, ds)) > SPLIT_TABLE_LIMIT:
        return None
    cost = _MARK_BYTES * sum(abs(d) // 2 for d in ds) + len(ds) * SCAN_CHUNK
    return -(-cost // _CANDIDATE_BYTES)


def _slot_row(table: bytes, step: int) -> bytes:
    """row[k] = table[(1 + k*step) % m], m = len(table), for k < m +
    SCAN_CHUNK - 1: the table in the order of the progression's slots, so
    the SCAN_CHUNK slots from k are row[k % m:][:SCAN_CHUNK]. With s = step
    mod m (or m), k*s = q*m + r for r < m and q < s, so the slots of one q
    read the table turned to start at 1 from r = -q*m mod s on, s apart:
    s strided slices of m bytes in all, never step copies of the table."""
    m = len(table)
    s = step % m or m
    turned = table[1:] + table[:1]
    row = b"".join(turned[-q * m % s::s] for q in range(s))
    extra = SCAN_CHUNK - 1
    return row * (extra // m + 1) + row[:extra % m]


# The code of a candidate that fails (iii) (`_split_codes`), and of a slot
# that holds no candidate (`ConditionChecker._chunk_codes`).
FAILS_III = 4
NO_CANDIDATE = 255
_UNFLAGGED = bytes.maketrans(b"\0\1", bytes([NO_CANDIDATE, 0]))  # sieve flag -> code mask
_DECIDED = bytes(1 < c < FAILS_III for c in range(256))


def _split_codes(ds: list[int], genus: "GenusFilter | None", fold: int | None = None) -> bytes:
    """The code map of the prime discriminants ds: codes[bits] is the code
    of an odd prime p prime to D = prod ds whose characters (d_i / p) are -1
    at the set bits i of bits (bit i from the i-th `_character_table`): 0
    when p is inert in K, as (D / p) is their product and bits has an odd
    number of them, 2 when it splits and there is no `genus`, else
    `genus.code` of the signature of the prime above p; with a `fold`
    (`ConditionChecker._fold_iii`), a code 2 becomes FAILS_III where the
    characters of its bits multiply to +1. Patterns past 2^t map to 0, so a
    chunk of packed bytes `translate`s to its codes."""
    kept = 0 if genus is None else sum(1 << i for i, _, _ in genus.chars)

    def code(bits: int) -> int:
        c = 0 if bits.bit_count() % 2 else 2 if genus is None else genus.code(bits & kept)
        return FAILS_III if c == 2 and fold is not None and (bits & fold).bit_count() % 2 == 0 else c

    return bytes(map(code, range(1 << len(ds)))).ljust(256, b"\0")


@dataclass(frozen=True)
class SearchParams:
    ell: int
    n: int
    h: int | None = None  # None: min(h_K, n - 1)
    bound: int = 10**6

    def __post_init__(self):
        if not is_prime(self.ell):
            raise InputError("ell must be prime")
        if self.n < 1:
            raise InputError("n must be at least 1")
        if self.h is not None and not 0 <= self.h < self.n:
            raise InputError("need 0 <= h < n")
        if self.bound < 3:
            raise InputError("search bound is too small")

    def effective_h(self, h_K: int) -> int:
        return min(h_K, self.n - 1) if self.h is None else self.h


@dataclass
class ConditionReport:
    p: int
    root: int | None
    failed_at: str | None  # "i" | "ii" | "iii" | "iv" | None
    eps_character: dict | None = None  # {"value", "order"}, past (ii)
    minus_one_character: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failed_at is None


class ConditionChecker:
    """Evaluates conditions (i')-(iv) for candidate primes against a fixed
    field, modulus, and target ray class."""

    def __init__(
        self,
        field,
        modulus: Modulus,
        target: tuple[int, ...],
        params: SearchParams,
    ):
        if not field.is_real:
            raise InputError("principalization search requires a real field")
        if not modulus.is_conj_stable():
            raise InputError("modulus must be stable under conjugation")
        if any(p == params.ell for p in modulus.residue_chars()):
            raise InputError("modulus must avoid the residue characteristic ell")
        self.field = field
        self.modulus = modulus
        self.params = params
        self.ray: RayClassData = ray_class_group(field, modulus)
        if len(target) != self.ray.group.rank:
            raise InputError(
                f"target {tuple(target)} does not match the ray class group's"
                f" invariants {self.ray.group.invariants}"
            )
        self.target = self.ray.group.reduce(target)
        t_order = self.ray.group.element_order(self.target)
        lv = valuation(t_order, params.ell) if t_order > 1 else 0
        if params.ell**lv != t_order:
            raise InputError("target class must have ell-power order")
        self.h_K = h_K_constant(field, params.ell)["h_K"]
        self.h = params.effective_h(self.h_K)
        self.eps, self.eps_unit_exponent = aug_unit_data(field, modulus)
        # (iv): the target must be an ell^h-th power in the ray class group
        self.iv_ok = self.ray.group.contains_power(params.ell**self.h, self.target)
        # eps = u^k: chi(eps) factors through an ell^{v_ell(k)}-th power, so
        # its order never exceeds ell^{n - v_ell(k)} at any p; (iii) needs
        # order ell^{n-h}, which is attainable only when h >= v_ell(k)
        self.iii_attainable = self.h >= valuation(self.eps_unit_exponent, params.ell)
        ds = prime_discriminants(field.D)
        # no prefilter until the first `scan` builds it
        # (`build_prefilter`); `check` decides without one
        self.genus: GenusFilter | None = None
        self.ray_exact = False
        self._prefiltered = False
        # at ell^n = 2, (iii) asks that eps be a nonsquare at the prime P
        # above p. N(eps) = 1, so eps = (1 + eps)^2 / c with c = N(1 + eps) =
        # 2 + Tr eps (Hilbert 90): for p prime to c, eps is a square mod P
        # exactly when c is a square mod p
        self.norm_one_plus_eps = self.eps.trace() + 2 if params.ell**params.n == 2 else None
        # the chunk codes' rows and code map (`_chunk_codes`), built only by
        # a long `scan`
        self.prime_discs = ds
        self._break_even = _table_break_even(ds)
        self._rows: list[tuple[int, bytes]] | None = None
        self._code_map = b""
        # the primes of 2 * ell * D * N(m): `forbidden` on the sieve's primes
        self.excluded = frozenset(
            {2, params.ell, *modulus.residue_chars(), *(abs(d) for d in ds if d % 2)}
        )
        self.step = cyclotomic_step(params.ell, params.n)
        self.excluded_slots = [(p - 1) // self.step for p in self.excluded if p % self.step == 1]

    def forbidden(self, p: int) -> bool:
        """Primes excluded by the preconditions: p | 2 * ell * D * N(m)."""
        return (
            p < 3
            or p == self.params.ell
            or self.field.D % p == 0
            or self.modulus.norm() % p == 0
        )

    def candidates(self, lo: int, hi: int):
        """The primes in [lo, hi] that condition (i') can pass, ascending:
        proved prime by a sieve over the progression of its cyclotomic
        congruence, and not `forbidden`."""
        return filterfalse(self.excluded.__contains__, primes_1_mod(self.step, max(lo, 3), hi))

    def scan(self, lo: int, hi: int) -> tuple[int | None, dict]:
        """(first prime in [lo, hi] that passes (i')-(iv) or None, the
        counters `SCAN_COUNTERS`, then "rejected_iv" once counted), with the
        prefilter built (`build_prefilter`). Each candidate gets a code
        (`_split_codes`): until the checker has its rows, from `_code`, and
        once a scan has decided its `_break_even` candidates so, it builds
        them and codes the rest of its range, and every later scan the whole
        of its own, SCAN_CHUNK slots at a time (`_chunk_codes`). Codes 0 and
        1, and FAILS_III where the code map folds in (iii) (`_fold_iii`),
        only count; the others go to `_decide` in ascending order, and a hit
        stops every counter at it. A code depends on p mod each |d_i| alone,
        and `_decide` rejects at (iii) every candidate that the fold does, so
        both passes give the same verdicts; a checker without a break-even
        (None) never builds the rows."""
        self.build_prefilter()
        stats = dict.fromkeys(SCAN_COUNTERS, 0)
        tally = [0] * (FAILS_III + 1)  # candidates by code
        decide, found = self._decide, None

        def hit(p: int, code: int) -> bool:
            failed_at, _ = decide(p, code)
            if failed_at is not None:
                key = f"rejected_{failed_at}"
                stats[key] = stats.get(key, 0) + 1
            return failed_at is None

        if self._rows is None:
            for p in islice(self.candidates(lo, hi), self._break_even):
                code = self._code(p)
                tally[code] += 1
                if 1 < code < FAILS_III and hit(p, code):
                    found = p
                    break
            if found is None and sum(tally) == self._break_even:
                lo = p + 1
                self._build_rows()
        if self._rows is not None and found is None:
            step = self.step
            for k, flags in progression_flags(step, max(lo, 3), hi, SCAN_CHUNK):
                codes = self._chunk_codes(k, flags)
                marks = codes.translate(_DECIDED)
                end, j = len(codes), marks.find(1)
                while j >= 0:
                    if hit(1 + (k + j) * step, codes[j]):
                        found, end = 1 + (k + j) * step, j + 1
                        break
                    j = marks.find(1, j + 1)
                for code in range(FAILS_III + 1):
                    tally[code] += codes.count(code, 0, end)
                if found is not None:
                    break
        stats["scanned"] += sum(tally)
        stats["rejected_i"] += tally[0]
        stats["rejected_ii"] += tally[1]
        stats["rejected_iii"] += tally[FAILS_III]
        return found, stats

    def _build_rows(self) -> None:
        """The rows of `_chunk_codes`: each prime discriminant's character
        table, shared with `GenusFilter.chars` where the prefilter keeps it,
        in slot order (`_slot_row`), and the code map (`_split_codes`)."""
        kept = {i: table for i, _, table in self.genus.chars} if self.genus else {}
        self._rows = [(abs(d), _slot_row(kept.get(i) or _character_table(d), self.step))
                      for i, d in enumerate(self.prime_discs)]
        self._code_map = _split_codes(self.prime_discs, self.genus, self._fold_iii())

    def _chunk_codes(self, k: int, flags: bytes) -> bytes:
        """The codes of the slots k, k + 1, ... of the progression, flags[i]
        = 1 where slot k + i holds a prime (`progression_flags`): codes[i] is
        `_code` of the candidate 1 + (k + i)*step there, and NO_CANDIDATE
        where flags has 0 or the prime is excluded. Byte i packs the t
        characters at slot k + i, bit i from the i-th row, and the packed
        bytes `translate` through the code map."""
        n, packed = len(flags), 0
        for i, (m, row) in enumerate(self._rows):
            start = k % m
            packed |= int.from_bytes(row[start:start + n], "little") << i
        codes = int.from_bytes(packed.to_bytes(n, "little").translate(self._code_map), "little")
        codes |= int.from_bytes(flags.translate(_UNFLAGGED), "little")
        for x in self.excluded_slots:
            if 0 <= x - k < n:
                codes |= NO_CANDIDATE << 8 * (x - k)
        return codes.to_bytes(n, "little")

    def _fold_iii(self) -> int | None:
        """The bits of the code map's characters whose product is (c / p),
        c = N(1 + eps), at every candidate p prime to c; None where the codes
        cannot decide (iii) (`_split_codes`). It can at ell^n = 2 on a
        ray-exact field whose prefilter has no norm part, where code 2 passes
        (ii). c(c - 4) = (eps - eps')^2 = D f^2 and gcd(c, c - 4) | 4, so the
        squarefree kernel s of c divides 2D; for p = 1 mod 4, (q / p) =
        (q* / p) for odd q, and (2 / p) = (+-8 / p) when D has that character.
        At p | c, eps = -1 at both primes above p, a square, so (iii) fails."""
        genus, c = self.genus, self.norm_one_plus_eps
        if c is None or not self.ray_exact or genus is not None and genus.norms is not None:
            return None
        s, bits, eight = 2 ** (valuation(c, 2) % 2), 0, None
        for i, d in enumerate(self.prime_discs):
            if d % 2 == 0:
                eight = i if d != -4 else None
            elif valuation(c, abs(d)) % 2:
                s, bits = s * abs(d), bits | 1 << i
        root = math.isqrt(c // s)
        require(root * root * s == c, "N(1 + eps) is not a square times primes of 2D")
        if s % 2 == 0:
            return None if eight is None else bits | 1 << eight
        return bits

    def build_prefilter(self) -> None:
        """Build the genus prefilter and the ray-exact flag
        (`GenusFilter.build`) once. On a ray-exact field the prefilter alone
        decides (ii). The prefilter only proves what the ray class lookup
        finds, so every verdict and root is the same with or without it."""
        if not self._prefiltered:
            self.genus, self.ray_exact = GenusFilter.build(self.ray, self.target, self.prime_discs)
            self._prefiltered = True

    def _code(self, p: int) -> int:
        """The code of a candidate p (`_split_codes`), from p alone, unfolded:
        0 when Euler's criterion finds p inert in K (p is in the cyclotomic
        progression and prime to D, so this decides (i')), else 2 without a
        prefilter, else `GenusFilter.code` of the prime above p."""
        if pow(self.field.D, (p - 1) >> 1, p) != 1:
            return 0
        genus = self.genus
        if genus is None:
            return 2
        mask = 0
        for i, m, table in genus.chars:
            mask |= table[p % m] << i
        return genus.code(mask)

    def _decide(self, p: int, code: int) -> tuple[str | None, int | None]:
        """(failed_at, root) at a candidate p (`candidates`) with the
        code `code`, as the scan decides it: conditions
        (i')-(iv) in turn up to the first that fails, failed_at None when
        all pass; root None when none was taken: when (i') fails, when the
        prefilter proves that (ii) fails, and on the ray-exact fields at
        ell^n = 2 unless p | N(1 + eps). (i') fails at code 0, and the
        signature part of the prefilter (ii) at code 1. Past them, the norm
        part of the prefilter, if any, then (ii)
        by the ray class of the prime above p unless the field is ray-exact,
        then (iii) by a Legendre symbol at ell^n = 2 and p prime to
        N(1 + eps), else by the eps-character, and (iv)."""
        if code < 2:
            return ("ii" if code else "i"), None
        genus = self.genus
        if genus is not None and genus.norms and p % genus.modulus not in genus.norms[code - 2]:
            return "ii", None
        root = None
        # (ii): the prime above p sits in the target ray class
        if not self.ray_exact:
            root = self._root(p)
            if self.ray.dlog_prime(p, root) != self.target:
                return "ii", root
        # (iii): the eps-character has exact order ell^(n-h)
        params = self.params
        c = self.norm_one_plus_eps
        if c is not None and c % p:
            ord_eps = 1 if pow(c % p, (p - 1) >> 1, p) == 1 else 2
        else:
            if root is None:
                root = self._root(p)
            _, ord_eps = residue_character(self.eps, p, params.ell, params.n, root)
        if ord_eps != params.ell ** (params.n - self.h):
            return "iii", root
        return (None if self.iv_ok else "iv"), root

    def _root(self, p: int) -> int:
        """The smaller square root of D mod a prime p that splits in K; the
        root that (ii) and (iii) use."""
        r = sqrt_mod(self.field.D, p)
        return min(r, p - r)

    def check(self, p: int) -> ConditionReport:
        """Conditions (i')-(iv) at any integer p as a report. A `forbidden` p
        raises InputError, a p that is not prime or misses the cyclotomic
        congruence fails (i'), and a candidate gets `_decide`'s verdict and
        root, taking the root here past (i') when `_decide` took none. It
        decides with the prefilter if one is built and builds none, so a
        checker made for one `check` skips `GenusFilter.build`. The report
        holds the first failure and, past (ii), the eps and -1 characters."""
        if self.forbidden(p):
            raise InputError(f"candidate {p} violates the coprimality precondition")
        params = self.params
        failed_at, root = "i", None
        if is_split_cyclotomic(p, params.ell, params.n):
            failed_at, root = self._decide(p, self._code(p))
            if root is None and failed_at != "i":
                root = self._root(p)
        if failed_at in ("i", "ii"):
            return ConditionReport(p, root, failed_at)
        chars = []
        for eta in (self.eps, self.field.elt(-1, 0)):
            c, order = residue_character(eta, p, params.ell, params.n, root)
            chars.append({"value": c, "order": order})
        return ConditionReport(p, root, failed_at, *chars)
