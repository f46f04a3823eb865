"""Two independent computations of the ambiguous ray-class count.

For a quadratic step L/K (either L quadratic over K = Q, or L biquadratic
over one of its quadratic subfields K) the classes of Gal(L/K)-stable ideals
inside Cl^m(L) form a subgroup whose order has a closed formula:

    |Cl^m_K| * prod d_inf * prod e_P / ([L:K] * (E^m_K : N(E^{m_L}_L)))

with d_inf the local degrees at the infinite places of K, e_P the
ramification indices at finite primes of K coprime to m, and the denominator
index taken on unit groups of elements that are 1 mod the respective moduli.
`ambig_case` evaluates that expression factor by factor (`_formula_parts`),
from discriminants and unit norms: it builds no prime of L, and over Q
neither a residue system nor a unit, since N(eps) is read off the period
of w's continued fraction, or is 1 when a prime 3 mod 4 divides D.
`ambiguous_count_direct` computes the order of the subgroup of Cl^m(L)
generated by ramified primes and extended K-ideals; for L over Q the
ramified primes are integer triples, and with m = 1 that is the subgroup
of Cl_L that `_ramified_closure` grows from those triples alone, one class
key per class. For m > 1 over Q the same closure gives the image in Cl_L,
and the rest of the order is read in (O_L/m)^* modulo the units from
closed-form residues of the primes' relations, so no relation matrix, no
class group and no ray class group of L is built. Agreement across a
corpus is the regression signal. The two routes share the field's
factorization of D (`QuadField.factor_D`), the rational ray class data
(`rayclass_Q` and its generators), and for a biquadratic step
`class_group(K)`, the units of K and L, `extend_modulus` and the residue
systems mod m and m_L with their `kernel` and `image_order`, whose
residue fields (`_residue_field`) are cached across K and L; the formula
side builds no ray class group. A fault in those would hit both sides
alike; the README names the test that checks each a third way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from raycap.abgroup import FiniteAbelianGroup, group_from_relations, lattice_index
from raycap.biquad import (
    BiquadField,
    _primes_over,
    biquad_field,
    class_number,
    embed,
    extend_ideal,
    extend_modulus,
    is_principal,
    l_residue_system,
    primes_above,
    unit_group,
)
from raycap.errors import BudgetError, InputError, require
from raycap.exactmath import crt, factor, squarefree_part
from raycap.quadfield import (
    FIELD_CACHE_SIZE,
    Modulus,
    QElt,
    QuadField,
    _class_keys,
    _cofactor_residue,
    _primitive_root,
    class_group,
    factor_prime,
    fundamental_unit,
    fundamental_unit_norm,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
    residue_system,
    unit_gens,
)
from raycap.report import plain

__all__ = [
    "AmbigReport",
    "ambig_case",
    "ambiguous_count_direct",
    "fundamental_field_params",
    "norm_index_units",
    "rayclass_Q",
    "rayclass_Q_generators",
    "unit_dlog",
]


# ---------------------------------------------------------------------------
# ray class group of Q


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _rational_ray_data(m: int) -> tuple[FiniteAbelianGroup, tuple[int, ...]]:
    """((Z/m)^* mod <-1>, generator residues coprime to m), one cached
    entry per m for both `rayclass_Q` and `rayclass_Q_generators`."""
    if m < 1:
        raise InputError("modulus integer must be positive")
    if m <= 2:
        return group_from_relations([], 0), ()
    # (generator mod q, its order, exponent of -1 over it, q) per factor
    local: list[tuple[int, int, int, int]] = []
    for p, k in sorted(factor(m).items()):
        q = p**k
        if p == 2:
            if k == 1:
                continue
            if k == 2:
                local.append((3, 2, 1, q))
            else:
                local.append((5, q // 4, 0, q))
                local.append((q - 1, 2, 1, q))
            continue
        g = _primitive_root(p)
        if k > 1 and pow(g, p - 1, p * p) == 1:
            g += p
        phi = q // p * (p - 1)
        local.append((g, phi, phi // 2, q))
    orders = [o for _, o, _, _ in local]
    minus = [e for _, _, e, _ in local]
    lifted = [
        g % m if m == q else crt((g, 1), (q, m // q))[0] for g, _, _, q in local
    ]
    n = len(local)
    rows = [[orders[i] if j == i else 0 for j in range(n)] for i in range(n)]
    rows.append(list(minus))
    group = group_from_relations(rows, n)
    return group, tuple(lifted)


def rayclass_Q(m: int) -> FiniteAbelianGroup:
    """Ray class group of Q for conductor m: (Z/m)^* modulo {+-1}."""
    return _rational_ray_data(m)[0]


def rayclass_Q_generators(m: int) -> tuple[int, ...]:
    """Positive residues whose ideal classes generate rayclass_Q(m).

    The i-th residue maps to the i-th ambient basis vector of the group.
    """
    return _rational_ray_data(m)[1]


# ---------------------------------------------------------------------------
# exact discrete logs in real quadratic unit groups


def unit_dlog(field: QuadField, w: QElt) -> tuple[int, int]:
    """(s, a) with w = (-1)^s * eps^a for the fundamental unit eps.

    All comparisons are exact integer arithmetic, so arbitrarily large unit
    powers are handled without any floating-point log.
    """
    if not field.is_real:
        raise InputError("unit discrete log needs a real field")
    if w.field is not field and w.field != field:
        raise InputError("element from the wrong field")
    if abs(w.norm()) != 1:
        raise InputError("not a unit")
    one = QElt(field, 1, 0)
    if w == one:
        return 0, 0
    if w == -one:
        return 1, 0
    eps = fundamental_unit(field)
    s = 0
    if w.sign_real() < 0:
        s, w = 1, -w
    inv = False
    if one > w:  # 0 < w < 1: flip to w^-1 = conj(w)*N(w), again > 0
        inv = True
        w = w.conj() * w.norm()
    # binary ladder: largest power of eps not exceeding w, then descend
    powers = [eps]
    while not powers[-1] * powers[-1] > w:
        powers.append(powers[-1] * powers[-1])
    a, cur = 0, one
    for k in range(len(powers) - 1, -1, -1):
        step = cur * powers[k]
        if not step > w:
            cur = step
            a += 1 << k
    if cur != w:
        raise InputError("element is not in <-1, eps>")
    if inv:
        a = -a
    return s, a


# ---------------------------------------------------------------------------
# the unit index


def _unit_image(K: QuadField, m: Modulus) -> int:
    """|E_K / E^m_K|, the order of the image of the units in (O_K/m)^*."""
    R = residue_system(K, m)
    return R.image_order([R.dlog(u) for u in unit_gens(K)])


def norm_index_units(L, K, m) -> int:
    """Index (E^m_K : N_{L/K}(E^{m_L}_L)) for a degree-2 step L/K.

    Shapes: L quadratic with K None (meaning Q) and m an odd integer, or L
    biquadratic with K one of its quadratic subfields and m a Modulus of K.
    Over Q the index is read off the unit norms: E^m_Q = {+-1} only for
    m = 1, and a unit that is 1 mod m_L has norm 1 mod m, so the index is 1
    for m > 1; for m = 1 it is 1 when L is real with N(eps) = -1, else 2,
    and `fundamental_unit_norm` gives that sign without building eps. It
    is not asked when a prime p = 3 mod 4 divides D_L: x^2 - D*y^2 = -4
    would make -1 a square mod p, so N(eps) = 1.
    Over K it is |E_K / N| / |E_K / E^m_K|. N is spanned by the norms of
    the `kernel` of (-1, units of L) mod m_L, as rows over (-1, eps_K), and
    |E_K / N| is the index of their lattice with (-1)^2 = 1; |E_K / E^m_K|
    is the order of the units' image in (O_K/m)^*.
    """
    if not _is_biquad_step(L, K, m):
        if m > 1:
            return 1
        return 1 if L.is_real and all(p % 4 != 3 for p in L.factor_D) \
            and fundamental_unit_norm(L) == -1 else 2
    j = (L.k1, L.k2, L.k3).index(K) + 1
    U = unit_group(L)
    lgens = [-L.one()] + list(U.units)
    lattice = l_residue_system(extend_modulus(L, m)).kernel(lgens)
    # relative norms of the generators, expressed over (-1, eps_K)
    norm_logs = [(0, 0)] + [unit_dlog(K, v.rel_norm(j)) for v in U.units]
    norm_rows = [
        [sum(a * v[c] for a, v in zip(row, norm_logs)) for c in range(2)]
        for row in lattice
    ]
    over_norms = lattice_index([[2, 0], *norm_rows])
    over_em = _unit_image(K, m)
    require(over_norms % over_em == 0, "the norm subgroup is not inside E^m_K")
    return over_norms // over_em


# ---------------------------------------------------------------------------
# ramified primes of the direct side


def _ramified_biquad(L: BiquadField, K: QuadField, m: Modulus):
    """A prime Q of L over each prime P of K coprime to m with e_P(L/K) = 2,
    read off the primes of L."""
    out = []
    for p0 in L.k3.factor_D:
        above = primes_above(L, p0)
        for P, eK, _ in factor_prime(K, p0)[1]:
            over = _primes_over(L, P, above)
            es = {e for _, e, _ in over}
            require(len(es) == 1 and min(es) in (eK, 2 * eK),
                    "the ramification indices over P disagree")
            if min(es) == 2 * eK and m.coprime_to(P):
                out.append(over[0][0])
    return out


# ---------------------------------------------------------------------------
# the two sides


@dataclass(frozen=True)
class AmbigReport:
    """One checked case of the ambiguous-count identity."""

    extension: str
    params: tuple
    base_ray_order: int
    local_degrees: tuple[int, ...]
    ramified_e: tuple[int, ...]
    degree: int
    norm_index: int
    formula: int
    direct: int

    @property
    def equal(self) -> bool:
        return self.formula == self.direct

    def as_dict(self) -> dict:
        return plain(self, equal=self.equal)


def _is_biquad_step(L, K, m) -> bool:
    """The one check of a degree-2 step L/K with modulus m: True for L
    biquadratic over one of its quadratic subfields K with m a Modulus of
    K, False for L quadratic over K = None (meaning Q) with m an integer.
    The step has ell = 2, so the count identity needs m of odd norm."""
    if isinstance(L, QuadField) and K is None and isinstance(m, int):
        if m < 1:
            raise InputError("modulus integer must be positive")
        biquad, norm = False, m
    elif isinstance(L, BiquadField) and isinstance(K, QuadField) and isinstance(m, Modulus):
        if K not in (L.k1, L.k2, L.k3):
            raise InputError("K is not a quadratic subfield of L")
        if m.field != K:
            raise InputError("modulus lives over the wrong base field")
        biquad, norm = True, m.norm()
    else:
        raise InputError("unsupported extension shape")
    if norm % 2 == 0:
        raise InputError("modulus must have odd norm for a quadratic step")
    return biquad


def _formula_parts(L, K, m):
    """(|Cl^m_K|, the local degrees d_inf, the indices e_P, the unit index).

    A prime p0 | D3 ramifies in L with e = 2, and no other prime does, so
    e_P(L/K) = 2 exactly for the primes P of K over a p0 | D3 with p0 not
    dividing D_K (for L quadratic over Q, D3 = D_L and D_K = 1). Over K,
    |Cl^m_K| = h_K * |(O_K/m)^*| / |im E_K| by the exact sequence, which
    `ray_class_group` checks; no ray class group is built here."""
    if _is_biquad_step(L, K, m):
        h = class_group(K).h * residue_system(K, m).order() // _unit_image(K, m)
        d_inf = (1, 1)  # K real, L totally real: both places stay real
        es = tuple(
            2 for p0 in L.k3.factor_D if K.D % p0
            for P, _, _ in factor_prime(K, p0)[1] if m.coprime_to(P)
        )
    else:
        h = rayclass_Q(m).order()
        d_inf = (1,) if L.is_real else (2,)
        es = tuple(2 for p0 in L.factor_D if m % p0)
    return h, d_inf, es, norm_index_units(L, K, m)


def _assemble(h: int, d_inf, es, idx: int) -> int:
    num = h * math.prod(d_inf) * math.prod(es)
    den = 2 * idx
    require(num % den == 0, f"the ambiguous count {num}/{den} is not integral")
    value = num // den
    require(value > 0, "the ambiguous count is not positive")
    return value


def _ramified_b(L: QuadField, n: int) -> int:
    """b with [n, b + w] the product of the ramified primes over the p0 | n,
    for n a squarefree divisor of D_L, in closed form: w^2 - t*w - u has
    the double root t/2 mod each odd p0 | D_L, so b = -t/2 mod an odd n,
    and at an even n (then t = 0) b = 0 mod n/2 and b = u mod 2."""
    return L.u % 2 * n // 2 if n % 2 == 0 else L.t * (n - 1) // 2


def _ramified_triples(L: QuadField, primes):
    """The prime (1, p0, b) over each ramified p0 of `primes`."""
    for p0 in primes:
        yield 1, p0, _ramified_b(L, p0)


def _ramified_closure(L: QuadField, ramified):
    """(generators, table, dropped) for the subgroup H of Cl_L that the
    ramified triples generate, grown with no ideal product: P^2 = (p0), so
    a prime P_i whose class is not in H doubles it, with the relation
    2*x_i. `table` maps the key of each class of H to j, the class being
    that of [n_j, b + w] with n_j the product of the p0 of the generators
    named by the bits of j, and b from `_ramified_b`; `dropped` holds the
    (triple, class key) of each prime whose class H already held. Each
    class costs one key (`_class_keys`)."""
    key_of = _class_keys(L)
    table = {key_of(1, 0): 0}
    norms, gens, dropped = [1], [], []  # norms[j] = n_j
    for P in ramified:
        _, p0, b = P
        if (lead := key_of(p0, b)) in table:
            dropped.append((P, lead))
            continue
        bit = table[lead] = len(norms)
        norms += [n * p0 for n in norms]
        table.update((key_of(n, _ramified_b(L, n)), j)
                     for j, n in enumerate(norms[bit + 1:], bit + 1))
        require(len(table) == len(norms), "a ramified prime's coset meets the subgroup")
        gens.append(P)
    return gens, table, dropped


def _direct_quadratic(L: QuadField, m: int) -> int:
    """The ramified primes of L over the p0 | D_L prime to m, read off the
    field's factorization of D_L, as the triples (1, p0, b) of
    `_ramified_triples`. The check that [p0, b + w] is a prime that is its
    own conjugate, p0 | N(b + w) = b^2 + t*b - u and p0 | 2b + t, holds
    exactly when p0 | D_L. `_ramified_closure` grows the subgroup H-bar of
    Cl_L they generate from the triples, with no ideal and no
    presentation of Cl_L built; for m = 1 the count is its order.

    For m > 1 the subgroup H of Cl^m_L that the primes and the (a) of
    `rayclass_Q_generators` generate has order |H-bar| times that of its
    part in the kernel (O_L/m)^*/im E_L of Cl^m_L -> Cl_L (Cohen, GTM 193,
    ch. 4). That part is generated by the residues of the a and of one
    generator per relation of the primes, read in closed form: P_i^2 = (p0)
    for a generator P_i, and a dropped P whose class has bits j makes
    P * prod P_i (i in j) = [N, b + w] principal, N = p0 * n_j, its
    generator's residue read by one `_cofactor_residue` walk. The relation
    also takes off the residue of n_j = prod p0_i, a sum of generator rows.
    Its order is that of the image of the units and those residues over
    that of the units (`ResidueSystem.image_order`); no relation matrix and
    no ray class group is built."""
    t, u = L.t, L.u
    ramified = list(_ramified_triples(L, [p0 for p0 in L.factor_D if m % p0]))
    require(all((b * (b + t) - u) % p0 == 0 == (2 * b + t) % p0
                for _, p0, b in ramified),
            "a prime dividing D_L is not ramified")
    gens, table, dropped = _ramified_closure(L, ramified)
    if m == 1:
        return len(table)
    residue = residue_system(L, modulus_from_rational(L, m))
    units = [residue.dlog(u) for u in unit_gens(L)]
    kernel = [residue.dlog_int(p0) for _, p0, _ in gens]
    for (_, p0, _), key in dropped:
        N = p0 * math.prod(P[1] for i, P in enumerate(gens) if table[key] >> i & 1)
        res = _cofactor_residue(L, (1, N, _ramified_b(L, N)), (), (), residue)
        require(res is not None, "a dropped ramified prime's product has no generator")
        kernel.append(res)
    kernel += [residue.dlog_int(a) for a in rayclass_Q_generators(m)]
    return len(table) * residue.image_order(units + kernel) // residue.image_order(units)


def _direct_biquad(L: BiquadField, K: QuadField, m: Modulus) -> int:
    """At h(L) = 1, Cl^m_L is (O_L/m_L)^* modulo the units, so the count is
    the order of the image of the units and of the generators of the
    ramified primes and the extended Cl^m_K over that of the units."""
    if class_number(L) != 1:
        raise BudgetError(
            "direct ambiguous count needs a principal biquadratic field"
        )
    R = l_residue_system(extend_modulus(L, m))
    units = [R.dlog(u) for u in [-L.one(), *unit_group(L).units]]
    gens = []
    for Q in _ramified_biquad(L, K, m):
        gamma = is_principal(Q)
        require(gamma is not None, "a ramified prime is not principal at h(L) = 1")
        gens.append(R.dlog(gamma))
    ray_K = ray_class_group(K, m)
    for P in ray_K.ideal_gens:
        gamma = is_principal(extend_ideal(L, P))
        require(gamma is not None, "an extended ideal is not principal at h(L) = 1")
        gens.append(R.dlog(gamma))
    k = len(ray_K.residue.factors)
    for i in range(k):
        z = ray_K.residue.crt_lift([int(c == i) for c in range(k)])
        gens.append(R.dlog(embed(L, z)))
    return R.image_order(units + gens) // R.image_order(units)


def ambiguous_count_direct(L, K, m) -> int:
    """Order of the subgroup of Cl^m_L generated by ambiguous ideals.

    Generators: ramified primes of L/K coprime to m, plus extensions of
    ideals representing every class of Cl^m_K.
    """
    if _is_biquad_step(L, K, m):
        return _direct_biquad(L, K, m)
    return _direct_quadratic(L, m)


# ---------------------------------------------------------------------------
# cases and sweeps


def ambig_case(case: tuple) -> AmbigReport:
    """One identity check.  ("quad", d, m) or ("biquad", d, p, j, (q, ...))."""
    kind = case[0]
    if kind == "quad":
        _, d, m = case
        d, m = int(d), int(m)
        L, K = quadratic_field(d), None
        extension, params = f"Q(sqrt({d}))/Q", ("quad", d, m)
    elif kind == "biquad":
        _, d, p, j, mod_primes = case
        d, p, j, mod_primes = int(d), int(p), int(j), tuple(mod_primes)
        L = biquad_field(d, p)
        if j not in (1, 2, 3):
            raise InputError(f"subfield index {j} is not 1, 2 or 3")
        K = (L.k1, L.k2, L.k3)[j - 1]
        m = modulus_from_rational(K, math.prod(mod_primes))
        extension = f"Q(sqrt({d}),sqrt({p}))/Q(sqrt({K.d}))"
        params = ("biquad", d, p, j, tuple(sorted(mod_primes)))
    else:
        raise InputError(f"unknown case kind {kind!r}")
    h, d_inf, es, idx = _formula_parts(L, K, m)
    return AmbigReport(
        extension=extension,
        params=params,
        base_ray_order=h,
        local_degrees=d_inf,
        ramified_e=es,
        degree=2,
        norm_index=idx,
        formula=_assemble(h, d_inf, es, idx),
        direct=ambiguous_count_direct(L, K, m),
    )


def fundamental_field_params(disc_bound: int) -> list[int]:
    """All squarefree d != 1 with fundamental |disc| <= disc_bound, sorted
    by |disc| then sign. D is d when d = 1 mod 4 and 4d otherwise, so a d
    whose |D| is past the bound is dropped before it is factored."""
    out = []
    for d in range(-disc_bound, disc_bound + 1):
        D = d if d % 4 == 1 else 4 * d
        if abs(D) <= disc_bound and d not in (0, 1) and squarefree_part(d) == d:
            out.append((abs(D), -(D > 0), d))
    return [d for _, _, d in sorted(out)]
