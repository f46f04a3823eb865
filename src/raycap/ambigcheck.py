"""Two independent computations of the ambiguous ray-class count.

For a quadratic step L/K (either L quadratic over K = Q, or L biquadratic
over one of its quadratic subfields K) the classes of Gal(L/K)-stable ideals
inside Cl^m(L) form a subgroup whose order has a closed formula:

    |Cl^m_K| * prod d_inf * prod e_P / ([L:K] * (E^m_K : N(E^{m_L}_L)))

with d_inf the local degrees at the infinite places of K, e_P the
ramification indices at finite primes of K coprime to m, and the denominator
index taken on unit groups of elements that are 1 mod the respective moduli.
`ambiguous_count_formula` evaluates that expression factor by factor, from
discriminants and unit norms: it builds no prime of L, and over Q no
residue system. `ambiguous_count_direct` computes the order of the subgroup
of Cl^m(L) generated by ramified primes and extended K-ideals. Agreement
across a corpus is the regression signal. The two routes share the base ray
class group (`rayclass_Q` and its generators, or `ray_class_group`), and for
a biquadratic step `unit_group`, `extend_modulus` and the residue system
mod m_L inside the unit index. A fault in those would hit both sides alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from raycap.abgroup import FiniteAbelianGroup, group_from_relations, hnf_rows
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
    ResidueSystem,
    _primitive_root,
    factor_prime,
    fundamental_unit,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
    unit_gens,
)

__all__ = [
    "AmbigReport",
    "ambig_case",
    "ambig_sweep",
    "ambiguous_count_direct",
    "ambiguous_count_formula",
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
        return group_from_relations([], ()), ()
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
    group = group_from_relations(rows, tuple(f"g{i}" for i in range(n)))
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


def _embed_ge(a: QElt, b: QElt) -> bool:
    return (a - b).sign_real() >= 0


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
    if not _embed_ge(w, one):  # 0 < w < 1: flip to w^-1 = conj(w)*N(w)
        inv = True
        w = w.conj() * w.norm()
        if w.sign_real() < 0:
            w = -w  # N(w) = -1 flips the sign back
            s ^= 1
    # binary ladder: largest power of eps not exceeding w, then descend
    powers = [eps]
    while _embed_ge(w, powers[-1] * powers[-1]):
        powers.append(powers[-1] * powers[-1])
    a, cur = 0, one
    for k in range(len(powers) - 1, -1, -1):
        step = cur * powers[k]
        if _embed_ge(w, step):
            cur = step
            a += 1 << k
    if cur != w:
        raise InputError("element is not in <-1, eps>")
    if inv:
        a = -a
    return s, a


# ---------------------------------------------------------------------------
# congruence-unit lattices and the norm index


def _unit_lattice(residue: ResidueSystem, units) -> list[list[int]]:
    """Exponent lattice, over `units`, of the units that are 1 mod the
    modulus of `residue`: the kernel of their classes in (O/m)^*.

    The HNF of [classes | I] above [relations | 0] ends in the rows whose
    class part is zero, and those span the kernel. An SNF with its row
    transform finds the same lattice, but on some small unit matrices its
    entries grow to thousands of digits."""
    r = len(units)
    if not residue.factors:  # trivial modulus: every unit is 1 mod m
        return [[1 if j == i else 0 for j in range(r)] for i in range(r)]
    s = residue.group.rank
    stacked = residue.group.stacked([residue.vector(u) for u in units])
    rows = [row + [int(i == j) for j in range(r)] for i, row in enumerate(stacked)]
    kernel = [h[s:] for h in hnf_rows(rows) if not any(h[:s])]
    require(len(kernel) == r, "the unit kernel is not of full rank")
    return kernel


def _quotient_order(sub_rows: list[list[int]]) -> int:
    """|E_K / H| for E_K = <-1, eps> of a real quadratic K, with H given by
    rows over that basis: the product of the pivots of the HNF of H and the
    relation (-1)^2 = 1."""
    h = hnf_rows([[2, 0]] + [list(r) for r in sub_rows])
    require(len(h) == 2, "the unit subgroup has infinite index")
    return h[0][0] * h[1][1]


def norm_index_units(L, K, m) -> int:
    """Index (E^m_K : N_{L/K}(E^{m_L}_L)) for a degree-2 step L/K.

    Shapes: L quadratic with K None (meaning Q) and m an odd integer, or L
    biquadratic with K one of its quadratic subfields and m a Modulus of K.
    Over Q the index is read off the unit norms: E^m_Q = {+-1} only for
    m = 1, and a unit that is 1 mod m_L has norm 1 mod m, so the index is 1
    for m > 1; for m = 1 it is 1 when L is real with N(eps) = -1, else 2.
    Over K it is |E_K / N| / |E_K / E^m_K| on the basis (-1, eps_K), with N
    the norms of the exponent lattice of E^{m_L}_L over (-1, units of L).
    """
    if not _is_biquad_step(L, K, m):
        if m > 1:
            return 1
        return 1 if L.is_real and fundamental_unit(L).norm() == -1 else 2
    j = (L.k1, L.k2, L.k3).index(K) + 1
    U = unit_group(L)
    lgens = [-L.one()] + list(U.units)
    lattice = _unit_lattice(l_residue_system(extend_modulus(L, m)), lgens)
    # relative norms of the generators, expressed over (-1, eps_K)
    norm_logs = [(0, 0)] + [unit_dlog(K, v.rel_norm(j)) for v in U.units]
    norm_rows = [
        [sum(a * v[c] for a, v in zip(row, norm_logs)) for c in range(2)]
        for row in lattice
    ]
    over_norms = _quotient_order(norm_rows)
    over_em = _quotient_order(_unit_lattice(ray_class_group(K, m).residue, unit_gens(K)))
    require(over_norms % over_em == 0, "the norm subgroup is not inside E^m_K")
    return over_norms // over_em


# ---------------------------------------------------------------------------
# ramified primes of the direct side


def _ramified_biquad(L: BiquadField, K: QuadField, m: Modulus):
    """A prime Q of L over each prime P of K coprime to m with e_P(L/K) = 2,
    read off the primes of L."""
    out = []
    for p0 in sorted(factor(L.k3.D)):
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
        return {
            "extension": self.extension,
            "params": list(self.params),
            "base_ray_order": self.base_ray_order,
            "local_degrees": list(self.local_degrees),
            "ramified_e": list(self.ramified_e),
            "degree": self.degree,
            "norm_index": self.norm_index,
            "formula": self.formula,
            "direct": self.direct,
            "equal": self.equal,
        }


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
    dividing D_K (for L quadratic over Q, D3 = D_L and D_K = 1)."""
    if _is_biquad_step(L, K, m):
        h = ray_class_group(K, m).group.order()
        d_inf = (1, 1)  # K real, L totally real: both places stay real
        es = tuple(
            2 for p0 in factor(L.k3.D) if K.D % p0
            for P, _, _ in factor_prime(K, p0)[1] if m.coprime_to(P)
        )
    else:
        h = rayclass_Q(m).order()
        d_inf = (1,) if L.is_real else (2,)
        es = tuple(2 for p0 in factor(abs(L.D)) if m % p0)
    return h, d_inf, es, norm_index_units(L, K, m)


def _assemble(h: int, d_inf, es, idx: int) -> int:
    num = h * math.prod(d_inf) * math.prod(es)
    den = 2 * idx
    require(num % den == 0, f"the ambiguous count {num}/{den} is not integral")
    value = num // den
    require(value > 0, "the ambiguous count is not positive")
    return value


def ambiguous_count_formula(L, K, m) -> int:
    """Closed-form order of the ambiguous-ideal class subgroup of Cl^m_L."""
    return _assemble(*_formula_parts(L, K, m))


def _direct_quadratic(L: QuadField, m: int) -> int:
    m_L = modulus_from_rational(L, m)
    ray = ray_class_group(L, m_L)
    vecs = []
    for p0 in sorted(factor(abs(L.D))):
        if m % p0 == 0:
            continue
        kind, data = factor_prime(L, p0)
        require(kind == "ramified", "a prime dividing D_L is not ramified")
        vecs.append(ray.dlog(data[0][0]))
    for a in rayclass_Q_generators(m):
        vecs.append(ray.class_of_principal(QElt(L, a, 0)))
    return ray.group.subgroup_order(vecs)


def _direct_biquad(L: BiquadField, K: QuadField, m: Modulus) -> int:
    if class_number(L) != 1:
        raise BudgetError(
            "direct ambiguous count needs a principal biquadratic field"
        )
    m_L = extend_modulus(L, m)
    R = l_residue_system(m_L)
    k = len(R.factors)
    rows = [[R.orders[i] if c == i else 0 for c in range(k)] for i in range(k)]
    for u in [-L.one()] + list(unit_group(L).units):
        rows.append(list(R.dlog(u)))
    # the HNF spans the same lattice; unreduced unit rows make snf's entries
    # grow to thousands of digits
    quo = group_from_relations(hnf_rows(rows), tuple(f"r{i}" for i in range(k)))

    def class_vec(gamma):
        return quo.dlog_ambient(R.dlog(gamma))

    vecs = []
    for Q in _ramified_biquad(L, K, m):
        gamma = is_principal(Q)
        require(gamma is not None, "a ramified prime is not principal at h(L) = 1")
        vecs.append(class_vec(gamma))
    ray_K = ray_class_group(K, m)
    for P in ray_K.ideal_gens:
        gamma = is_principal(extend_ideal(L, P))
        require(gamma is not None, "an extended ideal is not principal at h(L) = 1")
        vecs.append(class_vec(gamma))
    for i in range(len(ray_K.residue.factors)):
        e_i = [1 if c == i else 0 for c in range(len(ray_K.residue.factors))]
        z = ray_K.residue.crt_lift(e_i)
        vecs.append(class_vec(embed(L, z)))
    return quo.subgroup_order(vecs)


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


def ambig_sweep(cases) -> list[AmbigReport]:
    """Reports for each case, in input order.  Callers check .equal."""
    return [ambig_case(tuple(c)) for c in cases]


def fundamental_field_params(disc_bound: int) -> list[int]:
    """All squarefree d != 1 with fundamental |disc| <= disc_bound, sorted
    by |disc| then sign."""
    out = []
    for d in range(-disc_bound, disc_bound + 1):
        if d in (0, 1) or squarefree_part(d) != d:
            continue
        D = QuadField(d).D
        if abs(D) <= disc_bound:
            out.append((abs(D), -(D > 0), d))
    return [d for _, _, d in sorted(out)]

