"""Splitting criteria for principalization primes.

A candidate prime p must split in the right Kummer-type extensions; at desk
scale every criterion collapses to congruences on p and to residue characters
chi(x) = x^((p-1)/ell^n) computed through a chosen square root of D mod p.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import InputError, InvariantError
from .exactmath import is_prime, sqrt_mod, squarefree_part, valuation
from .quadfield import (
    Modulus,
    QElt,
    QIdeal,
    QuadField,
    RayClassData,
    aug_unit_data,
    ray_class_group,
)


def is_split_cyclotomic(p: int, ell: int, n: int, includes_sqrt_units: bool) -> bool:
    """Whether p splits completely in Q(zeta_{ell^n}), optionally extended by
    ell^n-th roots of -1 (the rational unit radical). Splitting is the
    congruence p = 1 mod ell^n; adjoining sqrt[ell^n]{-1} sharpens the 2-part
    to p = 1 mod 2^(n+1)."""
    return is_prime(p) and p != ell and _cyclotomic_congruence(
        p, ell, n, includes_sqrt_units
    )


def _cyclotomic_congruence(
    p: int, ell: int, n: int, includes_sqrt_units: bool
) -> bool:
    """The congruence of `is_split_cyclotomic` alone, for a prime p != ell."""
    if (p - 1) % ell**n:
        return False
    return not (includes_sqrt_units and ell == 2 and (p - 1) % 2 ** (n + 1))


def prime_above_from_root(field, p: int, root: int) -> QIdeal:
    """The degree-one prime over p on which w maps to (t + root)/2 mod p."""
    return QIdeal(field, 1, p, -field.w_mod(p, root) % p)


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
    ok: bool
    failed_at: str | None  # "i" | "ii" | "iii" | "iv" | None
    checks: dict = dc_field(default_factory=dict)


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

    def forbidden(self, p: int) -> bool:
        """Primes excluded by the preconditions: p | 2 * ell * D * N(m)."""
        return (
            p < 3
            or p == self.params.ell
            or self.field.D % p == 0
            or self.modulus.norm() % p == 0
        )

    def decide(self, p: int, sieved: bool = False) -> tuple[str | None, int | None]:
        """(failed_at, root) at p: conditions (i')-(iv) in turn up to the
        first that fails, failed_at None when all pass, and root None when
        (i') fails. No report is built; the scan decides each candidate
        here. A `sieved` p is prime and not `forbidden`; any other p must
        have passed `forbidden`, and its primality is tested here."""
        params = self.params
        # (i'): split in the cyclotomic-with-unit-radical field and in K;
        # p is prime to D, so D has a square root mod p exactly when p
        # splits in K, and the root is the one (ii) and (iii) need
        split = _cyclotomic_congruence if sieved else is_split_cyclotomic
        r = sqrt_mod(self.field.D, p) if split(p, params.ell, params.n, True) else None
        if r is None:
            return "i", None
        root = min(r, p - r)
        # (ii): the prime above p sits in the target ray class
        if self.ray.dlog_prime(p, root) != self.target:
            return "ii", root
        # (iii): the eps-character has exact order ell^(n-h)
        _, ord_eps = residue_character(self.eps, p, params.ell, params.n, root)
        if ord_eps != params.ell ** (params.n - self.h):
            return "iii", root
        return (None if self.iv_ok else "iv"), root

    def check(self, p: int, sieved: bool = False) -> ConditionReport:
        """Conditions (i')-(iv) at p as a report: `decide`'s verdict and
        root, each condition's outcome up to the first failure, and, once
        (ii) passes, the eps and -1 characters. A `sieved` p comes from the
        scan's sieve, which has proved it prime and passed it through
        `forbidden`; any other p is tested for both here."""
        if not sieved and self.forbidden(p):
            raise InputError(f"candidate {p} violates the coprimality precondition")
        failed_at, root = self.decide(p, sieved)
        rep = ConditionReport(p=p, root=root, ok=failed_at is None, failed_at=failed_at)
        rep.checks["iv"] = self.iv_ok
        for cond in ("i", "ii"):
            rep.checks[cond] = failed_at != cond
            if failed_at == cond:
                return rep
        params = self.params
        for name, eta in (("eps", self.eps), ("minus_one", self.field.elt(-1, 0))):
            c, order = residue_character(eta, p, params.ell, params.n, root)
            rep.checks[f"{name}_character"] = {"value": c, "order": order}
        rep.checks["iii"] = failed_at != "iii"
        return rep
