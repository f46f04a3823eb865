"""Both routes to the ambiguous ray-class count, checked against each other
and against independent oracles: brute-force (Z/m)^* / {+-1} arithmetic for
the rational ray group, and the genus-theory closed form 2^(t-1) / 2^(t-2)
for the m = 1 quadratic cases."""
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ambiguous_count_by_ray_group,
    det_bareiss,
    group_add,
    group_identity,
    quadratic_norm_index,
)
from raycap import ambigcheck, exactmath
from raycap.abgroup import hnf_rows, lattice_index
from raycap.ambigcheck import (
    AmbigReport,
    _assemble,
    _formula_parts,
    _ramified_biquad,
    _unit_lattice,
    ambig_case,
    ambiguous_count_direct,
    fundamental_field_params,
    norm_index_units,
    rayclass_Q,
    rayclass_Q_generators,
    unit_dlog,
)
from raycap.biquad import (
    biquad_field,
    class_number,
    extend_modulus,
    l_residue_system,
    unit_group,
)
from raycap.errors import BudgetError, InputError, InvariantError
from raycap.exactmath import factor, squarefree_part
from raycap.quadfield import (
    QElt,
    QIdeal,
    QuadField,
    _coset_closure,
    _prime_triples,
    _relation_residue,
    class_group,
    class_key,
    fundamental_unit,
    modulus_from_rational,
    quadratic_field,
    residue_system,
    unit_gens,
)


RAMIFIED = "a prime dividing D_L is not ramified"
NO_GENERATOR = "a dropped ramified prime's product has no generator"


def _run_python_O(code: str) -> str:
    """The stdout of `code` run by `python -O` on this checkout's library."""
    src = str(Path(ambigcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def ambiguous_count_formula(L, K, m) -> int:
    """The closed-form count, assembled from its factors as `ambig_case`
    assembles it."""
    return _assemble(*_formula_parts(L, K, m))


def kernel_index_by_relation_hnf(L, m: int) -> tuple[int, int]:
    """(lattice_index(units + kernel), primes dropped) of the m > 1
    quadratic direct side, its kernel read from the relations of the
    ramified primes: the rows 2*x_i of the closure's generators and
    (-vec, 1) of each prime it drops, vec the bits of its class's j, their
    `hnf_rows` basis and one `_relation_residue` walk per basis row."""
    ramified = list(ambigcheck._ramified_triples(L, [p0 for p0 in L.factor_D if m % p0]))
    gens, table, dropped = ambigcheck._ramified_closure(L, ramified)
    k, n = len(gens), len(dropped)
    rows = [[2 * (j == i) for j in range(k + n)] for i in range(k)]
    rows += [[-(table[key] >> j & 1) for j in range(k)] + [int(j == i) for j in range(n)]
             for i, (_, key) in enumerate(dropped)]
    ideals = [QIdeal(L, *P) for P in gens + [P for P, _ in dropped]]
    residue = residue_system(L, modulus_from_rational(L, m))
    s = len(residue.orders)
    units = [[o * (j == i) for j in range(s)] for i, o in enumerate(residue.orders)]
    units += [residue.dlog(u) for u in unit_gens(L)]
    kernel = [_relation_residue(L, rel, ideals, residue) for rel in hnf_rows(rows)]
    kernel += [residue.dlog_int(a) for a in rayclass_Q_generators(m)]
    return lattice_index(units + kernel), n


# ---------------------------------------------------------------------------
# brute-force oracle for (Z/m)^* modulo {+-1}


def _cls(a: int, m: int) -> int:
    a %= m
    return min(a, (m - a) % m)


def brute_classes(m: int) -> set[int]:
    if m <= 2:
        return {1 % m}
    return {_cls(a, m) for a in range(1, m) if math.gcd(a, m) == 1}


def brute_order(a: int, m: int) -> int:
    k, x = 1, a % m
    while _cls(x, m) != _cls(1, m):
        x = x * a % m
        k += 1
    return k


def brute_closure(gens, m: int) -> set[int]:
    seen = {_cls(1, m)}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if _cls(y, m) not in seen:
                seen.add(_cls(y, m))
                frontier.append(y)
    return seen


SQUAREFREE_M = [m for m in range(1, 101) if all(k == 1 for k in factor(m).values())]


class TestRayclassQ:
    def test_trivial_moduli(self):
        assert rayclass_Q(1).order() == 1
        assert rayclass_Q(2).order() == 1
        assert rayclass_Q_generators(2) == ()

    def test_mod_five(self):
        assert rayclass_Q(5).invariants == (2,)

    def test_mod_twelve(self):
        # (Z/12)^* is a Klein group and -1 folds one factor away
        assert rayclass_Q(12).invariants == (2,)
        assert rayclass_Q_generators(12) == (7, 5)

    @pytest.mark.parametrize("m", SQUAREFREE_M)
    def test_matches_brute_squarefree(self, m):
        self._check_against_brute(m)

    @pytest.mark.parametrize("m", [4, 8, 9, 12, 16, 45, 99, 100])
    def test_matches_brute_prime_powers(self, m):
        # squarefree is all the callers need, but the construction is general
        self._check_against_brute(m)

    def _check_against_brute(self, m):
        group = rayclass_Q(m)
        classes = brute_classes(m)
        assert group.order() == len(classes)
        # same number of solutions of x^e = 1 for every divisor e: fixes the
        # isomorphism class without picking a generator set
        for e in range(1, group.order() + 1):
            if group.order() % e:
                continue
            brute_killed = sum(1 for a in classes if _cls(pow(a, e, m) if m > 1 else 0, m) == _cls(1, m))
            group_killed = math.prod(math.gcd(e, n) for n in group.invariants)
            assert brute_killed == group_killed
        gens = rayclass_Q_generators(m)
        assert all(math.gcd(g, m) == 1 for g in gens)
        assert brute_closure(gens, m) == classes
        # the i-th residue is the i-th ambient basis vector of the group
        for i, g in enumerate(gens):
            e_i = [1 if j == i else 0 for j in range(len(gens))]
            assert group.element_order(group.dlog_ambient(e_i)) == brute_order(g, m)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            rayclass_Q(0)


# ---------------------------------------------------------------------------
# exact unit discrete logs


class TestUnitDlog:
    @settings(max_examples=60)
    @given(
        d=st.sampled_from([2, 3, 5, 13, 34]),
        a=st.integers(min_value=-50, max_value=50),
        s=st.booleans(),
    )
    def test_roundtrip(self, d, a, s):
        field = quadratic_field(d)
        eps = fundamental_unit(field)
        base = eps if a >= 0 else eps.conj() * eps.norm()
        w = base ** abs(a)
        if s:
            w = -w
        assert unit_dlog(field, w) == (int(s), a)

    def test_huge_exponent_is_exact(self):
        field = quadratic_field(5)
        eps = fundamental_unit(field)
        assert unit_dlog(field, eps**2000) == (0, 2000)

    def test_rejects_non_units(self):
        field = quadratic_field(2)
        with pytest.raises(InputError):
            unit_dlog(field, QElt(field, 2, 0))

    def test_rejects_imaginary_field(self):
        field = quadratic_field(-1)
        with pytest.raises(InputError):
            unit_dlog(field, QElt(field, -1, 0))


# ---------------------------------------------------------------------------
# the unit norm index


class TestNormIndexUnits:
    def test_norm_minus_one_unit_gives_index_one(self):
        assert norm_index_units(quadratic_field(2), None, 1) == 1

    def test_norm_plus_one_unit_gives_index_two(self):
        assert norm_index_units(quadratic_field(3), None, 1) == 2

    def test_gaussian_mod_five(self):
        # E^5_Q is trivial, so nothing to measure
        assert norm_index_units(quadratic_field(-1), None, 5) == 1

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 11, 13, 15, 34])
    def test_trivial_modulus_reads_off_the_unit_norm(self, d):
        field = quadratic_field(d)
        want = 1 if fundamental_unit(field).norm() == -1 else 2
        assert norm_index_units(field, None, 1) == want

    def test_a_prime_3_mod_4_in_D_skips_the_period(self, monkeypatch):
        """For every real squarefree d < 5000 the m = 1 index is 1 exactly
        when the unit built has norm -1, and the period is walked
        (`fundamental_unit_norm`) only for the fields with no prime
        p = 3 mod 4 dividing D: with one, N(eps) = 1."""
        walked, walk = [], ambigcheck.fundamental_unit_norm
        monkeypatch.setattr(ambigcheck, "fundamental_unit_norm",
                            lambda L: walked.append(L.d) or walk(L))
        expected = []
        for d in range(2, 5000):
            if squarefree_part(d) != d:
                continue
            L = quadratic_field(d)
            want = 1 if fundamental_unit.__wrapped__(L).norm() == -1 else 2
            assert norm_index_units(L, None, 1) == want, d
            if all(p % 4 != 3 for p in factor(L.D)):
                expected.append(d)
        assert walked == expected and len(expected) == 778

    @pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7])
    def test_imaginary_trivial_modulus_is_two(self, d):
        # norms of roots of unity are +1, and E^1_Q = {+-1}
        assert norm_index_units(quadratic_field(d), None, 1) == 2

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 15, 21, 105])
    def test_closed_form_equals_the_lattice_reference(self, m):
        # every field with |D| <= 1000, so m shares primes with D in many
        for d in fundamental_field_params(1000):
            L = quadratic_field(d)
            assert norm_index_units(L, None, m) == quadratic_norm_index(L, m), d

    def test_biquad_values(self):
        # pinned by the count identity on class-number-one fields
        L = biquad_field(2, 5)
        assert norm_index_units(L, L.k1, modulus_from_rational(L.k1, 1)) == 1
        L = biquad_field(6, 5)
        assert norm_index_units(L, L.k1, modulus_from_rational(L.k1, 1)) == 2

    def test_unit_lattice_is_the_kernel_of_the_unit_classes(self):
        # (O_L/m_L)^* = (Z/12)^4 x (Z/120)^2 for the primes of
        # Q(sqrt 10, sqrt 29) over 11 and 13; an SNF of these unit classes
        # above their relations grows its entries to thousands of digits
        L = biquad_field(10, 29)
        res = l_residue_system(extend_modulus(L, modulus_from_rational(L.k1, 143)))
        G = res.group
        units = [-L.one()] + list(unit_group(L).units)
        vecs = [res.vector(u) for u in units]
        lattice = _unit_lattice(res, units)
        for row in lattice:
            image = [sum(a * v[c] for a, v in zip(row, vecs)) for c in range(G.rank)]
            assert G.reduce(image) == group_identity(G)
        # the index of the kernel is the order of the image, found by brute force
        seen, frontier = {group_identity(G)}, [group_identity(G)]
        while frontier:
            x = frontier.pop()
            for v in vecs:
                y = group_add(G, x, v)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert abs(det_bareiss(lattice)) == len(seen)
        # the formula side now ends, and the direct side needs h(L) = 1
        assert class_number(L) != 1
        with pytest.raises(BudgetError):
            ambig_case(("biquad", 10, 29, 1, (11, 13)))

    def test_ambig_case_computes_it_once(self, monkeypatch):
        real, calls = norm_index_units, []

        def counting(L, K, m):
            calls.append((L, K, m))
            return real(L, K, m)

        monkeypatch.setattr(ambigcheck, "norm_index_units", counting)
        for case in [("quad", -5, 1), ("quad", 2, 7), ("quad", 21, 7),
                     ("biquad", 2, 5, 1, (11,)), ("biquad", 7, 5, 3, ())]:
            calls.clear()
            report = ambig_case(case)
            assert len(calls) == 1 and report.norm_index == real(*calls[0])

    def test_shape_errors(self):
        L = biquad_field(2, 5)
        other = quadratic_field(7)
        with pytest.raises(InputError):
            norm_index_units(L, other, modulus_from_rational(other, 1))
        with pytest.raises(InputError):
            norm_index_units(L, L.k1, modulus_from_rational(L.k2, 1))
        with pytest.raises(InputError):
            norm_index_units(quadratic_field(2), quadratic_field(2), 1)
        with pytest.raises(InputError):
            norm_index_units("Q", None, 1)
        with pytest.raises(InputError, match="positive"):
            norm_index_units(quadratic_field(2), None, -3)
        with pytest.raises(InputError, match="odd norm"):
            norm_index_units(L, L.k1, modulus_from_rational(L.k1, 2))


# ---------------------------------------------------------------------------
# the two counts


def genus_expected(d: int) -> int:
    """Classical closed form for the ambiguous-ideal count at m = 1."""
    field = quadratic_field(d)
    t = len(factor(abs(field.D)))
    if d < 0:
        return 2 ** (t - 1)
    if fundamental_unit(field).norm() == -1:
        return 2 ** (t - 1)
    return 2 ** (t - 2)


class TestAmbiguousCounts:
    def test_formula_real_split(self):
        assert ambiguous_count_formula(quadratic_field(2), None, 1) == 1

    def test_formula_gaussian_mod_five(self):
        assert ambiguous_count_formula(quadratic_field(-1), None, 5) == 4

    def test_direct_real_split(self):
        assert ambiguous_count_direct(quadratic_field(2), None, 1) == 1

    def test_direct_gaussian_mod_five(self):
        assert ambiguous_count_direct(quadratic_field(-1), None, 5) == 4

    def test_genus_sanity_minus_five(self):
        field = quadratic_field(-5)
        assert ambiguous_count_formula(field, None, 1) == 2
        assert ambiguous_count_direct(field, None, 1) == 2

    def test_degenerate_rational(self):
        # the empty step over Q is not a degree-2 step
        for count in (ambiguous_count_formula, ambiguous_count_direct):
            with pytest.raises(InputError, match="unsupported extension shape"):
                count(None, None, 7)

    def test_degenerate_quadratic(self):
        # L = K is not a degree-2 step
        K = quadratic_field(-5)
        m = modulus_from_rational(K, 3)
        for count in (ambiguous_count_formula, ambiguous_count_direct):
            with pytest.raises(InputError, match="unsupported extension shape"):
                count(K, K, m)

    def test_ambiguous_ideals_versus_ambiguous_classes(self):
        # h(Q(sqrt 34)) = 2, yet both ramified primes are principal
        # (6 + sqrt34 and 17 + 3 sqrt34 have norms 2 and -17), so the
        # count of classes of ambiguous ideals is 1, not 2
        field = quadratic_field(34)
        assert class_group(field).h == 2
        assert ambiguous_count_formula(field, None, 1) == 1
        assert ambiguous_count_direct(field, None, 1) == 1

    @pytest.mark.parametrize("d", fundamental_field_params(120))
    def test_trivial_modulus_matches_genus_theory(self, d):
        field = quadratic_field(d)
        want = genus_expected(d)
        assert ambiguous_count_formula(field, None, 1) == want
        assert ambiguous_count_direct(field, None, 1) == want

    def test_trivial_modulus_matches_the_ray_group_route(self):
        """At m = 1 the direct side closes the ramified primes of L; the
        ray class group of the trivial modulus, built on its own generators
        and basis, gives the same order for every field with |D_L| <= 2000,
        for d = 10^9 + 7 (a long principal cycle) and for d = -15015
        (2-rank 4)."""
        ds = fundamental_field_params(2000) + [10**9 + 7, -15015]
        assert min(ds) < 0 < max(ds)
        bad = [d for d in ds
               if ambiguous_count_direct(quadratic_field(d), None, 1)
               != ambiguous_count_by_ray_group(quadratic_field(d))]
        assert bad == []

    def test_modulus_matches_the_ray_group_route(self):
        """For m > 1 the direct side reads the kernel part of its count in
        (O_L/m)^* and builds no ray class group; the subgroup of the ray
        class group of m that the ramified primes and the (a) generate has
        the same order for every field with |D_L| <= 600 and each m, m
        sharing primes with D_L or not."""
        ds = fundamental_field_params(600)
        moduli = (3, 5, 7, 11, 15, 21, 105)
        assert len(ds) * len(moduli) == 2562
        bad = [(d, m) for d in ds for m in moduli
               if ambiguous_count_direct(quadratic_field(d), None, m)
               != ambiguous_count_by_ray_group(quadratic_field(d), m)]
        assert bad == []

    @pytest.mark.parametrize("d,m,count", [(-1, 3, 2), (-3, 5, 4)])
    def test_a_prime_the_closure_drops_keeps_its_relation(self, d, m, count):
        """In Q(sqrt -1) and Q(sqrt -3) the one ramified prime is principal,
        so the closure drops it; its generator's residue still enlarges the
        kernel part (without it, Q(sqrt -1) mod 3 counts 1)."""
        L = quadratic_field(d)
        assert ambiguous_count_direct(L, None, m) == count
        assert ambiguous_count_by_ray_group(L, m) == count

    def test_closed_form_kernel_spans_the_relation_lattice(self, monkeypatch):
        """The closed-form kernel rows (the residue of p0 per closure
        generator, that of the generator of [p0 * n_j, b + w] per dropped
        prime) span, with the units, the lattice of the residues of the
        `hnf_rows` basis of the primes' relations: lattice_index(units +
        kernel), and so the count, agree for every field with |D_L| <= 4000
        and each m, m sharing primes with D_L or not."""
        real, seen = ambigcheck.lattice_index, []
        monkeypatch.setattr(ambigcheck, "lattice_index",
                            lambda rows: seen.append(real(rows)) or seen[-1])
        ds, moduli = fundamental_field_params(4000), (3, 5, 7, 11, 15, 21, 105)
        bad, dropping = [], 0
        for d in ds:
            L = quadratic_field(d)
            for m in moduli:
                ambiguous_count_direct(L, None, m)
                index, drops = kernel_index_by_relation_hnf(L, m)
                dropping += drops > 0
                if seen[-1] != index:
                    bad.append((d, m))
        assert bad == []
        assert (len(ds) * len(moduli), dropping) == (17031, 14545)

    def test_a_dropped_product_without_a_generator_raises(self, monkeypatch):
        """A dropped prime's product with the primes of its class is
        principal, and the walk that reads its generator's residue must
        find one: a walk that finds none raises (exit 8) with its own
        message."""
        monkeypatch.setattr(ambigcheck, "_cofactor_residue", lambda *args: None)
        assert ambiguous_count_direct(quadratic_field(-1), None, 1) == 1
        with pytest.raises(InvariantError, match=NO_GENERATOR) as err:
            ambiguous_count_direct(quadratic_field(-1), None, 3)
        assert err.value.exit_code == 8

    def test_the_generator_check_survives_python_O(self):
        """The same fault in a `python -O` process raises the same check."""
        code = (
            "import raycap.ambigcheck as ac\n"
            "from raycap.errors import InvariantError\n"
            "from raycap.quadfield import quadratic_field\n"
            "ac._cofactor_residue = lambda *args: None\n"
            "try:\n"
            "    ac.ambiguous_count_direct(quadratic_field(-1), None, 3)\n"
            "except InvariantError as e:\n"
            "    print(__debug__, e.exit_code, e)\n"
        )
        assert _run_python_O(code) == f"False 8 invariant failed: {NO_GENERATOR}\n"

    @pytest.mark.parametrize(
        "d,m",
        [(-5, 5), (-5, 15), (10, 5), (34, 17), (15, 15), (21, 7), (-21, 21),
         (-35, 35), (2, 7), (-6, 35), (13, 3), (-13, 11)],
    )
    def test_formula_equals_direct_with_modulus(self, d, m):
        field = quadratic_field(d)
        formula = ambiguous_count_formula(field, None, m)
        assert formula == ambiguous_count_direct(field, None, m)
        assert formula >= 1

    @pytest.mark.parametrize(
        "case",
        [
            ("biquad", 2, 5, 1, ()),
            ("biquad", 6, 5, 1, ()),
            ("biquad", 3, 5, 1, (7,)),
            ("biquad", 2, 5, 1, (11,)),
            ("biquad", 2, 13, 2, ()),
            ("biquad", 2, 13, 3, (7,)),
            ("biquad", 3, 5, 2, (11,)),
            ("biquad", 7, 5, 3, ()),
            ("biquad", 2, 5, 1, (5,)),
        ],
    )
    def test_biquad_formula_equals_direct(self, case):
        report = ambig_case(case)
        assert report.equal, report.as_dict()
        assert report.degree == 2
        assert report.formula >= 1

    def test_biquad_identity_over_a_sub_grid(self):
        """Every squarefree 1 < d < 30, prime p = 1 mod 4 below 42 and prime
        to d, j = 1, 2, 3 and m = 1, 3, 7, 11: each case agrees, or raises
        BudgetError because h(L) > 1, where the direct side has no count.
        Both sides reach `unit_group`, whose index search runs
        `sqrt_in_biquad`, and the direct side `is_principal`."""
        agree = budget = 0
        for d in range(2, 30):
            if squarefree_part(d) != d:
                continue
            for p in (5, 13, 17, 29, 37, 41):
                if d % p == 0:
                    continue
                for j, mods in itertools.product((1, 2, 3), ((), (3,), (7,), (11,))):
                    try:
                        report = ambig_case(("biquad", d, p, j, mods))
                    except BudgetError:
                        assert class_number(biquad_field(d, p)) > 1, (d, p)
                        budget += 1
                        continue
                    assert report.equal, report.as_dict()
                    agree += 1
        assert (agree, budget) == (864, 276)

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_biquad_ramification_from_discriminants(self, p):
        """The formula side's e_P, read off D3 and D_K, equal the direct
        side's, read off the primes of L: over k1, k2 and k3, with 2 | D1
        for d = 2, 3 (mod 4), and with moduli through p and through D1."""
        for d in (2, 3, 6, 7, 10, 11, 14, 15, 21, 33, 35):
            if d % p == 0:
                continue
            L = biquad_field(d, p)
            for j, K in enumerate((L.k1, L.k2, L.k3), 1):
                for q in (1, 3, 7, p, 3 * p, 21):
                    m = modulus_from_rational(K, q)
                    want = (2,) * len(_ramified_biquad(L, K, m))
                    assert _formula_parts(L, K, m)[2] == want, (d, p, j, q)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_biquad_unit_relations_stay_small(self, j):
        """Q(sqrt 3, sqrt 5) mod 11*13: with the raw unit rows the quotient's
        Smith form grew entries past 4,000 digits and did not return."""
        report = ambig_case(("biquad", 3, 5, j, (11, 13)))
        assert report.equal and report.direct == report.formula == 120

    def test_nonprincipal_biquad_is_a_budget_error(self):
        L = biquad_field(5, 29)
        assert class_number(L) != 1
        with pytest.raises(BudgetError):
            ambiguous_count_direct(L, L.k1, modulus_from_rational(L.k1, 1))

    def test_invariants_raise_under_any_optimisation(self, monkeypatch):
        """At h(L) = 1 every ramified prime is principal; that check is
        raised, not asserted, so `python -O` keeps it (exit 8)."""
        import raycap.ambigcheck as ac

        monkeypatch.setattr(ac, "is_principal", lambda I: None)
        L = biquad_field(3, 5)
        with pytest.raises(InvariantError, match="not principal") as err:
            ambiguous_count_direct(L, L.k1, modulus_from_rational(L.k1, 7))
        assert err.value.exit_code == 8

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_triple_that_is_not_its_own_conjugate_raises(self, monkeypatch, m):
        """The quadratic direct side builds the ramified primes as closed-form
        triples (1, p0, b) and requires p0 | N(b + w) and p0 | 2b + t of
        each, the test that [p0, b + w] is a prime that is its own
        conjugate: handed the prime over 5 with b one off, it raises
        (exit 8) before the closure or the residues read the triple."""
        real = ambigcheck._ramified_triples
        monkeypatch.setattr(ambigcheck, "_ramified_triples", lambda L, ps: [
            (g, p, (b + (p == 5)) % p) for g, p, b in real(L, ps)])
        with pytest.raises(InvariantError, match=RAMIFIED) as err:
            ambiguous_count_direct(quadratic_field(-5), None, m)
        assert err.value.exit_code == 8

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_prime_of_the_discriminant_without_a_triple_raises(self, monkeypatch, m):
        """A p0 | D_L whose triple is built at a listed prime that does not
        divide D_L (3 in place of 5) fails the same check."""
        real = ambigcheck._ramified_triples
        monkeypatch.setattr(ambigcheck, "_ramified_triples", lambda L, ps: real(
            L, [3 if p == 5 else p for p in ps]))
        with pytest.raises(InvariantError, match=RAMIFIED) as err:
            ambiguous_count_direct(quadratic_field(-5), None, m)
        assert err.value.exit_code == 8

    def test_a_listed_two_of_an_odd_discriminant_raises(self, monkeypatch):
        """At p0 = 2 the norm test alone is not enough: in Q(sqrt 17),
        D = 1 mod 8, the triple (1, 2, u mod 2) has even norm b^2 + b - u,
        since 2 splits; p0 | 2b + t = 1 fails, so the check raises."""
        real = ambigcheck._ramified_triples
        monkeypatch.setattr(ambigcheck, "_ramified_triples", lambda L, ps: real(L, [2, *ps]))
        with pytest.raises(InvariantError, match=RAMIFIED):
            ambiguous_count_direct(quadratic_field(17), None, 1)

    def test_the_ramification_check_survives_python_O(self):
        """The check is raised, not asserted: a `python -O` process handed
        the same bad triple raises it too."""
        code = (
            "import raycap.ambigcheck as ac\n"
            "from raycap.errors import InvariantError\n"
            "from raycap.quadfield import quadratic_field\n"
            "real = ac._ramified_triples\n"
            "ac._ramified_triples = lambda L, ps: [(g, p, (b + (p == 5)) % p)"
            " for g, p, b in real(L, ps)]\n"
            "try:\n"
            "    ac.ambiguous_count_direct(quadratic_field(-5), None, 1)\n"
            "except InvariantError as e:\n"
            "    print(__debug__, e.exit_code, e)\n"
        )
        assert _run_python_O(code) == f"False 8 invariant failed: {RAMIFIED}\n"

    def test_closed_form_triples_are_the_root_search_triples(self):
        """Each closed-form ramified triple is the triple `_prime_triples`
        finds by its root search, for every p0 | D_L with |D_L| <= 4000."""
        checked = 0
        for d in fundamental_field_params(4000):
            L = QuadField(d)
            primes = list(factor(abs(L.D)))
            assert list(ambigcheck._ramified_triples(L, primes)) == list(
                _prime_triples(L, primes)), d
            checked += len(primes)
        assert checked == 5145

    def test_the_ramified_closure_is_the_coset_closure(self):
        """`_ramified_closure`, which takes no ideal product, gives the
        generators, the table (j read as the bits of an exponent vector)
        and the rows 2*x_i that `_coset_closure` grows from the same
        ramified triples by products, for every field with |D_L| <= 4000,
        and each prime it drops with the `class_key` of its class, a class
        of the table."""
        drops = 0
        for d in fundamental_field_params(4000):
            L = quadratic_field(d)
            ramified = list(ambigcheck._ramified_triples(L, L.factor_D))
            gens, table, dropped = ambigcheck._ramified_closure(L, ramified)
            k = len(gens)
            vecs = {key: tuple(j >> i & 1 for i in range(k)) for key, j in table.items()}
            rows = [[2 * (j == i) for j in range(k)] for i in range(k)]
            assert (gens, vecs, rows) == _coset_closure(L, ramified), d
            assert [P for P, _ in dropped] == [P for P in ramified if P not in gens], d
            for P, key in dropped:
                assert key == class_key(QIdeal(L, *P)) and key in table, d
            drops += len(dropped)
        assert drops == 3232

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_coset_that_meets_the_subgroup_raises(self, monkeypatch, m):
        """P^2 = (p0) makes each new coset of the ramified closure disjoint
        from the subgroup; keys that put the product over 2 * 5 on the
        principal class, as a faulty reduction would, fail that check
        (exit 8) in Q(sqrt -5)."""
        monkeypatch.setattr(ambigcheck, "_class_keys", lambda L: lambda a, b: (
            a if a in (2, 5) else 1, 0))
        with pytest.raises(InvariantError, match="coset meets the subgroup") as err:
            ambiguous_count_direct(quadratic_field(-5), None, m)
        assert err.value.exit_code == 8

    @pytest.mark.parametrize("d", [-5, 10])
    @pytest.mark.parametrize("m", [1, 3])
    def test_a_quadratic_case_factors_its_discriminant_once(self, monkeypatch, d, m):
        """`quadratic_field` validates d from the field's factorization of
        |D_L|, and both sides of the count read that one factorization:
        `factor` runs once on |D_L| and never on |d|, for an imaginary and
        a real L, with and without a modulus."""
        D = abs(d if d % 4 == 1 else 4 * d)
        real, calls = exactmath.factor, []

        def counting(n):
            calls.append(n)
            return real(n)

        for name, module in list(sys.modules.items()):
            if name.startswith("raycap") and getattr(module, "factor", None) is real:
                monkeypatch.setattr(module, "factor", counting)
        assert ambig_case(("quad", d, m)).equal
        assert [n for n in calls if n in (abs(d), D)] == [D]

    @pytest.mark.parametrize("j", [0, 4, -1])
    def test_bad_subfield_index_is_an_input_error(self, j):
        with pytest.raises(InputError, match="subfield index"):
            ambig_case(("biquad", 2, 5, j, ()))

    def test_base_outside_the_biquad_field_rejected(self):
        L, other = biquad_field(2, 5), quadratic_field(7)
        m = modulus_from_rational(other, 1)
        for count in (ambiguous_count_formula, ambiguous_count_direct):
            with pytest.raises(InputError, match="not a quadratic subfield"):
                count(L, other, m)

    def test_even_modulus_rejected(self):
        with pytest.raises(InputError):
            ambiguous_count_formula(quadratic_field(2), None, 2)
        with pytest.raises(InputError):
            ambiguous_count_direct(quadratic_field(5), None, 6)
        L = biquad_field(3, 5)
        with pytest.raises(InputError):
            ambiguous_count_formula(L, L.k1, modulus_from_rational(L.k1, 2))

    def test_shape_errors(self):
        with pytest.raises(InputError):
            ambiguous_count_formula(quadratic_field(2), quadratic_field(3), 1)
        with pytest.raises(InputError):
            ambiguous_count_direct([], None, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from(fundamental_field_params(80)),
        m=st.sampled_from([1, 3, 5, 7, 11, 13, 15, 21, 33, 35]),
    )
    def test_identity_holds_on_random_cases(self, d, m):
        field = quadratic_field(d)
        assert ambiguous_count_formula(field, None, m) == ambiguous_count_direct(
            field, None, m
        )


# ---------------------------------------------------------------------------
# sweep plumbing


class TestSweep:
    def test_order_and_params_preserved(self):
        cases = [("quad", -5, 1), ("quad", 2, 7), ("biquad", 2, 5, 1, (11,))]
        reports = [ambig_case(c) for c in cases]
        assert [r.params for r in reports] == [
            ("quad", -5, 1),
            ("quad", 2, 7),
            ("biquad", 2, 5, 1, (11,)),
        ]
        assert all(r.equal for r in reports)

    def test_reports_are_deterministic(self):
        a = ambig_case(("quad", -21, 21))
        b = ambig_case(("quad", -21, 21))
        assert a == b
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_report_contents(self):
        r = ambig_case(("quad", -1, 5))
        assert isinstance(r, AmbigReport)
        assert r.extension == "Q(sqrt(-1))/Q"
        assert r.base_ray_order == 2
        assert r.local_degrees == (2,)
        assert r.ramified_e == (2,)
        assert r.norm_index == 1
        assert r.formula == r.direct == 4
        d = r.as_dict()
        assert d["equal"] is True and d["params"] == ["quad", -1, 5]

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            ambig_case(("cubic", 2, 3))


class TestFundamentalParams:
    def test_small_bound_exact(self):
        assert fundamental_field_params(40) == [
            -3, -1, 5, -7, 2, -2, -11, 3, 13, -15, 17, -19, -5, 21, -23,
            6, -6, 7, 29, -31, 33, -35, 37, -39, 10, -10,
        ]

    @pytest.mark.parametrize("bound", [120, 1000, 5000])
    def test_equals_the_enumeration_that_factors_every_d(self, bound):
        """Dropping a d = 2, 3 mod 4 with 4|d| past the bound before it is
        factored keeps the list of the enumeration that factors every d in
        [-bound, bound] and reads D off its field."""
        old = []
        for d in range(-bound, bound + 1):
            if d in (0, 1) or squarefree_part(d) != d:
                continue
            D = QuadField(d).D
            if abs(D) <= bound:
                old.append((abs(D), -(D > 0), d))
        assert fundamental_field_params(bound) == [d for _, _, d in sorted(old)]

    def test_matches_brute_enumeration(self):
        brute = set()
        for d in range(-200, 201):
            if d in (0, 1):
                continue
            if any(k > 1 for k in factor(abs(d)).values()):
                continue
            D = d if d % 4 == 1 else 4 * d
            if abs(D) <= 200:
                brute.add(d)
        got = fundamental_field_params(200)
        assert set(got) == brute
        assert len(got) == len(brute)
        discs = [abs(d if d % 4 == 1 else 4 * d) for d in got]
        assert discs == sorted(discs)
