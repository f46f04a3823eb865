"""The per-field caches are bounded LRUs, and eviction changes no answer.

Class groups, ray class groups (with their lookup memos), fundamental units,
biquadratic unit groups, the parallel scan's checkers, the rational ray
class groups and the residue fields' generators and discrete-log tables
are each cached for at most `FIELD_CACHE_SIZE` keys. An evicted entry is rebuilt with the
same SNF basis, and a `ConditionChecker` keeps its own reference to its ray
class group, so a checker whose group left the cache decides every
candidate as a fresh one does.
"""
import importlib.util
from pathlib import Path

import pytest

from raycap import ambigcheck, biquad, capsearch, quadfield
from raycap.ambigcheck import ambig_case
from raycap.exactmath import squarefree_part
from raycap.kummerfrob import ConditionChecker, SearchParams
from raycap.quadfield import (
    FIELD_CACHE_SIZE,
    Modulus,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
    unit_gens,
)

BOUNDED = [
    quadfield.class_group,
    quadfield.ray_class_group,
    quadfield.fundamental_unit,
    biquad.unit_group,
    capsearch._checker_cached,
    ambigcheck._rational_ray_data,
    quadfield._residue_field,
]


def _sweep_corpus(disc_bound: int) -> list[tuple]:
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_ambig_sweep.py"
    spec = importlib.util.spec_from_file_location("run_ambig_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_corpus(disc_bound, (3, 5, 7))


def _assert_bounded() -> None:
    for cache in BOUNDED:
        info = cache.cache_info()
        assert info.maxsize == FIELD_CACHE_SIZE
        assert info.currsize <= FIELD_CACHE_SIZE


def test_caches_stay_within_the_bound_over_a_sweep():
    """The disc-bound-1000 sweep corpus touches more than FIELD_CACHE_SIZE
    fields (607, 302 of them real): from empty caches every case balances
    and no cache grows past the bound. Its m = 1 quadratic cases read
    N(eps) off the period of w and build no unit, so the units of its real
    fields are built after it, by `unit_gens`: the fundamental unit cache
    evicts instead of growing, and an evicted unit is rebuilt the same.
    Its quadratic cases close the ramified primes of L and build neither
    Cl_L nor a ray class group, so the ray class groups of more fields,
    each on its class group, are built after it, and those two caches
    evict instead of growing too."""
    corpus = _sweep_corpus(1000)
    real = {c[1] for c in corpus if c[0] == "quad" and c[1] > 0}
    assert len(real) > FIELD_CACHE_SIZE
    for cache in BOUNDED:
        cache.cache_clear()
    assert all(ambig_case(c).equal for c in corpus)
    _assert_bounded()
    first = quadratic_field(min(real))
    units = unit_gens(first)
    for d in sorted(real):
        unit_gens(quadratic_field(d))
    _assert_bounded()
    assert quadfield.fundamental_unit.cache_info().misses > FIELD_CACHE_SIZE
    assert unit_gens(first) == units
    _evict_ray_groups()
    _assert_bounded()
    for cache in (quadfield.class_group, quadfield.ray_class_group):
        assert cache.cache_info().misses > FIELD_CACHE_SIZE


@pytest.mark.parametrize("d", [-1365, -4199, 1365, 3999])
def test_trivial_modulus_case_builds_no_ray_class_group(d, monkeypatch):
    """A quad case with m = 1 closes the ramified primes of L (these fields
    have h > 1 and 2-rank at least 2): it builds neither Cl_L nor a ray
    class group and keys no class by `class_key`. One with m = 11 runs the
    same closure and reads the rest of its count in (O_L/m)^*, so it builds
    neither group and keys no class either."""
    L = quadratic_field(d)
    assert quadfield.class_group(L).h > 1
    assert sum(c % 2 == 0 for c in quadfield.class_group(L).group.invariants) >= 2
    keyed = []
    for module in (quadfield, ambigcheck):
        if hasattr(module, "class_key"):
            monkeypatch.setattr(module, "class_key",
                                lambda I, key=module.class_key: keyed.append(I) or key(I))
    quadfield.class_group.cache_clear()
    quadfield.ray_class_group.cache_clear()
    assert ambig_case(("quad", d, 1)).equal
    assert quadfield.class_group.cache_info().misses == 0
    assert quadfield.ray_class_group.cache_info().misses == 0
    assert keyed == []
    assert ambig_case(("quad", d, 11)).equal
    assert quadfield.class_group.cache_info().misses == 0
    assert quadfield.ray_class_group.cache_info().misses == 0
    assert keyed == []


def test_rational_ray_data_runs_once_per_modulus():
    """The formula side's `rayclass_Q` and the direct side's
    `rayclass_Q_generators` read one cached entry per m; an m = 1 direct
    side reads no generators."""
    ambigcheck._rational_ray_data.cache_clear()
    moduli = (1, 3, 5, 7, 15, 21, 105)
    for m in moduli:
        for d in (-5, 2, 21):
            assert ambig_case(("quad", d, m)).equal
    info = ambigcheck._rational_ray_data.cache_info()
    assert info.misses == len(moduli)
    assert info.hits == 2 * 3 * len(moduli) - len(moduli) - 3


def _evict_ray_groups() -> None:
    """Build FIELD_CACHE_SIZE ray class groups of other fields, so every
    entry cached before them is evicted."""
    built, d = 0, -1
    while built < FIELD_CACHE_SIZE:
        if squarefree_part(d) == d:
            K = quadratic_field(d)
            ray_class_group(K, Modulus(K, ()))
            built += 1
        d -= 1


@pytest.mark.parametrize("d,m", [(7315, 3), (595, 33)])
def test_checker_whose_ray_group_was_evicted_decides_as_a_fresh_one(d, m):
    """A warm checker, its ray group evicted and rebuilt, against a checker
    built on the rebuilt group: the same decision at every candidate, the
    same scan result and counters, and the same coordinates. Both fields
    are not ray-exact, so their scans fill the ray lookup memo."""
    K = quadratic_field(d)
    modulus = modulus_from_rational(K, m)
    params = SearchParams(2, 1, 0, 20000)
    rank = ray_class_group(K, modulus).group.rank
    old = ConditionChecker(K, modulus, (0,) * rank, params)
    old_scan = old.scan(3, params.bound)
    assert old.ray.vectors
    _evict_ray_groups()
    rebuilt = ray_class_group(K, modulus)
    assert rebuilt is not old.ray and not rebuilt.vectors
    fresh = ConditionChecker(K, modulus, (0,) * rank, params)
    assert fresh.ray is rebuilt
    assert fresh.ray.group.to_canonical == old.ray.group.to_canonical
    assert fresh.scan(3, params.bound) == old_scan == old.scan(3, params.bound)
    candidates = [p for p in range(3, 3000) if not old.forbidden(p)]
    assert [old.check(p) for p in candidates] == [fresh.check(p) for p in candidates]
