import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from raycap.capsearch import search_with_escalation
from raycap.kummerfrob import SearchParams
from raycap.quadfield import modulus_from_rational, quadratic_field, ray_class_group

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

CERTIFY_POPULATION = Path(__file__).resolve().parents[1] / "bench" / "population" / "certify.json"


@pytest.fixture(scope="session")
def certify_certificates():
    """The certificates of the benchmark's `certify` population, searched as
    its ops search them: each entry (d, m) at ell = 2, n = 1 escalating to
    n = 2, bound 10^5, for the class of order 2 (the 2-part of each entry's
    ray class group is cyclic). Entries without a certificate are left out."""
    population = json.loads(CERTIFY_POPULATION.read_text())
    entries = [e["entry"] for block in population["blocks"] for e in block]
    entries += [a["entry"] for a in population["anchors"]]
    certs = []
    for entry in entries:
        K = quadratic_field(entry["d"])
        modulus = modulus_from_rational(K, entry["m"])
        invariants = ray_class_group(K, modulus).group.invariants
        (i,) = [i for i, n in enumerate(invariants) if n % 2 == 0]
        target = tuple(n // 2 if j == i else 0 for j, n in enumerate(invariants))
        attempts = search_with_escalation(
            K, modulus, target, SearchParams(2, 1, 0, 10**5), n_max=2
        )
        if attempts[-1].status == "found":
            certs.append(attempts[-1].certificate)
    return certs
