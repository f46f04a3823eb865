"""Command line front end: rayclass | search | verify | ambig | selftest.

Exit codes: 0 success, 2 invalid input, 3 search exhausted its bound,
4 target blocked by the power condition (a hint is printed), 5 verification
negative, 6 enumeration budget exceeded, 7 certificate degree unverifiable.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from raycap.ambigcheck import (
    ambig_case,
    fundamental_field_params,
    rayclass_Q,
    rayclass_Q_generators,
)
from raycap.capsearch import CandidateCertificate, SearchResult, find_principalizing_prime
from raycap.errors import BudgetError, InputError, RaycapError
from raycap.exactmath import factor, is_prime
from raycap.kummerfrob import SearchParams
from raycap.quadfield import (
    Modulus,
    QIdeal,
    descriptor,
    factor_prime,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
)
from raycap.report import (
    ReportCache,
    canonical_json,
    load_certificate,
    save_certificate,
    stamp,
)

_VERIFY_EXIT = {
    "capitulates": 0,
    "failed": 5,
    "failed_congruence": 5,
    "unverified_composite": 7,
    "invalid_certificate": 2,
}


def _emit(args, report: dict, human_lines) -> None:
    if args.json:
        print(canonical_json(report))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# argument plumbing


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} {text!r} is not an integer") from None


def _jobs(n: int) -> int:
    """Worker count for `search --jobs`: at least 1, capped at the CPU count,
    since the scan's process pool forks every worker at once."""
    if n < 1:
        raise InputError(f"--jobs must be at least 1, not {n}")
    return min(n, os.cpu_count() or 1)


def _parse_modulus(field, spec: str) -> Modulus:
    """Comma list of "m" (all primes above the squarefree m, as
    `modulus_from_rational`) or "p.i" (the i-th above the prime p, by key)."""
    primes: list[QIdeal] = []
    for part in spec.split(","):
        part = part.strip()
        if part in ("", "1"):
            continue
        if "." not in part:
            primes.extend(modulus_from_rational(field, _int(part, "modulus entry")).primes)
            continue
        raw, idx = part.split(".", 1)
        p0, i = _int(raw, "modulus entry"), _int(idx, "prime index")
        if not is_prime(p0):
            raise InputError(f"modulus entry {part!r} is not prime")
        data = sorted((I for I, _, _ in factor_prime(field, p0)[1]), key=lambda I: I.key())
        if not 0 <= i < len(data):
            raise InputError(f"no prime with index {i} above {p0}")
        primes.append(data[i])
    deduped = {I.key(): I for I in primes}
    return Modulus(field, tuple(sorted(deduped.values(), key=lambda I: I.key())))


def _parse_rational_modulus(spec: str) -> int:
    m = _int(spec, "modulus")
    if m < 1:
        raise InputError("modulus must be a positive integer")
    return m


def _resolve_target(selector: str, ray) -> tuple[int, ...]:
    inv = ray.group.invariants
    if selector == "auto-2":
        for i in range(len(inv) - 1, -1, -1):
            if inv[i] % 2 == 0:
                return tuple(inv[i] // 2 if j == i else 0 for j in range(len(inv)))
        raise InputError("ray class group has odd order: no order-2 class")
    vec = tuple(_int(x, "class coordinate") for x in selector.split(",")) if selector else ()
    if len(vec) != len(inv):
        raise InputError(
            f"class vector needs {len(inv)} entries for invariants {inv}"
            + ("; the trivial group's class is the empty vector, --class=" if not inv else "")
        )
    return tuple(v % n for v, n in zip(vec, inv))


def _d_from_disc(D: int) -> int:
    if D % 4 == 1:
        d = D
    elif D % 4 == 0:
        d = D // 4
    else:
        raise InputError(f"{D} is not a fundamental discriminant")
    field = quadratic_field(d)  # validates squarefree etc.
    if field.D != D:
        raise InputError(f"{D} is not a fundamental discriminant")
    return d


# ---------------------------------------------------------------------------
# subcommands


def cmd_rayclass(args) -> int:
    if args.field == "Q":
        m = _parse_rational_modulus(args.mod)
        group = rayclass_Q(m)
        phi = math.prod((p - 1) * p ** (k - 1) for p, k in factor(m).items()) if m > 1 else 1
        unit_image = 1 if m <= 2 else 2
        payload = {
            "field": "Q",
            "modulus": m,
            "invariants": list(group.invariants),
            "order": group.order(),
            "generators": list(rayclass_Q_generators(m)),
            "components": {
                "class_number": 1,
                "residue_order": phi,
                "unit_image_order": unit_image,
            },
            "identity_holds": group.order() == phi // unit_image,
        }
        lines = [
            f"ray class group of Q mod {m}: invariants {tuple(group.invariants)}",
            f"order {group.order()} = {phi} / {unit_image}",
            f"generators {payload['generators']}",
        ]
    else:
        field = quadratic_field(args.d)
        modulus = _parse_modulus(field, args.mod)
        ray = ray_class_group(field, modulus)
        order = ray.group.order()
        payload = {
            "field": {"d": field.d, "disc": field.D},
            "modulus": descriptor(modulus.primes),
            "invariants": list(ray.group.invariants),
            "order": order,
            "ideal_generators": descriptor(ray.ideal_gens),
            "components": {
                "class_number": ray.cl.h,
                "residue_order": ray.residue.order(),
                "unit_image_order": ray.unit_image_order,
            },
            "identity_holds": order
            == ray.cl.h * ray.residue.order() // ray.unit_image_order,
        }
        lines = [
            f"ray class group of Q(sqrt({field.d})) mod {args.mod}:"
            f" invariants {tuple(ray.group.invariants)}",
            f"order {order} = {ray.cl.h} * {ray.residue.order()}"
            f" / {ray.unit_image_order}",
            f"ideal generators {payload['ideal_generators']}",
        ]
    _emit(args, stamp("rayclass", payload), lines)
    return 0


def cmd_search(args) -> int:
    jobs = _jobs(args.jobs)
    field = quadratic_field(args.d)
    modulus = _parse_modulus(field, args.mod)
    ray = ray_class_group(field, modulus)
    target = _resolve_target(args.cls, ray)
    params = SearchParams(args.l, args.n, args.h, args.bound)

    key = {
        "op": "search",
        "d": field.d,
        "modulus": descriptor(modulus.primes),
        "target": list(target),
        "ell": args.l,
        "n": args.n,
        "h": args.h,
        "bound": args.bound,
    }
    report = ReportCache(args.cache_dir).report(
        key, "search",
        lambda: find_principalizing_prime(field, modulus, target, params, jobs=jobs).as_dict(),
    )
    payload = report["payload"]
    status = payload["status"]
    if status == "found":
        cert = CandidateCertificate.from_dict(payload["certificate"])
        out = args.out or f"cert-d{field.d}-n{cert.n}.json"
        save_certificate(out, cert)
        _emit(
            args,
            report,
            [
                f"found p = {cert.p} (root {cert.root}) for d = {field.d},"
                f" target {target}",
                f"cyclic companion: conductor {cert.p}, degree {cert.ell ** cert.n}",
                f"certificate written to {out}",
            ],
        )
        return 0
    if status == "power_blocked":
        hint = payload["hint"]
        _emit(
            args,
            report,
            [
                "target class is not an ell^h-th power; condition (iv) blocks",
                f"hint: adjoin the {hint['field']},"
                f" auxiliary primes need {hint['prime_condition']}",
            ],
        )
        return 4
    _emit(
        args,
        report,
        [f"no prime found below {args.bound}", f"stats: {payload['stats']}"],
    )
    return 3


def cmd_verify(args) -> int:
    from raycap.biquad import verify_certificate

    cert = CandidateCertificate.from_dict(load_certificate(args.certificate)[0])
    rep = verify_certificate(cert)
    payload = rep.as_dict()
    if args.update:
        save_certificate(args.certificate, cert, verification=payload)
    alpha = payload.get("generator")
    lines = [f"status: {rep.status}", f"detail: {rep.detail}"]
    if alpha:
        lines.append(f"generator coordinates (1, w1, w2, w1*w2): {tuple(alpha)}")
    _emit(args, stamp("verify", payload), lines)
    return _VERIFY_EXIT.get(rep.status, 5)


DEFAULT_SWEEP: tuple = tuple(
    [("quad", d, 1) for d in fundamental_field_params(120)]
    + [
        ("quad", -5, 5),
        ("quad", 34, 17),
        ("quad", 2, 7),
        ("quad", -21, 21),
        ("quad", 15, 15),
        ("quad", -6, 35),
    ]
    + [
        ("biquad", 2, 5, 1, ()),
        ("biquad", 6, 5, 1, ()),
        ("biquad", 3, 5, 1, (7,)),
        ("biquad", 2, 13, 2, ()),
        ("biquad", 2, 5, 1, (11,)),
    ]
)


def cmd_ambig(args) -> int:
    if args.base is not None and args.biquad is None:
        raise InputError("--base names the base field of --biquad only")
    if args.sweep:
        if args.mod is not None:
            raise InputError("--mod does not apply to --sweep: each case names its modulus")
        cases = list(DEFAULT_SWEEP)
    elif args.biquad is not None:
        dp = [_int(x, "--biquad entry") for x in args.biquad.split(",")]
        if len(dp) != 2:
            raise InputError("--biquad wants 'd,p'")
        d, p = dp
        mods = tuple(
            _int(x, "modulus entry")
            for x in (args.mod or "1").split(",")
            if x.strip() not in ("", "1")
        )
        cases = [("biquad", d, p, args.base or 1, mods)]
    else:
        d = _d_from_disc(args.L_disc)
        cases = [("quad", d, _parse_rational_modulus(args.mod or "1"))]

    # every report is built before the first line is printed, so a case
    # that raises prints nothing
    cache = ReportCache(args.cache_dir)
    reports = [
        cache.report({"op": "ambig", "case": list(case)}, "ambig",
                     lambda: ambig_case(case).as_dict())
        for case in cases
    ]

    all_equal = True
    for rep in reports:
        payload = rep["payload"]
        all_equal = all_equal and payload["equal"]
        if args.json:
            print(canonical_json(rep))
        else:
            mark = "=" if payload["equal"] else "MISMATCH"
            print(
                f"{payload['extension']:34s} m={payload['params'][-1]!s:10s}"
                f" formula {payload['formula']} {mark} {payload['direct']} direct"
            )
    if not args.json:
        print(f"{len(reports)} cases, all equal: {all_equal}")
    return 0 if all_equal else 1


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    # rational ray groups against brute force
    ok = True
    for m in [m for m in range(1, 31) if all(k == 1 for k in factor(m).values())]:
        brute = len({min(a, m - a) for a in range(1, m) if math.gcd(a, m) == 1}) or 1
        ok = ok and rayclass_Q(m).order() == brute
    record("rayclass-Q-brute", ok)

    # ambiguous-count identity on a small mixed corpus
    sample = [("quad", -5, 1), ("quad", 34, 1), ("quad", 2, 7), ("biquad", 2, 5, 1, ())]
    reps = [ambig_case(c) for c in sample]
    record(
        "ambig-identity",
        all(r.equal for r in reps),
        ", ".join(f"{r.params}:{r.formula}" for r in reps),
    )

    # order identity for a quadratic ray group
    field = quadratic_field(-5)
    ray = ray_class_group(field, _parse_modulus(field, "3"))
    record(
        "ray-order-identity",
        ray.group.order()
        == ray.cl.h * ray.residue.order() // ray.unit_image_order,
    )

    # period polynomial splitting vs the residue character prediction: a
    # quadratic splits mod an odd q prime to its discriminant exactly when
    # the discriminant is a square mod q
    from raycap.capsearch import gaussian_period_min_poly
    from raycap.exactmath import kronecker, primes_1_mod

    ok, pairs = True, []
    small = list(primes_1_mod(4, 5, 299))
    for _ in range(8):
        p = rng.choice(small)
        q = rng.choice([q0 for q0 in range(3, 200) if is_prime(q0) and q0 != p])
        c0, c1, c2 = gaussian_period_min_poly(p, 2)
        splits = pow(q, (p - 1) // 2, p) == 1
        ok = ok and (kronecker(c1 * c1 - 4 * c2 * c0, q) == 1) == splits
        pairs.append(f"({p},{q})")
    record("period-splitting", ok, " ".join(pairs))

    # end-to-end capitulation for the flagship field
    from raycap.biquad import verify_certificate

    field = quadratic_field(34)
    res = find_principalizing_prime(
        field, Modulus(field, ()), (1,), SearchParams(2, 1, None, 10**6)
    )
    ok = res.status == "found"
    if ok:
        rep = verify_certificate(res.certificate)
        ok = rep.status == "capitulates"
        record("capitulation-d34", ok, f"p={res.certificate.p}")
    else:
        record("capitulation-d34", False, "search failed")

    # determinism of a report
    a = canonical_json(ambig_case(("quad", -21, 21)).as_dict())
    b = canonical_json(ambig_case(("quad", -21, 21)).as_dict())
    record("determinism", a == b)

    failures = [c for c in checks if not c[1]]
    payload = {
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "failures": len(failures),
    }
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
        for name, ok, detail in checks
    ]
    _emit(args, stamp("selftest", payload), lines)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raycap",
        description="ray class groups, ambiguous-class checks, capitulation",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rayclass", parents=[common], help="print a ray class group")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--field", choices=["Q"], help="the rational field")
    group.add_argument("--d", type=int, help="squarefree d for Q(sqrt d)")
    p.add_argument("--mod", default="1", help="modulus: m for Q, or m[,p.i,...] "
                   "(all primes above a squarefree m, the i-th above a prime p)")
    p.set_defaults(func=cmd_rayclass)

    p = sub.add_parser("search", parents=[common], help="find a principalizing prime")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mod", default="1", help="modulus: m[,p.i,...] (all primes "
                   "above a squarefree m, the i-th above a prime p)")
    p.add_argument("--class", dest="cls", default="auto-2",
                   help="'auto-2' or comma exponent vector; a vector that starts "
                   "with '-' needs the '=' form (--class=-1,0), and --class= "
                   "names the class of a trivial group")
    p.add_argument("--l", type=int, default=2, help="the prime ell")
    p.add_argument("--n", type=int, default=1, help="cyclic degree exponent")
    p.add_argument("--h", type=int, default=None, help="power height (default: h_K)")
    p.add_argument("--bound", type=int, default=10**6)
    p.add_argument("--jobs", type=int, default=1, help="scan worker processes")
    p.add_argument("--out", default=None, help="certificate path")
    p.add_argument("--cache-dir", default=None, help="report cache location")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", parents=[common], help="re-verify a certificate")
    p.add_argument("certificate", help="certificate JSON path")
    p.add_argument("--update", action="store_true",
                   help="write the verification back into the file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ambig", parents=[common], help="ambiguous count identity")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--L-disc", type=int, default=None,
                       help="fundamental discriminant of quadratic L")
    group.add_argument("--biquad", default=None,
                       help="'d,p' for Q(sqrt d, sqrt p); a negative d needs the "
                       "'=' form, --biquad=-5,7")
    group.add_argument("--sweep", choices=["default"], default=None,
                       help="the built-in corpus")
    p.add_argument("--base", type=int, default=None, choices=[1, 2, 3],
                   help="which quadratic subfield is K (--biquad only, default 1)")
    p.add_argument("--mod", default=None,
                   help="modulus integer (rational primes; default 1, not with --sweep)")
    p.add_argument("--cache-dir", default=None, help="report cache location")
    p.set_defaults(func=cmd_ambig)

    p = sub.add_parser("selftest", parents=[common], help="quick consistency battery")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 6
    except RaycapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
