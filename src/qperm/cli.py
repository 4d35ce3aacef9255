"""Command-line front end: every subcommand emits one JSON report to stdout
with the envelope {"command", "config", "results", "pass"}; tabular outputs
switch to CSV with --csv.  Exit codes: 0 pass, 1 usage error, 2 invariant
violation.  No environment variables are consulted; flags only."""

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import acceptance
from .cumulants import (
    CumulantSpec,
    MomentFunctional,
    cumulants_to_moments,
    free_iid_moment,
    freeness_check,
    moments_to_cumulants,
)
from .errors import InvariantViolation, QpermError
from .exchange import (
    UrnModel,
    definetti_gap,
    invariance_check,
    permutation_magic_unitary,
    rotated_projection,
    two_projection_magic_unitary,
    urn_moment_classical,
    urn_moment_quantum,
)
from .partitions import K_MAX, SetPartition, enumerate_nc, enumerate_partitions, mobius_nc
from .weingarten import (
    dk_value,
    haar_moment,
    rational_str,
    weingarten,
    weingarten_asymptotics,
)


@dataclass(frozen=True)
class ExperimentConfig:
    k_max: int = K_MAX
    n_range: tuple = (4, 60)  # covers the widest acceptance sweep
    tolerance: float = 1e-9
    seed: int = 20260808

    def __post_init__(self):
        if not 1 <= self.k_max <= K_MAX:
            raise QpermError(f"k_max must be in 1..{K_MAX}")
        if self.n_range[0] != 4 or self.n_range[1] < 4:
            raise QpermError("n_range must be 4..HI with HI >= 4: the sweeps keep their "
                             "own starts, and only the top HI trims them")
        if self.tolerance < 0:
            raise QpermError("tolerance must be >= 0")


def _parse_range(text):
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi if hi else lo)
    except ValueError as exc:
        raise QpermError(f"bad range {text!r}, expected LO..HI") from exc


def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise QpermError(f"bad integer list {text!r}") from exc


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise QpermError(f"bad rational {text!r}") from exc


def _parse_rationals(text):
    return tuple(_parse_rational(x) for x in text.split(","))


def _parse_families(text):
    out = {}
    for item in text.split(","):
        sym, _, fam = item.partition("=")
        if not fam:
            raise QpermError(f"bad family spec {item!r}, expected symbol=family")
        out[sym] = fam
    return out


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _unitary_from_flags(args):
    if args.perm and args.theta is not None:
        raise QpermError("--perm and --theta are mutually exclusive")
    if args.perm:
        return permutation_magic_unitary(_parse_ints(args.perm))
    if args.theta is not None:
        return two_projection_magic_unitary(
            np.diag([1.0, 0.0]), rotated_projection(args.theta)
        )
    raise QpermError("one of --perm or --theta is required")


def _emit(command, config, results, passed, csv_rows=None):
    if csv_rows is not None:
        # partition texts contain commas, so fields must be quoted properly
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(csv_rows)
    else:
        report = {
            "command": command,
            "config": config,
            "results": results,
            "pass": passed,
        }
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if passed else 2


def cmd_partitions_enum(args):
    parts = enumerate_nc(args.k) if args.nc else enumerate_partitions(args.k)
    texts = [p.to_text() for p in parts]
    config = {"k": args.k, "nc": bool(args.nc)}
    if args.csv:
        return _emit("partitions enum", config, None, True, csv_rows=[[t] for t in texts])
    return _emit(
        "partitions enum",
        config,
        {"count": len(texts), "partitions": texts},
        True,
    )


def cmd_partitions_mobius(args):
    p = SetPartition.from_text(args.p)
    q = SetPartition.from_text(args.q)
    value = mobius_nc(p, q)
    return _emit(
        "partitions mobius",
        {"p": p.to_text(), "q": q.to_text()},
        {"mobius": value},
        True,
    )


def cmd_weingarten_table(args):
    table = weingarten(args.k, args.n)
    d = table.to_json_dict()
    config = {"k": args.k, "n": args.n}
    if args.csv:
        rows = [[text] + row for text, row in zip(d["index"], d["matrix"])]
        return _emit("weingarten table", config, None, True, csv_rows=rows)
    return _emit("weingarten table", config, d, True)


def cmd_weingarten_asym(args):
    lo, hi = _parse_range(args.n_range)
    ns = range(lo, hi + 1)
    config = {"k": args.k, "n_range": f"{lo}..{hi}"}
    if (args.p is None) != (args.q is None):
        raise QpermError("--p and --q must be given together")
    if args.p is not None:
        pairs = [(SetPartition.from_text(args.p), SetPartition.from_text(args.q))]
        include_rows = True
    else:
        nc = enumerate_nc(args.k)
        pairs = [(p, q) for p in nc for q in nc]
        include_rows = False
    results = []
    all_bounded = True
    for p, q in pairs:
        report = weingarten_asymptotics(args.k, ns, p, q)
        all_bounded = all_bounded and report.bounded
        entry = {
            "p": p.to_text(),
            "q": q.to_text(),
            "relation": report.relation,
            "max_abs": rational_str(report.max_abs),
            "bounded": report.bounded,
        }
        if include_rows:
            entry["rows"] = [
                {"n": r.n, "w": rational_str(r.value), "scaled": rational_str(r.scaled)}
                for r in report.rows
            ]
        results.append(entry)
    if args.csv:
        rows = [
            [e["p"], e["q"], e["relation"], e["max_abs"], e["bounded"]] for e in results
        ]
        return _emit("weingarten asym", config, None, all_bounded, csv_rows=rows)
    return _emit("weingarten asym", config, results, all_bounded)


def cmd_weingarten_dk(args):
    lo, hi = _parse_range(args.n_range)
    report = dk_value(args.k, range(lo, hi + 1))
    config = {"k": args.k, "n_range": f"{lo}..{hi}"}
    values = [{"n": n, "dk": rational_str(v)} for n, v in report.values]
    if args.csv:
        rows = [[v["n"], v["dk"]] for v in values]
        return _emit("weingarten dk", config, None, True, csv_rows=rows)
    return _emit(
        "weingarten dk",
        config,
        {"values": values, "max": rational_str(report.max_value)},
        True,
    )


def cmd_haar_moment(args):
    i = _parse_ints(args.i)
    j = _parse_ints(args.j)
    value = haar_moment(args.n, i, j)
    return _emit(
        "haar moment",
        {"n": args.n, "i": list(i), "j": list(j)},
        {"value": rational_str(value)},
        True,
    )


def cmd_cumulants_convert(args):
    if (args.spec is None) == (args.moments is None):
        raise QpermError("exactly one of --spec or --moments is required")
    word = tuple(args.word.split(","))
    if args.spec is not None:
        spec = CumulantSpec.from_json_dict(_load_json(args.spec))
        value = cumulants_to_moments(spec, word)
        results = {"direction": "cumulants-to-moments", "word": list(word),
                   "value": rational_str(value)}
        config = {"spec": args.spec}
    else:
        mf = MomentFunctional.from_json_dict(_load_json(args.moments))
        pi = (
            SetPartition.from_text(args.pi)
            if args.pi
            else SetPartition.full(len(word))
        )
        value = moments_to_cumulants(mf, pi, word)
        results = {"direction": "moments-to-cumulants", "word": list(word),
                   "pi": pi.to_text(), "value": rational_str(value)}
        config = {"moments": args.moments}
    return _emit("cumulants convert", config, results, True)


def cmd_cumulants_free_moment(args):
    spec = CumulantSpec.from_json_dict(_load_json(args.spec))
    letters = tuple(args.letters.split(","))
    labels = _parse_ints(args.labels)
    value = free_iid_moment(spec, letters, labels)
    return _emit(
        "cumulants free-moment",
        {"spec": args.spec, "letters": list(letters), "labels": list(labels)},
        {"value": rational_str(value)},
        True,
    )


def cmd_cumulants_check_free(args):
    mf = MomentFunctional.from_json_dict(_load_json(args.moments))
    families = _parse_families(args.families)
    verdict = freeness_check(
        mf, families, tolerance=_parse_rational(args.tol) if args.tol else 0,
        max_degree=args.kmax,
    )
    results = {
        "free": verdict.free,
        "words_checked": verdict.words_checked,
        "violations": [
            {"pi": pi.to_text(), "word": list(word), "value": rational_str(value)}
            for pi, word, value in verdict.violations[:50]
        ],
    }
    return _emit(
        "cumulants check-free",
        {"moments": args.moments, "families": families, "kmax": args.kmax},
        results,
        verdict.free,
    )


def _urn_from_args(args):
    lam = _parse_rationals(args.lam)
    return UrnModel(n=args.n, lam=lam)


def cmd_urn_quantum(args):
    model = _urn_from_args(args)
    j = _parse_ints(args.j)
    value = urn_moment_quantum(model, j)
    return _emit(
        "urn quantum",
        {"n": args.n, "lam": [rational_str(x) for x in model.lam], "j": list(j)},
        {"value": rational_str(value)},
        True,
    )


def cmd_urn_classical(args):
    model = _urn_from_args(args)
    j = _parse_ints(args.j)
    value = urn_moment_classical(model, j)
    return _emit(
        "urn classical",
        {"n": args.n, "lam": [rational_str(x) for x in model.lam], "j": list(j)},
        {"value": rational_str(value)},
        True,
    )


def cmd_urn_gap(args):
    model = _urn_from_args(args)
    j = _parse_ints(args.j)
    config = {"n": args.n, "lam": [rational_str(x) for x in model.lam], "j": list(j)}
    try:
        report = definetti_gap(model, j)
    except InvariantViolation as exc:
        return _emit("urn gap", config, {"error": str(exc)}, False)
    results = {
        "urn": rational_str(report.urn_moment),
        "free": rational_str(report.free_moment),
        "gap": rational_str(report.gap),
        "bound": rational_str(report.bound),
    }
    return _emit("urn gap", config, results, True)


def cmd_magic_validate(args):
    unitary = _unitary_from_flags(args)
    violations = unitary.violations(tol=args.tol)
    results = {
        "n": unitary.n,
        "d": unitary.d,
        "exact": unitary.exact,
        "violations": violations,
    }
    config = {"perm": args.perm, "theta": args.theta, "tol": args.tol}
    return _emit("magic validate", config, results, not violations)


def _label_functional_from_json(data, n):
    """MomentFunctional JSON with integer labels 1..n as its alphabet."""
    raw = MomentFunctional.from_json_dict(data)
    moments = {tuple(int(s) for s in w): v for w, v in raw.moments.items()}
    return MomentFunctional(
        alphabet=tuple(range(1, n + 1)), k_max=raw.k_max, moments=moments
    )


def cmd_magic_invariance(args):
    unitary = _unitary_from_flags(args)
    mf = _label_functional_from_json(_load_json(args.moments), unitary.n)
    report = invariance_check(mf, unitary, max_degree=args.degree, tolerance=args.tol)
    results = {
        "max_deviation": str(report.max_deviation)
        if unitary.exact
        else float(report.max_deviation),
        "witness": list(report.witness) if report.witness else None,
        "degree": report.degree,
        "tolerance": report.tolerance,
    }
    config = {
        "perm": args.perm,
        "theta": args.theta,
        "moments": args.moments,
        "degree": args.degree,
        "tol": args.tol,
    }
    return _emit("magic invariance", config, results, report.passed)


def _recording_builds(run):
    """(run(), builds): `builds` maps each kind of table build that logged a
    debug record during run() to its count and summed seconds.  A build's
    record names its kind before " k=" and passes its seconds last."""
    # imported here, so that only --timings pays for the logging package
    import logging

    builds = {}

    class Collect(logging.Handler):
        def emit(self, record):
            entry = builds.setdefault(
                record.msg.partition(" k=")[0], {"count": 0, "seconds": 0.0}
            )
            entry["count"] += 1
            entry["seconds"] += record.args[-1]

    logger = logging.getLogger(__package__)
    handler, level = Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return run(), builds
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _write_timings(path, results, builds):
    """Each criterion's seconds, the count and seconds of each kind of table
    build, and cache_info() of every module-level memo table in qperm, as
    JSON in a file: timings vary from run to run, so they stay off stdout."""
    caches = {}
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith(f"{__package__}."):
            continue
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module_name:
                caches[f"{module_name}.{name}"] = obj.cache_info()._asdict()
    criteria = [
        {"criterion": r.number, "name": r.name, "seconds": r.seconds} for r in results
    ]
    report = {"criteria": criteria, "builds": dict(sorted(builds.items())), "caches": caches}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def cmd_reproduce_all(args):
    lo, hi = _parse_range(args.n_range)
    config_obj = ExperimentConfig(
        k_max=args.k_max,
        n_range=(lo, hi),
        tolerance=args.tol,
        seed=args.seed,
    )

    def run():
        return acceptance.run_all(
            k_max=config_obj.k_max,
            n_hi=hi,
            tolerance=config_obj.tolerance,
            seed=config_obj.seed,
        )

    if args.timings:
        results, builds = _recording_builds(run)
        _write_timings(args.timings, results, builds)
    else:
        results = run()
    config = {**asdict(config_obj), "n_range": f"{lo}..{hi}"}
    all_pass = all(r.passed for r in results)
    if args.csv:
        rows = [
            [r.number, r.name, "PASS" if r.passed else "FAIL", r.observed]
            for r in results
        ]
        return _emit("reproduce-all", config, None, all_pass, csv_rows=rows)
    return _emit(
        "reproduce-all", config, [r.to_json_dict() for r in results], all_pass
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qperm",
        description="Exact combinatorics of quantum exchangeability: "
        "non-crossing partitions, Weingarten tables, free cumulants, urn experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partitions", help="partition lattice operations")
    part_sub = p_part.add_subparsers(dest="subcommand", required=True)
    p_enum = part_sub.add_parser("enum", help="enumerate P(k) or NC(k)")
    p_enum.add_argument("--k", type=int, required=True)
    p_enum.add_argument("--nc", action="store_true", help="restrict to non-crossing")
    p_enum.add_argument("--csv", action="store_true")
    p_enum.set_defaults(handler=cmd_partitions_enum)
    p_mob = part_sub.add_parser("mobius", help="Moebius function of NC(k)")
    p_mob.add_argument("--p", required=True, help='partition text, e.g. "1|2,3"')
    p_mob.add_argument("--q", required=True)
    p_mob.set_defaults(handler=cmd_partitions_mobius)

    p_wg = sub.add_parser("weingarten", help="Gram/Weingarten tables and sweeps")
    wg_sub = p_wg.add_subparsers(dest="subcommand", required=True)
    w_table = wg_sub.add_parser("table", help="exact Weingarten matrix")
    w_table.add_argument("--k", type=int, required=True)
    w_table.add_argument("--n", type=int, required=True)
    w_table.add_argument("--csv", action="store_true")
    w_table.set_defaults(handler=cmd_weingarten_table)
    w_asym = wg_sub.add_parser("asym", help="scaled-entry asymptotics sweep")
    w_asym.add_argument("--k", type=int, required=True)
    w_asym.add_argument("--n-range", required=True, help="LO..HI")
    w_asym.add_argument("--p", help="partition text; with --q, report one pair")
    w_asym.add_argument("--q")
    w_asym.add_argument("--csv", action="store_true")
    w_asym.set_defaults(handler=cmd_weingarten_asym)
    w_dk = wg_sub.add_parser("dk", help="de Finetti constant lower bounds d_k(n)")
    w_dk.add_argument("--k", type=int, required=True)
    w_dk.add_argument("--n-range", required=True)
    w_dk.add_argument("--csv", action="store_true")
    w_dk.set_defaults(handler=cmd_weingarten_dk)

    p_haar = sub.add_parser("haar", help="Haar state on generator words")
    haar_sub = p_haar.add_subparsers(dest="subcommand", required=True)
    h_mom = haar_sub.add_parser("moment")
    h_mom.add_argument("--n", type=int, required=True)
    h_mom.add_argument("--i", required=True, help="comma-separated row indices")
    h_mom.add_argument("--j", required=True, help="comma-separated column indices")
    h_mom.set_defaults(handler=cmd_haar_moment)

    p_cum = sub.add_parser("cumulants", help="moment-cumulant transforms")
    cum_sub = p_cum.add_subparsers(dest="subcommand", required=True)
    c_conv = cum_sub.add_parser("convert")
    c_conv.add_argument("--spec", help="CumulantSpec JSON file (or -)")
    c_conv.add_argument("--moments", help="MomentFunctional JSON file (or -)")
    c_conv.add_argument("--word", required=True, help="comma-separated letters")
    c_conv.add_argument("--pi", help="target partition for moments-to-cumulants")
    c_conv.set_defaults(handler=cmd_cumulants_convert)
    c_free = cum_sub.add_parser("free-moment")
    c_free.add_argument("--spec", required=True)
    c_free.add_argument("--letters", required=True)
    c_free.add_argument("--labels", required=True)
    c_free.set_defaults(handler=cmd_cumulants_free_moment)
    c_check = cum_sub.add_parser("check-free")
    c_check.add_argument("--moments", required=True)
    c_check.add_argument("--families", required=True, help="sym=family, comma-separated")
    c_check.add_argument("--kmax", type=int)
    c_check.add_argument("--tol", help="rational tolerance, default exact zero")
    c_check.set_defaults(handler=cmd_cumulants_check_free)

    p_urn = sub.add_parser("urn", help="urn-sequence moments and the gap experiment")
    urn_sub = p_urn.add_subparsers(dest="subcommand", required=True)
    for name, handler in (
        ("quantum", cmd_urn_quantum),
        ("classical", cmd_urn_classical),
        ("gap", cmd_urn_gap),
    ):
        u = urn_sub.add_parser(name)
        u.add_argument("--n", type=int, required=True)
        u.add_argument("--lam", required=True, help="comma-separated rational weights")
        u.add_argument("--j", required=True, help="comma-separated labels")
        u.set_defaults(handler=handler)

    p_magic = sub.add_parser("magic", help="magic unitary validation and invariance")
    magic_sub = p_magic.add_subparsers(dest="subcommand", required=True)
    m_val = magic_sub.add_parser("validate")
    m_val.add_argument("--perm", help="comma-separated images, e.g. 2,1,3")
    m_val.add_argument("--theta", type=float, help="two-projection angle")
    m_val.add_argument("--tol", type=float, default=1e-9)
    m_val.set_defaults(handler=cmd_magic_validate)
    m_inv = magic_sub.add_parser("invariance")
    m_inv.add_argument("--perm")
    m_inv.add_argument("--theta", type=float)
    m_inv.add_argument("--moments", required=True, help="label-indexed MomentFunctional JSON")
    m_inv.add_argument("--degree", type=int, required=True)
    m_inv.add_argument("--tol", type=float)
    m_inv.set_defaults(handler=cmd_magic_invariance)

    p_rep = sub.add_parser("reproduce-all", help="run the full acceptance battery")
    p_rep.add_argument("--k-max", type=int, default=K_MAX)
    p_rep.add_argument("--n-range", default="4..60")
    p_rep.add_argument("--tol", type=float, default=1e-9)
    p_rep.add_argument("--seed", type=int, default=20260808)
    p_rep.add_argument("--csv", action="store_true")
    p_rep.add_argument(
        "--timings",
        metavar="FILE",
        help="also write each criterion's seconds and every memo cache's "
        "cache_info() to FILE as JSON",
    )
    p_rep.set_defaults(handler=cmd_reproduce_all)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except QpermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
