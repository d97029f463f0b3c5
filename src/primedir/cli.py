"""Batch orchestration CLI.

Subcommands: construct, mult-error, incidence, replay, apply, norm-sweep,
selftest. Every command validates its numeric flags against the module
preconditions before any compute starts, writes machine-readable reports (CSV
or JSON, all schema-tagged), and never mutates an input file; it writes no file
that its flags do not name. Commands that sieve size the prime table from their
largest scale k as 2^(k+1) and sieve it in memory on each run.

argparse refuses an unknown flag and a pair of conflicting flags (exit 3)
before any file is read. The remaining size and scale flags resolve in one
place, `_resolve`, which `main` calls before the command runs: explicit flag >
--profile preset > the command's fallback (`_FALLBACKS`). It then checks each
integer flag against its floor (`_LEAST`), so no file is read or sieved first.

Exit codes: 0 ok, 1 runtime error, 2 validation/construction failure, 3 usage.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import random
import sys
import time

from . import incidence, maximal, multiplier, selftest
from .arith import sieve_primes
from .directions import (
    DirectionSpec,
    construct_directions,
    load_direction_set,
    min_angle,
    rescale_to_integers,
    save_direction_set,
    serialize,
)
from .errors import ConstructionError, ParseError

PROFILES = {
    "desk-small": {
        "n": 4, "eps": 1.0, "seed": 7, "k_min": 10, "k_max": 12,
        "l": 63, "grid": 256, "k_list": "10,11,12", "s": 1,
    },
    "desk-full": {
        "n": 8, "eps": 0.5, "seed": 7, "k_min": 14, "k_max": 16,
        "l": 127, "grid": 1024, "k_list": "14,16,18,20", "s": 2,
    },
}

# Per command, the fallback of each flag that neither the command line nor the
# --profile preset set; None marks a flag that one of the two must set.
_FALLBACKS = {
    "construct": {"n": None, "eps": None, "seed": 0},
    "mult-error": {"k_list": "14,16,18,20", "grid": 1024},
    "incidence": {"s": None},
    "replay": {},
    "apply": {"l": 63, "k_min": None, "k_max": None},
    "norm-sweep": {"eps": 0.5, "seed": 7, "l": 63, "k_min": 10, "k_max": 12},
    "selftest": {},
}

# The least value of each integer flag, for every command that takes the flag.
_LEAST = {"n": 2, "s": 1, "grid": 1, "r_sweeps": 1, "window_half": 1, "l": 2, "trials": 1,
          "c1": 1, "a": 1, "m_exp": 1, "window_count": 1, "k_min": 1}


class UsageError(Exception):
    """Flag combination violates a documented precondition."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kw):
        # a prefix of a flag is not another spelling of it
        super().__init__(*args, allow_abbrev=False, **kw)

    def error(self, message):  # argparse default exits 2; the contract says 3
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(3)


def _resolve(args) -> None:
    """Set every flag of the command in place: the given value, else the
    --profile preset, else the command's fallback; then check each set flag
    against its floor in _LEAST."""
    # selftest and replay take no --profile
    preset = PROFILES.get(getattr(args, "profile", None), {})
    missing = []
    for name, fallback in _FALLBACKS[args.command].items():
        val = getattr(args, name)
        if val is None:
            val = preset.get(name)
        if val is None:
            val = fallback
        if val is None:
            missing.append("--" + name.replace("_", "-"))
        setattr(args, name, val)
    if missing:
        raise UsageError(f"missing {' '.join(missing)} (give the flag or use --profile)")
    for name, least in _LEAST.items():
        val = getattr(args, name, None)
        if val is not None and val < least:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {least}")


def _operator_scales(args) -> range:
    """The scales of apply and norm-sweep, after checking their order."""
    if args.k_min > args.k_max:
        raise UsageError("--k-min must be <= --k-max")
    return range(args.k_min, args.k_max + 1)


def _prime_table(scales):
    """The sieve up to 2^(max(scales) + 1), after checking that every scale is >= 1.

    A scale-k average reads only the primes in [2^k, 2^(k+1)]
    (``PrimeTable.slice_for_scale``), so a larger table changes no output.
    Scale 0 holds the one prime 2, at weight phi(2) log 2 = 0, so its m
    profile is identically 0, and OperatorConfig refuses it too.
    """
    if min(scales) < 1:
        raise UsageError(f"scales must be >= 1; got k = {min(scales)}")
    return sieve_primes(1 << (max(scales) + 1))


def _load_ds(path):
    """A direction set from file, rescaled to integers unless it already is."""
    ds = load_direction_set(path)
    return ds if ds.integer_vectors is not None else rescale_to_integers(ds)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"cannot parse {what} list {text!r}")


def _parse_vectors(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(";"):
        xy = part.split(",")
        if len(xy) != 2:
            raise UsageError(f"vector {part!r} is not 'x,y'")
        try:
            out.append((int(xy[0]), int(xy[1])))
        except ValueError:
            raise UsageError(f"vector {part!r} is not a pair of integers")
    return tuple(out)


# -- commands ---------------------------------------------------------------------


def cmd_construct(args) -> int:
    if not 0 < args.eps <= 1:
        raise UsageError("--eps must lie in (0, 1]")
    spec = DirectionSpec(
        N=args.n, eps=args.eps, M=args.m_exp, mode=args.mode, seed=args.seed,
        C0=args.c0, window_base=args.window_base, window_count=args.window_count,
    )
    ds = rescale_to_integers(construct_directions(spec), args.a)
    save_direction_set(ds, args.out)
    ma = min_angle(ds)
    digest = hashlib.sha256(serialize(ds)).hexdigest()[:16]
    print(f"VALID n={spec.N} kappa={ds.kappa} min_angle_sin~{ma.sin:.3e} hash={digest}")
    print(f"wrote {args.out}")
    return 0


def cmd_mult_error(args) -> int:
    ks = _parse_int_list(args.k_list, "k")
    if not ks:
        raise UsageError("--k-list is empty")
    if args.d <= 16:
        raise UsageError("--d must exceed 16 (the main-term approximation requires D > 2^4)")
    table = _prime_table(ks)
    rows = multiplier.error_profile(ks, args.d, args.grid, table).rows
    multiplier.write_error_profile_csv(rows, args.out)
    for r in rows:
        print(f"k={r.k} sup|E_k|={r.sup_abs_E:.6f} argmax={r.argmax_alpha:.6f} "
              f"wall={r.wall_ms:.0f}ms s_max={r.s_max} truncated={r.truncated}")
    print(f"wrote {args.out}")
    return 0


def _incidence_families(ds, s, C1, r_values, variant, baseline):
    """The tube families of ds, or with baseline "parallel" as many copies of
    its first family (the variant's direction, r, C1, torus and ball), so the
    two reports compare."""
    fams = incidence.families_from_direction_set(ds, s=s, C1=C1, r_values=r_values, variant=variant)
    return fams[:1] * len(fams) if baseline == "parallel" else fams


def cmd_incidence(args) -> int:
    s = args.s
    if args.window_half is not None and args.variant == "k":
        raise UsageError("--window-half sizes the ktilde window; the k window is fixed")
    win = incidence.default_window(args.variant, half=args.window_half or 1)
    rng = random.Random(args.seed)
    ds = _load_ds(args.ds)
    n = len(ds.vectors)
    best = None
    for sweep in range(args.r_sweeps):
        r_values = ([1 << s] * n if sweep == 0
                    else [rng.randrange(1 << s, 1 << (s + 1)) for _ in range(n)])
        fams = _incidence_families(ds, s, args.c1, r_values, args.variant, args.baseline)
        rep = incidence.max_overlap_scan(fams, win)
        if best is None or rep.max_overlap > best.max_overlap:
            best = rep
    best.baseline = args.baseline  # replay rebuilds the baseline from the report
    incidence.save_overlap_report(best, args.out)
    print(
        f"max_overlap={best.max_overlap} method={best.method} "
        f"candidates={best.candidates_checked} families={best.family_count} "
        f"samples_counted={best.samples_counted} shared_centers={best.shared_centers}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_replay(args) -> int:
    rep = incidence.load_overlap_report(args.report)
    fams = _incidence_families(_load_ds(args.ds), rep.s, rep.C1, rep.r_values,
                               rep.variant, rep.baseline)
    count = incidence.replay_witness(rep, fams)
    if count != rep.max_overlap:
        print(f"REPLAY MISMATCH: witness count {count} != reported {rep.max_overlap}")
        return 2
    print(f"replay ok: witness attains {count}")
    return 0


def cmd_apply(args) -> int:
    L = args.l
    scales = _operator_scales(args)
    directions = (_load_ds(args.ds).integer_vectors if args.vectors is None
                  else _parse_vectors(args.vectors))
    f = maximal.GridFunction.delta(L) if args.delta else maximal.load_grid_function(args.input)
    if f.L != L:
        raise UsageError(f"input grid side {f.L} != --l {L}")
    cfg = maximal.OperatorConfig(directions=directions, k_min=args.k_min, k_max=args.k_max,
                                 table=_prime_table(scales))
    print(f"degenerate_directions={maximal.degenerate_directions(cfg, L)}/{len(cfg.directions)}")
    out = maximal.maximal_op(f, cfg)
    if args.delta:
        disjoint = maximal.delta_spread_disjoint(cfg, L)
        closed = maximal.delta_spread_value(cfg)
        measured = out.norm2()
        # the closed form only holds under the disjoint-support precondition
        closed_s = f"{closed:.12g}" if disjoint else "n/a"
        rel = f"{abs(measured - closed) / closed:.3g}" if disjoint and closed else "n/a"
        print(
            f"delta-spread: measured={measured:.12g} closed_form={closed_s} "
            f"rel={rel} disjoint_precondition={disjoint}"
        )
    if args.out:
        maximal.save_grid_function(out, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        maximal.export_csv(out, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_norm_sweep(args) -> int:
    ns = sorted(set(_parse_int_list(args.n_list, "n")))
    if not ns or ns[0] < 1:
        raise UsageError("--n-list must hold positive sizes")
    scales = _operator_scales(args)
    # one family at the largest size; its prefixes are nested sets, so the
    # operator norm cannot fall as N grows.  Each family's ratio is a lower
    # estimate of that norm; it cannot fall either, because every N sees the
    # same test functions (one seed) under a sup over more directions
    spec = DirectionSpec(N=max(ns[-1], 2), eps=args.eps, seed=args.seed)
    ds = rescale_to_integers(construct_directions(spec))
    table = _prime_table(scales)
    rows = []
    for n in ns:
        cfg = maximal.OperatorConfig(
            directions=tuple(ds.integer_vectors[:n]), k_min=args.k_min, k_max=args.k_max,
            table=table,
        )
        rep = maximal.empirical_norm(cfg, args.l, trials=args.trials, seed=args.seed)
        overall = max(v["max_ratio"] for v in rep.per_family.values())
        rows.append((n, overall, rep))
        degenerate = maximal.degenerate_directions(cfg, args.l)
        ratios = " ".join(f"{fam}={info['max_ratio']:.6f}" for fam, info in rep.per_family.items())
        print(f"N={n}: max ratio {overall:.6f} {ratios} degenerate_directions={degenerate}/{n}")
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema", "primedir.norm_sweep.v1"])
        w.writerow(["n", "family", "max_ratio", "argmax"])
        for n, _, rep in rows:
            for fam, info in rep.per_family.items():
                w.writerow([n, fam, info["max_ratio"], info["argmax"]])
    print(f"wrote {args.out}")
    return 0


def cmd_selftest(args) -> int:
    return 0 if selftest.run_all(verbose=True) else 1


# -- parser ------------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="primedir", description=__doc__)
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--profile", choices=sorted(PROFILES), help="named desk-scale preset")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, *parents, **kw):
        return sub.add_parser(name, parents=list(parents), **kw)

    c = add("construct", profile, help="build, validate, and write a direction set")
    c.add_argument("--n", type=int)
    c.add_argument("--eps", type=float)
    c.add_argument("--mode", choices=["toy", "strict"], default=DirectionSpec.mode)
    c.add_argument("--seed", type=int)
    c.add_argument("--m-exp", type=int, default=DirectionSpec.M, help="window exponent M")
    c.add_argument("--c0", type=int, default=DirectionSpec.C0)
    c.add_argument("--window-base", type=int, default=None)
    c.add_argument("--window-count", type=int, default=None)
    c.add_argument("--a", type=int, default=None, help="integer annulus radius (default N^C0)")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_construct)

    m = add("mult-error", profile, help="sweep sup|m_k - L_k| and write a CSV")
    m.add_argument("--k-list", dest="k_list")
    m.add_argument("--d", type=float, default=multiplier.DEFAULT_D)
    m.add_argument("--grid", type=int)
    m.add_argument("--out", required=True)
    m.set_defaults(fn=cmd_mult_error)

    i = add("incidence", profile, help="max-overlap scan of a direction set's tubes")
    i.add_argument("--ds", required=True)
    i.add_argument("--s", type=int)
    i.add_argument("--c1", type=int, default=None)
    i.add_argument("--variant", choices=["k", "ktilde"], default="ktilde")
    i.add_argument("--baseline", choices=["parallel"], default=None)
    i.add_argument("--window-half", type=int, default=None,
                   help="half-side of the ktilde scan window (default 1)")
    i.add_argument("--r-sweeps", type=int, default=1,
                   help="random denominator assignments to sweep (first is all 2^s)")
    i.add_argument("--seed", type=int, default=0, help="seed of the r sweeps")
    i.add_argument("--out", default="overlap.json", help="report file to write")
    i.set_defaults(fn=cmd_incidence)

    r = add("replay", help="re-verify the witness of an overlap report")
    r.add_argument("--ds", required=True)
    r.add_argument("--report", required=True, help="overlap report written by incidence")
    r.set_defaults(fn=cmd_replay)

    a = add("apply", profile, help="apply the maximal operator to a grid function")
    directions = a.add_mutually_exclusive_group(required=True)
    directions.add_argument("--ds")
    directions.add_argument("--vectors", help="'x,y;x,y;...' integer directions")
    a.add_argument("--l", type=int)
    a.add_argument("--k-min", dest="k_min", type=int)
    a.add_argument("--k-max", dest="k_max", type=int)
    source = a.add_mutually_exclusive_group(required=True)
    source.add_argument("--delta", action="store_true",
                        help="use a point mass input and check the spread identity")
    source.add_argument("--input", help="grid-function file")
    a.add_argument("--out", default=None)
    a.add_argument("--csv", default=None)
    a.set_defaults(fn=cmd_apply)

    n = add("norm-sweep", profile, help="empirical norm ratios over nested family sizes")
    n.add_argument("--n-list", dest="n_list", default="4,8,16")
    n.add_argument("--eps", type=float)
    n.add_argument("--seed", type=int)
    n.add_argument("--l", type=int)
    n.add_argument("--k-min", dest="k_min", type=int)
    n.add_argument("--k-max", dest="k_max", type=int)
    n.add_argument("--trials", type=int, default=8)
    n.add_argument("--out", required=True)
    n.set_defaults(fn=cmd_norm_sweep)

    s = add("selftest", help="run every built-in oracle check")
    s.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _resolve(args)
        code = args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (ConstructionError, ParseError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    if code == 0:
        print(f"done in {time.perf_counter() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
