"""Command-line entry point.

Every subcommand is a reproducible run: model in (built-in or JSON file),
CSV/PGM/SVG artifacts plus a manifest out.  Reruns with the same arguments
produce byte-identical files.

Each `_cmd_*` handler computes and owns the layout of each file it declares
(no library module writes one; `nhskin.io` holds the writers).  It returns
``(artifacts, summary)``: `artifacts` is an ordered list of ``(file name,
writer)`` pairs, where ``writer(path)`` writes that one file, and `summary`
is the lines to print.  `_run` does the rest the same way for every command:
it resolves the model, creates --out, calls only the writers whose file
extension is one of the --format entries (work a writer defers is skipped
with it), writes the manifest and prints the summary.

`build_parser` alone knows what each option accepts and defaults to: its
`type=` checkers refuse a value outside an option's domain as a usage
error, before anything runs.  Numeric imports live inside functions so
that each command loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import sys

from .errors import NHSkinError

# --builtin name -> (constructor in nhskin.model, the options it takes in order)
_BUILTINS = {
    "hatano-nelson": ("builtin_hatano_nelson", ("jl", "jr")),
    "nh-ssh": ("builtin_nh_ssh", ("t1", "t2", "gamma")),
    "asym2d": ("builtin_2d", ("jl", "jr", "tp")),
}
_ONE_D = {"spectrum", "localize", "reciprocity"}  # commands that refuse 2D models


def _checked(parse, ok, what):
    """An argparse `type=`: the value `parse` makes of the text, refused as a
    usage error unless `ok`."""

    def check(text):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return check


def _finite_literal(text):
    from .io import parse_complex

    return cmath.isfinite(parse_complex(text))


_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_NONNEGATIVE = _checked(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")
_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")
_NATURAL = _checked(int, lambda n: n >= 0, "an integer >= 0")
_HALF = _checked(int, lambda n: n >= 2, "an integer >= 2")
# kept as typed, so the manifest echoes the literal
_LITERAL = _checked(str, _finite_literal, "a finite a+bi literal")
_FORMATS = _checked(
    lambda text: ",".join(f.strip() for f in text.split(",")),
    lambda text: set(text.split(",")) <= {"csv", "svg", "pgm"},
    "comma-separated entries from csv, svg and pgm",
)


def _add_model_args(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("model source (exactly one of --model/--builtin)")
    g.add_argument("--model", metavar="FILE", help="JSON model file")
    g.add_argument("--builtin", choices=sorted(_BUILTINS), help="built-in model")
    g.add_argument("--jl", type=float, help="left-hopping amplitude J_L")
    g.add_argument("--jr", type=float, help="right-hopping amplitude J_R")
    g.add_argument("--t1", type=float, help="intra-cell hopping t1")
    g.add_argument("--t2", type=float, help="inter-cell hopping t2")
    g.add_argument("--gamma", type=float, help="non-reciprocal part gamma")
    g.add_argument("--tp", type=float, help="diagonal hopping t'")


def _resolve_model(args):
    if bool(args.model) == bool(args.builtin):
        args.parser.error("exactly one of --model or --builtin is required")
    from . import model as M

    if args.model:
        model = M.load_model(args.model)
    else:
        factory, params = _BUILTINS[args.builtin]
        missing = [f"--{p}" for p in params if getattr(args, p) is None]
        if missing:
            args.parser.error(f"--builtin {args.builtin} requires {', '.join(missing)}")
        model = getattr(M, factory)(*(getattr(args, p) for p in params))
    if args.command in _ONE_D and model.dimension != 1:
        raise ValueError(f"{args.command} expects a 1D model")
    return model


def _run(args) -> int:
    """Usage errors found here go through `args.parser`, the subcommand's own
    parser, so stderr shows that command's usage line."""
    from .io import write_manifest

    # only funnel, which builds its own chain, declares no model options
    model = _resolve_model(args) if hasattr(args, "builtin") else None
    artifacts, summary = args.func(args, model)
    os.makedirs(args.out, exist_ok=True)
    for name, write in artifacts:
        if name.rsplit(".", 1)[1] in args.format.split(","):
            write(os.path.join(args.out, name))
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "parser") and (v is None or isinstance(v, (bool, int, float, str, list)))
    }
    write_manifest(args.out, {"command": args.command, "config": config})
    for line in summary:
        print(line)
    return 0


def _csv(header, columns):
    """Writer of one CSV file from its columns."""
    from .io import write_csv

    return lambda path: write_csv(path, header, columns)


# ------------------------------------------------------------------ commands


def _cmd_spectrum(args, model):
    import numpy as np

    from .io import write_svg_scatter
    from .model import bloch_samples
    from .realspace import build
    from .spectral import dense_spectrum, eig_biorthogonal

    ks = np.linspace(0.0, 2 * np.pi, args.k_samples, endpoint=False)
    bands = np.sort(np.linalg.eigvals(bloch_samples(model, ks)), axis=1)
    op = build(model, [args.sizes], "obc")
    # the eigenvectors behind kappa_i serve obc_spectrum.csv alone
    system = eig_biorthogonal(op) if "csv" in args.format.split(",") else None
    ev = dense_spectrum(op) if system is None else system.eigenvalues
    header = ["k"] + [f"{part}_e{b}" for b in range(bands.shape[1]) for part in ("re", "im")]
    columns = [ks] + [x for z in bands.T for x in (z.real, z.imag)]
    obc = [np.arange(len(ev)), ev.real, ev.imag, None if system is None else system.conditions]
    groups = [
        (bands.real.ravel(), bands.imag.ravel(), "steelblue", "PBC"),
        (ev.real, ev.imag, "crimson", "OBC"),
    ]
    title = f"{model.name or 'model'}: PBC vs OBC spectrum"
    artifacts = [
        ("pbc_bands.csv", _csv(header, columns)),
        ("obc_spectrum.csv", _csv(["index", "re_e", "im_e", "kappa_i"], obc)),
        ("spectrum.svg", lambda path: write_svg_scatter(path, groups, title=title)),
    ]
    return artifacts, [
        f"pbc: {bands.shape[1]} band(s) x {len(ks)} k-points; "
        f"obc: {len(ev)} eigenvalues, max |Im E| = {np.abs(ev.imag).max():.3e}"
    ]


def _cmd_winding(args, model):
    from .io import parse_complex
    from .topology import predict_skin_side, winding_map, winding_number

    base = parse_complex(args.base)
    res = winding_number(model, base, gap_tol=args.tol)
    raw = res.raw_integral
    row = (base.real, base.imag, res.w, float(raw.real), float(raw.imag), res.root_margin)
    header = ["re_base", "im_base", "w", "re_raw", "im_raw", "root_margin"]
    side = predict_skin_side(res)
    artifacts = [("winding.csv", _csv(header, [[v] for v in row]))]
    summary = [f"w = {res.w}", f"skin side: {side if side else 'none'}"]
    if args.grid:
        w = args.window
        rows = winding_map(model, w[:2], w[2:], resolution=args.grid, gap_tol=args.tol)
        artifacts.append(("winding_map.csv", _csv(["re_base", "im_base", "w"], list(zip(*rows)))))
        blank = sum(r[2] == "" for r in rows)
        summary.append(f"map: {len(rows)} points, {blank} blank (gap closed)")
    return artifacts, summary


def _cmd_gbz(args, model):
    import numpy as np

    from .io import write_svg_scatter
    from .nonbloch import gbz_curve

    zone = gbz_curve(model, N_seed=args.sizes, gbz_tol=args.tol)
    beta, energy = zone.beta, zone.energy
    header = ["re_beta", "im_beta", "re_e", "im_e", "residual", "side"]
    columns = [beta.real, beta.imag, energy.real, energy.imag, zone.residual, zone.side]

    def gbz_svg(path):
        groups = []
        for side, color in (("left", "seagreen"), ("right", "crimson"), ("bloch", "steelblue")):
            pts = beta[zone.side == side]
            groups.append((pts.real, pts.imag, color, f"{side} ({len(pts)})"))
        title = f"{model.name or 'model'}: generalized Brillouin zone"
        write_svg_scatter(path, groups, title=title, xlabel="Re beta", ylabel="Im beta")

    mods = np.abs(beta)
    return [("gbz.csv", _csv(header, columns)), ("gbz.svg", gbz_svg)], [
        f"samples: {len(beta)}; |beta| in [{mods.min():.6f}, {mods.max():.6f}]; "
        f"max | |beta| - 1 | = {np.abs(mods - 1).max():.3e}"
    ]


def _cmd_amoeba(args, model):
    import numpy as np

    from .io import parse_complex, write_pgm, write_svg_heatmap
    from .nonbloch import amoeba_points, has_hole

    E = parse_complex(args.energy)
    window = ((args.window[0], args.window[1]), (args.window[2], args.window[3]))
    raster = amoeba_points(
        model, E, r_x_samples=args.resolution, phase_samples=args.phases, window=window
    )
    hole = has_hole(raster)

    def amoeba_points_csv(path):
        xs, ys = (np.linspace(*axis, args.resolution) for axis in window)
        ix, iy = np.nonzero(raster.occupancy)
        _csv(["rx", "log_abs_beta_y"], [xs[ix], ys[iy]])(path)

    def amoeba_svg(path):
        occupancy = raster.occupancy.T[::-1].astype(float)
        write_svg_heatmap(path, occupancy, title=f"amoeba at E = {args.energy}")

    artifacts = [
        ("amoeba.pgm", lambda path: write_pgm(path, raster.occupancy)),
        ("amoeba_points.csv", amoeba_points_csv),
        ("amoeba.svg", amoeba_svg),
    ]
    return artifacts, [f"hole: {'true' if hole else 'false'}"]


def _cmd_localize(args, model):
    import numpy as np

    from .io import write_svg_scatter
    from .localization import classify_spectrum
    from .realspace import build
    from .spectral import eig_biorthogonal

    op = build(model, [args.sizes], "obc")
    system = eig_biorthogonal(op)
    cls = classify_spectrum(system, op)
    ev = system.eigenvalues
    header = ["index", "re_e", "im_e", "label", "side", "edge_fraction", "pr_scaled"]
    states = [
        np.arange(len(ev)), ev.real, ev.imag, cls.label, cls.side, cls.edge_fraction, cls.pr_scaled
    ]

    def profiles_csv(path):
        weight = cls.profiles
        site = np.tile(np.arange(weight.shape[1]), len(weight))
        kind = np.repeat(cls.label, weight.shape[1])
        _csv(["site", "weight", "kind"], [site, weight.ravel(), kind])(path)

    def localize_svg(path):
        colors = {"skin": "crimson", "topological_boundary": "goldenrod", "bulk": "steelblue"}
        groups = []
        for label, color in colors.items():
            es = ev[cls.label == label]
            groups.append((es.real, es.imag, color, f"{label} ({len(es)})"))
        write_svg_scatter(path, groups, title=f"{model.name or 'model'}: state classification")

    # "label/side", or the bare label of a state without a side, sorts as (label, side)
    kinds = np.char.add(cls.label, np.char.add(np.where(cls.side == "", "", "/"), cls.side))
    names, counts = np.unique(kinds, return_counts=True)
    summary = ", ".join(f"{kind}: {n}" for kind, n in zip(names.tolist(), counts.tolist()))
    artifacts = [
        ("states.csv", _csv(header, states)),
        ("profiles.csv", profiles_csv),
        ("localize.svg", localize_svg),
    ]
    return artifacts, [summary]


def _cmd_funnel(args, model):
    import numpy as np

    from .io import write_svg_heatmap
    from .response import funnel_model, time_evolve

    if args.site >= 2 * args.half:
        args.parser.error(f"--site must lie in [0, {2 * args.half - 1}]")
    if abs(args.jl) == abs(args.jr):
        args.parser.error("funnel needs asymmetric hopping, |--jl| != |--jr|")
    op = funnel_model(args.jl, args.jr, args.half)
    psi0 = np.zeros(op.n, dtype=complex)
    psi0[args.site] = 1.0
    traj = time_evolve(op, psi0, args.tmax, args.dt)
    header = ["t", *(f"site_{j}" for j in range(op.n))]
    title = f"funnel |psi|^2 (t down, site across), J_L={args.jl}, J_R={args.jr}"
    artifacts = [
        ("trajectory.csv", _csv(header, [traj.times, *traj.densities.T])),
        ("funnel.svg", lambda path: write_svg_heatmap(path, traj.densities, title=title)),
    ]
    center = args.half - 0.5  # interface sits between sites half-1 and half
    near = np.abs(np.arange(op.n) - center) <= 5
    mass = float(traj.densities[-1, near].sum())
    return artifacts, [f"final density within 5 sites of the interface: {mass:.4f}"]


def _cmd_sensor(args, model):
    import numpy as np

    from .io import parse_complex
    from .response import sensor_sweep

    rows = sensor_sweep(model, args.epsilon, args.sizes, target=parse_complex(args.target))
    summary = []
    ns = np.array([r["N"] for r in rows], dtype=float)
    des = np.array([max(r["delta_E"], 1e-300) for r in rows])
    if len(ns) >= 2:
        slope = float(np.polyfit(ns, np.log(des), 1)[0])
        summary.append(f"slope of ln|dE| vs N: {slope:+.6f}")
    summary += [f"N={r['N']}: |dE| = {r['delta_E']:.6e}" for r in rows]
    columns = [[r[key] for r in rows] for key in ("N", "delta_E")]
    return [("sensor.csv", _csv(["N", "delta_e"], columns))], summary


def _cmd_crossover(args, model):
    import numpy as np

    from .response import boundary_crossover

    if args.eps_min > args.eps_max:
        args.parser.error("crossover needs --eps-min <= --eps-max")
    epsilons = np.logspace(np.log10(args.eps_min), np.log10(args.eps_max), args.eps_count)
    rows = boundary_crossover(model, args.sizes, epsilons)
    columns = [[r[key] for r in rows] for key in ("epsilon", "distance", "max_imag")]
    final = rows[-1]["distance"]
    eps_star = next((r["epsilon"] for r in rows if r["distance"] >= 0.5 * final), None)
    summary = [f"distance at eps={rows[-1]['epsilon']:.3e}: {final:.6f}"]
    if eps_star is not None:
        summary.append(f"half-distance crossover eps* = {eps_star:.6e}")
    return [("crossover.csv", _csv(["epsilon", "distance", "max_imag"], columns))], summary


def _cmd_reciprocity(args, model):
    from .io import parse_complex
    from .realspace import build
    from .response import reciprocity_test

    op = build(model, [args.sizes], "obc")
    omegas = [parse_complex(w) for w in args.omegas]
    rows = reciprocity_test(op, omegas, tol=args.tol)
    header = ["re_omega", "im_omega", "asymmetry", "reciprocal"]
    columns = [[r["omega"].real for r in rows], [r["omega"].imag for r in rows]]
    columns += [[r[key] for r in rows] for key in ("asymmetry", "reciprocal")]
    worst = max(r["asymmetry"] for r in rows)
    verdict = all(r["reciprocal"] for r in rows)
    return [("reciprocity.csv", _csv(header, columns))], [
        f"reciprocal: {'true' if verdict else 'false'} (max asymmetry {worst:.3e})"
    ]


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nhskin",
        description="Non-Hermitian skin-effect analysis: spectra, winding numbers, "
        "generalized Brillouin zones, amoebas, and response experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, func, help, model=True, sizes=None, tol=None):
        # model=False: funnel builds its own chain; sizes, tol: -N and --tol defaults
        sp = sub.add_parser(name, help=help, description=help)
        if model:
            _add_model_args(sp)
        if sizes is not None:
            nargs = "+" if isinstance(sizes, list) else None
            about = "lattice size(s), meaning per command (default: %(default)s)"
            sp.add_argument("-N", "--sizes", type=int, nargs=nargs, default=sizes, help=about)
        sp.add_argument("--out", default="nhskin_out", help="output directory")
        sp.add_argument(
            "--format",
            type=_FORMATS,
            default="csv,svg,pgm",
            help="comma-separated artifact formats to write: csv, svg, pgm",
        )
        if tol is not None:
            sp.add_argument(
                "--tol", type=_POSITIVE, default=tol, help="tolerance (default: %(default)s)"
            )
        sp.set_defaults(func=func, parser=sp)
        return sp

    sp = command("spectrum", _cmd_spectrum, "PBC bands vs OBC spectrum", sizes=100)
    sp.add_argument("--k-samples", type=_COUNT, default=512, help="Bloch sampling resolution")

    sp = command("winding", _cmd_winding, "spectral winding number around a base energy", tol=1e-6)
    sp.add_argument("--base", type=_LITERAL, default="0+0i", help="base energy, a+bi literal")
    sp.add_argument("--grid", type=_NATURAL, default=0, help="also map w on an n x n base grid")
    sp.add_argument(
        "--window",
        type=_FINITE,
        nargs=4,
        default=[-2.0, 2.0, -2.0, 2.0],
        metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
        help="base-energy window for --grid",
    )

    about = "GBZ curve, sampled as an N-cell chain (-N) samples it"
    command("gbz", _cmd_gbz, about, sizes=400, tol=1e-6)

    sp = command("amoeba", _cmd_amoeba, "amoeba raster and hole verdict at one energy")
    sp.add_argument("--energy", type=_LITERAL, required=True, help="test energy, a+bi literal")
    sp.add_argument("--resolution", type=_COUNT, default=300, help="raster cells per axis")
    sp.add_argument("--phases", type=_COUNT, default=600, help="phase samples per column")
    sp.add_argument(
        "--window",
        type=_FINITE,
        nargs=4,
        default=[-3.0, 3.0, -3.0, 3.0],
        metavar=("X_MIN", "X_MAX", "Y_MIN", "Y_MAX"),
        help="log-modulus window",
    )

    command("localize", _cmd_localize, "classify eigenstates: skin / topological / bulk", sizes=40)

    sp = command(
        "funnel", _cmd_funnel, "wave-packet evolution on a two-half funnel chain", model=False
    )
    sp.add_argument("--jl", type=_FINITE, default=0.5, help="left-half forward hopping")
    sp.add_argument("--jr", type=_FINITE, default=1.0, help="left-half backward hopping")
    sp.add_argument("--half", type=_HALF, default=30, help="sites per half")
    sp.add_argument("--site", type=_NATURAL, default=5, help="initial delta-pulse site")
    sp.add_argument("--tmax", type=_NONNEGATIVE, default=40.0, help="total evolution time")
    sp.add_argument("--dt", type=_POSITIVE, default=0.05, help="time step")

    about = "boundary-coupling eigenvalue shift vs size"
    sp = command("sensor", _cmd_sensor, about, sizes=[10, 14, 18, 22])
    sp.add_argument("--epsilon", type=_FINITE, default=1e-4, help="boundary coupling")
    sp.add_argument("--target", type=_LITERAL, default="0+0i", help="tracked energy, a+bi literal")

    sp = command("crossover", _cmd_crossover, "OBC-to-PBC spectral migration vs coupling", sizes=40)
    sp.add_argument("--eps-min", type=_POSITIVE, default=1e-16, help="smallest coupling")
    sp.add_argument("--eps-max", type=_POSITIVE, default=1.0, help="largest coupling")
    sp.add_argument("--eps-count", type=_COUNT, default=25, help="number of log-spaced couplings")

    about = "susceptibility symmetry test |chi| vs |chi|^T"
    sp = command("reciprocity", _cmd_reciprocity, about, sizes=20, tol=1e-10)
    sp.add_argument(
        "--omegas", type=_LITERAL, nargs="+", default=["3", "2+1i"], help="probe frequencies, a+bi"
    )

    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # argparse ties a parser's ~650 objects together in reference cycles, so
    # one built per call lingers until the cyclic collector runs and inflates
    # the heap of a process that calls `main` repeatedly; parsing leaves the
    # parser unchanged and the handlers never mutate `args`, so one parser
    # serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except (NHSkinError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
