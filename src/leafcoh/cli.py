"""Command-line interface.

stdout carries exactly one machine-readable report per invocation (JSON by
default, CSV for tabular data); all prose goes to stderr.  Exit status 0 is
success, 2 a domain outcome (obstruction, resonance, small-divisor
diagnostic), 1 a usage error.  Output is byte-identical for identical
inputs: keys are sorted and nothing time- or environment-dependent is
printed.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import click

from . import diophantine as dio_mod
from . import fourier as fn_mod
from . import leafwise as fol_mod
from . import liealg as lie_mod
from . import skewflow as flow_mod
from . import toral as toral_mod
from .errors import LeafcohError
from .exact import GaussianRational, PhaseCoeff
from .fourier import TrigPoly
from .leafwise import AmbientForm, LeafwiseForm, LinearFoliation, SmallDivisorDiagnostic
from .liealg import LieAlgebraSpec
from .scalars import as_scalar, parse_scalar
from .skewflow import KroneckerFlowSpec

# every module operation is reachable from exactly one subcommand
DISPATCH = {
    "diophantine.continued_fraction": "dio cf",
    "diophantine.scalar_margin": "dio margin",
    "diophantine.matrix_margin": "dio margin",
    "diophantine.exponent_fit": "dio fit",
    "fourier.evaluate": "fn eval",
    "fourier.grid_transform": "fn dft",
    "fourier.inverse_grid": "fn dft",
    "fourier.frame_derivative": "fn ddt",
    "fourier.decay_report": "fn decay",
    "leafwise.leafwise_d": "fol d",
    "leafwise.restrict": "fol restrict",
    "leafwise.iota_form": "fol iota",
    "leafwise.solve_h1": "fol h1",
    "leafwise.minimizability_witness": "fol minwitness",
    "toral.certify_hyperbolic": "toral certify",
    "toral.stable_slope_matrix": "toral slope",
    "toral.wang_cohomology": "toral wang",
    "toral.kunneth_dims": "toral kunneth",
    "toral.char_poly_irreducible": "toral irred",
    "skewflow.circle_cohom_solve": "flow solve-circle",
    "skewflow.flow_cohom_solve": "flow solve-flow",
    "skewflow.straighten_cross_section": "flow section",
    "skewflow.reparam_invariant_density": "flow density",
    "skewflow.birkhoff_average": "flow birkhoff",
    "skewflow.katok_obstructions": "skew obstructions",
    "liealg.validate": "lie validate",
    "liealg.ce_cohomology": "lie ce",
    "liealg.maurer_cartan_residual": "lie mc",
}


def _emit(ctx, payload, rows=None) -> int:
    """Write the report to stdout in the configured format; return exit code."""
    fmt = ctx.obj["output"]
    if fmt == "csv":
        if rows is None:
            raise click.UsageError("this subcommand has no tabular CSV form")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
        return 0
    if fmt == "pretty":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _domain_exit(err: LeafcohError) -> int:
    payload = {"error": type(err).__name__, "message": str(err)}
    modes = getattr(err, "modes", None)
    if modes:
        payload["modes"] = [list(m) if isinstance(m, tuple) else m for m in modes]
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    click.echo(f"domain error: {err}", err=True)
    return 2


def _diagnostic_exit(diag: SmallDivisorDiagnostic) -> int:
    sys.stdout.write(
        json.dumps(diag.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    )
    click.echo(f"diagnostic: {diag.context}", err=True)
    return 2


def _load_json_arg(file, inline, what: str):
    if (file is None) == (inline is None):
        raise click.UsageError(f"provide exactly one of --file or --json for {what}")
    if file is not None:
        with open(file, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(inline)


def _poly_from_obj(obj, exact: bool, lam=None) -> TrigPoly:
    if exact:
        coeffs = {}
        for row in obj["coeffs"]:
            g = GaussianRational(Fraction(str(row["re"])), Fraction(str(row["im"])))
            coeffs[tuple(row["k"])] = PhaseCoeff.from_gaussian(lam, g)
        return TrigPoly(int(obj["dims"]), coeffs)
    return TrigPoly.from_json(obj)


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _parse_scalars(text: str) -> list:
    return [parse_scalar(v) for v in text.split(",") if v.strip() != ""]


def _parse_matrix(text: str) -> list:
    """JSON rows of scalars: strings in the scalar syntax, or plain numbers."""
    return [
        [parse_scalar(e) if isinstance(e, str) else as_scalar(e) for e in row]
        for row in json.loads(text)
    ]



@click.group()
@click.option("--tol", type=float, default=None, help="tolerance override")
@click.option(
    "--precision",
    type=click.Choice(["float", "exact"]),
    default="float",
    help="arithmetic mode where the operation supports both",
)
@click.option(
    "--output",
    type=click.Choice(["json", "csv", "pretty"]),
    default="json",
    help="report format on stdout",
)
@click.pass_context
def cli(ctx, tol, precision, output):
    """Rigidity-theory calculator: Diophantine certificates, cohomological
    equations, leafwise cohomology, and obstruction functionals."""
    ctx.obj = {"tol": tol, "precision": precision, "output": output}


def _tol(ctx, default: float) -> float:
    t = ctx.obj.get("tol")
    return default if t is None else t


# ----------------------------------------------------------------------
# dio


@cli.group()
def dio():
    """Badly-approximable certification."""


@dio.command("cf")
@click.option("--x", "x", required=True, help="exact scalar, e.g. 'quadratic:(-1+sqrt5)/2'")
@click.option("--n", "n", type=int, required=True)
@click.pass_context
def dio_cf(ctx, x, n):
    res = dio_mod.continued_fraction(parse_scalar(x), n)
    return _emit(ctx, res.to_json())


@dio.command("margin")
@click.option("--x", "x", default=None, help="scalar input")
@click.option("--matrix", "matrix", default=None, help="JSON rows of scalars")
@click.option("--rho", type=float, required=True)
@click.option("--k", "k", type=int, required=True, help="search radius")
@click.pass_context
def dio_margin(ctx, x, matrix, rho, k):
    if (x is None) == (matrix is None):
        raise click.UsageError("provide exactly one of --x or --matrix")
    if x is not None:
        cert = dio_mod.scalar_margin(parse_scalar(x), rho, k)
    else:
        cert = dio_mod.matrix_margin(_parse_matrix(matrix), rho, k)
    return _emit(ctx, cert.to_json())


@dio.command("fit")
@click.option("--x", "x", default=None)
@click.option("--matrix", "matrix", default=None)
@click.option("--k", "k", type=int, required=True)
@click.pass_context
def dio_fit(ctx, x, matrix, k):
    if (x is None) == (matrix is None):
        raise click.UsageError("provide exactly one of --x or --matrix")
    if x is not None:
        fit = dio_mod.exponent_fit(parse_scalar(x), k)
    else:
        fit = dio_mod.exponent_fit(_parse_matrix(matrix), k)
    rows_out = [["k", "dist"]] + [[" ".join(map(str, kk)), d] for kk, d in fit.records]
    return _emit(ctx, fit.to_json(), rows=rows_out)


# ----------------------------------------------------------------------
# fn


@cli.group()
def fn():
    """Trigonometric polynomials."""


@fn.command("eval")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--at", "at", required=True, help="comma-separated point of the torus")
@click.pass_context
def fn_eval(ctx, file, inline, at):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "polynomial"))
    v = f.evaluate(_parse_floats(at))
    return _emit(ctx, {"re": v.real, "im": v.imag})


@fn.command("dft")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--inverse", is_flag=True, help="polynomial -> samples instead")
@click.option("--grid", "grid", type=int, default=None, help="grid size for --inverse")
@click.pass_context
def fn_dft(ctx, file, inline, inverse, grid):
    obj = _load_json_arg(file, inline, "samples or polynomial")
    if inverse:
        if grid is None:
            raise click.UsageError("--inverse needs --grid")
        f = TrigPoly.from_json(obj)
        arr = fn_mod.inverse_grid(f, grid)
        payload = {"samples": _complex_nested(arr)}
        return _emit(ctx, payload)
    import numpy as np

    samples = np.asarray(_nested_complex(obj))
    f = fn_mod.grid_transform(samples)
    return _emit(ctx, f.to_json())


def _complex_nested(arr):
    if arr.ndim == 1:
        return [[v.real, v.imag] for v in arr]
    return [_complex_nested(sub) for sub in arr]


def _nested_complex(obj):
    if not isinstance(obj, list) or not obj:
        raise ValueError("samples must be nonempty nested lists of [re, im] pairs")
    if isinstance(obj[0], (int, float)):
        if len(obj) != 2:
            raise ValueError(f"sample {obj!r} is not an [re, im] pair")
        return complex(obj[0], obj[1])
    return [_nested_complex(sub) for sub in obj]


@fn.command("ddt")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--v", "v", required=True, help="direction vector, comma-separated scalars")
@click.pass_context
def fn_ddt(ctx, file, inline, v):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "polynomial"))
    out = fn_mod.frame_derivative(f, _parse_scalars(v))
    return _emit(ctx, out.to_json())


@fn.command("decay")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--r", "r", required=True, help="comma-separated exponents")
@click.pass_context
def fn_decay(ctx, file, inline, r):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "polynomial"))
    rows = fn_mod.decay_report(f, _parse_floats(r))
    payload = [
        {"r": row.exponent, "value": row.value, "witness_k": list(row.witness)}
        for row in rows
    ]
    csv_rows = [["r", "value", "witness"]] + [
        [row.exponent, row.value, " ".join(map(str, row.witness))] for row in rows
    ]
    return _emit(ctx, payload, rows=csv_rows)


# ----------------------------------------------------------------------
# fol


def _fol_options(fn_):
    fn_ = click.option("--p", type=int, required=True)(fn_)
    fn_ = click.option("--q", type=int, required=True)(fn_)
    fn_ = click.option("--slope", required=True, help="JSON rows of scalars")(fn_)
    return fn_


@cli.group()
def fol():
    """Leafwise calculus on linear foliations."""


@fol.command("d")
@_fol_options
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.pass_context
def fol_d(ctx, p, q, slope, file, inline):
    F = LinearFoliation(p, q, _parse_matrix(slope))
    form = LeafwiseForm.from_json(F, _load_json_arg(file, inline, "form"))
    return _emit(ctx, fol_mod.leafwise_d(form).to_json())


@fol.command("restrict")
@_fol_options
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.pass_context
def fol_restrict(ctx, p, q, slope, file, inline):
    F = LinearFoliation(p, q, _parse_matrix(slope))
    form = AmbientForm.from_json(F.dims, _load_json_arg(file, inline, "ambient form"))
    return _emit(ctx, fol_mod.restrict(form, F).to_json())


@fol.command("iota")
@_fol_options
@click.option("--xi", required=True, help="comma-separated covector entries")
@click.pass_context
def fol_iota(ctx, p, q, slope, xi):
    F = LinearFoliation(p, q, _parse_matrix(slope))
    return _emit(ctx, fol_mod.iota_form(_parse_floats(xi), F).to_json())


@fol.command("h1")
@_fol_options
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.pass_context
def fol_h1(ctx, p, q, slope, file, inline):
    F = LinearFoliation(p, q, _parse_matrix(slope))
    form = LeafwiseForm.from_json(F, _load_json_arg(file, inline, "1-form"))
    res = fol_mod.solve_h1(form, F, tol=_tol(ctx, 1e-9))
    if isinstance(res, SmallDivisorDiagnostic):
        return _diagnostic_exit(res)
    return _emit(ctx, res.to_json())


@fol.command("minwitness")
@_fol_options
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.pass_context
def fol_minwitness(ctx, p, q, slope, file, inline):
    F = LinearFoliation(p, q, _parse_matrix(slope))
    form = LeafwiseForm.from_json(F, _load_json_arg(file, inline, "top form"))
    res = fol_mod.minimizability_witness(form, F, tol=_tol(ctx, 1e-9))
    if isinstance(res, SmallDivisorDiagnostic):
        return _diagnostic_exit(res)
    return _emit(ctx, res.to_json())


# ----------------------------------------------------------------------
# toral


@cli.group()
def toral():
    """Hyperbolic toral automorphisms."""


@toral.command("certify")
@click.option("--matrix", required=True, help="row-major integer JSON")
@click.pass_context
def toral_certify(ctx, matrix):
    A = toral_mod.certify_hyperbolic(json.loads(matrix))
    return _emit(ctx, A.to_json())


@toral.command("slope")
@click.option("--matrix", required=True)
@click.pass_context
def toral_slope(ctx, matrix):
    A = toral_mod.certify_hyperbolic(json.loads(matrix))
    B, split = toral_mod.stable_slope_matrix(A)
    payload = {
        "B": [[s.to_json() for s in row] for row in B],
        "split": split.to_json(),
    }
    return _emit(ctx, payload)


@toral.command("wang")
@click.option("--matrix", required=True)
@click.pass_context
def toral_wang(ctx, matrix):
    A = toral_mod.certify_hyperbolic(json.loads(matrix))
    rep = toral_mod.wang_cohomology(A, tol=_tol(ctx, 1e-8))
    return _emit(ctx, rep.to_json())


@toral.command("kunneth")
@click.option("--dims-f", "dims_f", required=True, help="comma-separated dims")
@click.option("--dims-g", "dims_g", required=True)
@click.pass_context
def toral_kunneth(ctx, dims_f, dims_g):
    rep = toral_mod.kunneth_dims(
        [int(v) for v in dims_f.split(",")], [int(v) for v in dims_g.split(",")]
    )
    return _emit(ctx, rep.to_json())


@toral.command("irred")
@click.option("--matrix", required=True)
@click.pass_context
def toral_irred(ctx, matrix):
    return _emit(
        ctx, {"irreducible": toral_mod.char_poly_irreducible(json.loads(matrix))}
    )


# ----------------------------------------------------------------------
# flow


@cli.group()
def flow():
    """Rotations, Kronecker flows, reparametrizations."""


@flow.command("solve-circle")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--alpha", required=True)
@click.pass_context
def flow_solve_circle(ctx, file, inline, alpha):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "data"))
    res = flow_mod.circle_cohom_solve(f, parse_scalar(alpha), tol=_tol(ctx, 1e-9))
    if isinstance(res, SmallDivisorDiagnostic):
        return _diagnostic_exit(res)
    return _emit(ctx, res.to_json())


@flow.command("solve-flow")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--alpha", required=True, help="comma-separated direction scalars")
@click.pass_context
def flow_solve_flow(ctx, file, inline, alpha):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "data"))
    spec = KroneckerFlowSpec(tuple(_parse_scalars(alpha)))
    res = flow_mod.flow_cohom_solve(f, spec, tol=_tol(ctx, 1e-9))
    if isinstance(res, SmallDivisorDiagnostic):
        return _diagnostic_exit(res)
    return _emit(ctx, res.to_json())


@flow.command("section")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--alpha", required=True)
@click.option("--samples", type=int, default=32)
@click.option("--step", type=float, default=None)
@click.pass_context
def flow_section(ctx, file, inline, alpha, samples, step):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "return time"))
    res = flow_mod.straighten_cross_section(
        f, parse_scalar(alpha), tol=_tol(ctx, 1e-6), samples=samples, rk4_step=step
    )
    if isinstance(res, SmallDivisorDiagnostic):
        return _diagnostic_exit(res)
    csv_rows = [["t", "x1", "x2"]] + [[t, x, y] for t, x, y in res.trajectory]
    return _emit(ctx, res.to_json(), rows=csv_rows)


@flow.command("density")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.pass_context
def flow_density(ctx, file, inline):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "data"))
    return _emit(ctx, flow_mod.reparam_invariant_density(f).to_json())


@flow.command("birkhoff")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--alpha", required=True, help="comma-separated direction scalars")
@click.option("--x0", required=True, help="comma-separated start point")
@click.option("--mode", type=click.Choice(["flow", "map"]), default="flow")
@click.option("--t", "horizon", type=float, required=True, help="T (flow) or N (map)")
@click.pass_context
def flow_birkhoff(ctx, file, inline, alpha, x0, mode, horizon):
    f = TrigPoly.from_json(_load_json_arg(file, inline, "observable"))
    x0v = _parse_floats(x0)
    if mode == "flow":
        spec = KroneckerFlowSpec(tuple(_parse_scalars(alpha)))
        res = flow_mod.birkhoff_flow_average(spec, f, x0v, horizon)
    else:
        res = flow_mod.birkhoff_map_average(_parse_scalars(alpha), f, x0v, int(horizon))
    csv_rows = [["T", "abs_average"]] + [[t, v] for t, v in res.curve]
    return _emit(ctx, res.to_json(), rows=csv_rows)


# ----------------------------------------------------------------------
# skew


@cli.group()
def skew():
    """Parabolic skew product obstruction functionals."""


@skew.command("obstructions")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--lam", required=True, help="slope scalar")
@click.option("--k", "k", type=int, required=True, help="max |k| chain searched")
@click.pass_context
def skew_obstructions(ctx, file, inline, lam, k):
    lam_s = parse_scalar(lam)
    obj = _load_json_arg(file, inline, "data")
    exact = ctx.obj["precision"] == "exact"
    f = _poly_from_obj(obj, exact, lam_s)
    rep = flow_mod.katok_obstructions(f, lam_s, k, tol=_tol(ctx, 1e-9))
    return _emit(ctx, rep.to_json())


# ----------------------------------------------------------------------
# lie


@cli.group()
def lie():
    """Lie algebra cohomology and flatness residuals."""


@lie.command("validate")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.pass_context
def lie_validate(ctx, file, inline):
    obj = _load_json_arg(file, inline, "algebra")
    constants = {(r["i"], r["j"], r["k"]): Fraction(r["val"]) for r in obj["c"]}
    spec = LieAlgebraSpec(int(obj["dim"]), constants, check=False)
    return _emit(ctx, spec.validate().to_json())


@lie.command("ce")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.pass_context
def lie_ce(ctx, file, inline):
    spec = LieAlgebraSpec.from_json(_load_json_arg(file, inline, "algebra"))
    return _emit(ctx, lie_mod.ce_cohomology(spec).to_json())


@lie.command("mc")
@click.option("--file", "file", default=None, type=click.Path(exists=True))
@click.option("--json", "inline", default=None)
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--slope", required=True)
@click.pass_context
def lie_mc(ctx, file, inline, p, q, slope):
    obj = _load_json_arg(file, inline, "valued form")
    F = LinearFoliation(p, q, _parse_matrix(slope))
    spec = LieAlgebraSpec.from_json(obj["algebra"])
    comps = [LeafwiseForm.from_json(F, fo) for fo in obj["components"]]
    res = lie_mod.maurer_cartan_residual(comps, spec)
    return _emit(ctx, res.to_json())


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.ClickException as e:
        e.show()
        return 1
    except click.Abort:
        return 1
    except LeafcohError as e:
        return _domain_exit(e)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        click.echo(f"bad input: {e}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
