"""Record tests/data/cli_golden.json: stdout and exit code of a fixed sweep of
leafcoh invocations (the README examples, then fn eval, flow section, lie mc
and fol h1 on seeded inputs, runs of every other ``cli.DISPATCH``
subcommand, then exact obstruction chains that vanish, an over-large --tol
and non-finite floats).

    PYTHONPATH=src python tests/data/make_cli_golden.py

Re-record only after a deliberate output change; test_cli.py compares every
invocation byte for byte.  Rewriting the file prints one JSON line (args,
old, new) for each invocation whose exit code or stdout changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
from fractions import Fraction

from leafcoh.cli import main

OUT = pathlib.Path(__file__).with_name("cli_golden.json")

GOLDEN = "quadratic:(-1+sqrt5)/2"
SL2 = {"dim": 3, "c": [{"i": 0, "j": 1, "k": 1, "val": "1"},
                       {"i": 0, "j": 2, "k": 2, "val": "-1"},
                       {"i": 1, "j": 2, "k": 0, "val": "2"}]}


def poly(dims, coeffs):
    return {"dims": dims, "coeffs": [{"k": list(k), "re": c.real, "im": c.imag} for k, c in coeffs.items()]}


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def random_poly(rng, dims, n_modes, max_freq, real=False):
    out = {}
    while len(out) < n_modes:
        k = tuple(rng.randint(-max_freq, max_freq) for _ in range(dims))
        c = complex(rng.choice([rng.uniform(-1, 1), 0.5, -0.25, 0.0, -0.0]),
                    rng.choice([rng.uniform(-1, 1), 0.125, 0.0, -0.0]))
        out[k] = c
        if real:
            out[tuple(-v for v in k)] = c.conjugate()
    return out


def return_time(a1, a2=0.0, t2=0.0):
    c1 = complex(a1, 0.0)
    c2 = a2 * complex(0.6, 0.8) if t2 else complex(a2, 0.0)
    coeffs = {(0,): 1.0 + 0j, (1,): c1, (-1,): c1.conjugate()}
    if a2:
        coeffs[(2,)], coeffs[(-2,)] = c2, c2.conjugate()
    return dumps(poly(1, coeffs))


def form(dims, idx_polys, degree=1):
    return {"degree": degree, "components": [{"idx": list(i), "poly": poly(dims, c)} for i, c in idx_polys]}


def cases():
    rng = random.Random(20261018)
    out = []
    # README examples (fol h1 reads its form inline)
    readme_form = form(2, [((0,), {(1, 1): 0.5 + 0j, (-1, -1): 0.5 + 0j})])
    out += [
        ["toral", "wang", "--matrix", "[[2,1],[1,1]]"],
        ["dio", "cf", "--x", GOLDEN, "--n", "10"],
        ["dio", "margin", "--x", GOLDEN, "--rho", "1", "--k", "10000"],
        ["flow", "solve-circle", "--json",
         '{"dims":1,"coeffs":[{"k":[1],"re":0.5,"im":0},{"k":[-1],"re":0.5,"im":0}]}', "--alpha", GOLDEN],
        ["fol", "h1", "--p", "1", "--q", "1", "--slope", '[["quadratic:(1-sqrt5)/2"]]', "--json", dumps(readme_form)],
        ["--precision", "exact", "skew", "obstructions", "--json",
         '{"dims":2,"coeffs":[{"k":[1,0],"re":"1/2","im":"0"}]}', "--lam", GOLDEN, "--k", "8"],
        ["lie", "ce", "--json", dumps(SL2)],
    ]
    # fn eval: 1-3 dims, signed zeros, cancelling values, far-apart and large supports
    polys = [
        poly(1, {(1,): 1.0 + 0j}),
        poly(1, {(0,): -0.0 + 0j, (1,): 0.5 - 0.0j, (-1,): 0.5 + 0.0j}),
        poly(2, {(0, 0): 1.0 + 0j, (10**9, 0): 0.25 - 0.5j, (0, -(10**9)): -0.125 + 0j}),
        poly(1, {(k,): complex(2.0 ** -abs(k), 0.0) for k in range(-20, 21)}),
    ] + [poly(d, random_poly(rng, d, n, m)) for d, n, m in ((1, 9, 6), (2, 40, 4), (2, 121, 5), (3, 60, 3))]
    points = {1: ["0", "0.25", "-0.7", "0.123456789", "1e-9", "3.5"],
              2: ["0,0", "0.25,0.75", "-0.3,0.61", "1e-12,0.5"],
              3: ["0,0,0", "0.1,0.2,0.3", "-0.9,0.45,0.05"]}
    for p in polys:
        for at in points[p["dims"]]:
            out.append(["fn", "eval", "--json", dumps(p), "--at", at])
    # flow section: samples, step, tol, slopes, csv; plus the refusals
    for rt, alpha, extra in (
        (return_time(0.15), GOLDEN, []),
        (return_time(0.15), GOLDEN, ["--samples", "33"]),
        (return_time(0.1, 0.02, 1.0), GOLDEN, ["--samples", "64"]),
        (return_time(0.1, 0.02, 1.0), "quadratic:(5-sqrt5)/5", ["--samples", "40", "--step", "0.002"]),
        (return_time(0.2), "1/4", ["--step", "0.01"]),
        (return_time(0.3, 0.05, 1.0), "0.3819660112501051", ["--samples", "48", "--step", "0.0005"]),
        (return_time(0.05), GOLDEN, ["--step", "0.05"]),
        (return_time(0.05), GOLDEN, ["--step", "0.37"]),
        (return_time(0.15), "quadratic:(1+sqrt3)/4", ["--samples", "100", "--step", "0.004"]),
    ):
        out.append(["flow", "section", "--json", rt, "--alpha", alpha] + extra)
    out.append(["--tol", "1e-4", "flow", "section", "--json", return_time(0.15), "--alpha", GOLDEN])
    out.append(["--output", "csv", "flow", "section", "--json", return_time(0.1, 0.02, 1.0), "--alpha", GOLDEN])
    out.append(["--output", "pretty", "flow", "section", "--json", return_time(0.15), "--alpha", "quadratic:(5-sqrt5)/5",
                "--step", "0.003"])
    out.append(["flow", "section", "--json", return_time(0.15), "--alpha", GOLDEN, "--samples", "31"])
    out.append(["flow", "section", "--json", return_time(0.6), "--alpha", GOLDEN])
    out.append(["flow", "section", "--json", return_time(0.15), "--alpha", "1/2"])
    out.append(["flow", "density", "--json", return_time(0.15, 0.05, 1.0)])
    # lie mc: abelian and sl2-valued forms; the bracket term convolves polynomials
    slope2 = '[["1/3"],["quadratic:(1-sqrt5)/2"]]'
    for n_modes, max_freq in ((2, 1), (6, 2), (14, 2)):
        comps = [form(3, [((0,), random_poly(rng, 3, n_modes, max_freq, real=True)),
                          ((1,), random_poly(rng, 3, n_modes, max_freq, real=True))]) for _ in range(3)]
        out.append(["lie", "mc", "--json", dumps({"algebra": SL2, "components": comps}),
                    "--p", "2", "--q", "1", "--slope", slope2])
    abelian = {"algebra": {"dim": 1, "c": []},
               "components": [form(2, [((0,), {(0, 0): 1.0 + 0j})])]}
    out.append(["lie", "mc", "--json", dumps(abelian), "--p", "1", "--q", "1", "--slope", '[["1/3"]]'])
    # fol h1: cat-map and two-dimensional leaves
    for n_modes in (3, 12):
        f1 = form(2, [((0,), random_poly(rng, 2, n_modes, 4, real=True))])
        out.append(["fol", "h1", "--p", "1", "--q", "1", "--slope", '[["quadratic:(1-sqrt5)/2"]]',
                    "--json", dumps(f1)])
    g = random_poly(rng, 3, 5, 2, real=True)
    out.append(["fol", "h1", "--p", "2", "--q", "1", "--slope", slope2,
                "--json", dumps(form(3, [((0,), g), ((1,), g)]))])
    return out + subcommand_cases(rng) + exact_zero_and_refusal_cases()


def subcommand_cases(rng):
    """At least one run of every cli.DISPATCH subcommand the sweep above lacks."""
    out = []
    # dio fit: scalar, csv, matrix
    out += [
        ["dio", "fit", "--x", GOLDEN, "--k", "300"],
        ["--output", "csv", "dio", "fit", "--x", "sqrt2", "--k", "100"],
        ["dio", "fit", "--matrix", '[["sqrt2","quadratic:(1+sqrt3)/2"]]', "--k", "12"],
    ]
    # fn ddt with rational, quadratic and float directions; fn dft both ways; fn decay
    p1 = dumps(poly(1, random_poly(rng, 1, 7, 5)))
    p2 = dumps(poly(2, random_poly(rng, 2, 15, 3)))
    out += [
        ["fn", "ddt", "--json", p1, "--v", "1/2"],
        ["fn", "ddt", "--json", p2, "--v", f"{GOLDEN},1/3"],
        ["fn", "ddt", "--json", p2, "--v", "0.37,-2"],
        ["fn", "ddt", "--json", p2, "--v", "2,-1"],
    ]
    samples1 = [[round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)] for _ in range(7)]
    samples2 = [[[1.0, 0.0], [0.5, -0.25], [0.0, 0.0]],
                [[0.25, 0.5], [-1.0, 0.0], [0.0, 0.125]],
                [[0.0, 0.0], [2.0, 1.0], [-0.5, -0.5]]]
    out += [
        ["fn", "dft", "--json", dumps(samples1)],
        ["fn", "dft", "--json", dumps(samples2)],
        ["fn", "dft", "--json", dumps([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])],
        ["fn", "dft", "--inverse", "--grid", "11", "--json", p1],
        ["fn", "dft", "--inverse", "--grid", "7", "--json", p2],
        ["fn", "dft", "--inverse", "--grid", "5", "--json", p1],
        ["fn", "decay", "--json", p2, "--r", "0,1,2.5"],
        ["--output", "csv", "fn", "decay", "--json", p1, "--r", "0.5,3"],
    ]
    # fol d, restrict and iota on a two-dimensional foliation of T^3
    slope2 = '[["1/3"],["quadratic:(1-sqrt5)/2"]]'
    fol2 = ["--p", "2", "--q", "1", "--slope", slope2]
    out += [
        ["fol", "d"] + fol2 + ["--json", dumps(form(3, [((), random_poly(rng, 3, 8, 2))], degree=0))],
        ["fol", "d"] + fol2 + ["--json", dumps(form(3, [((0,), random_poly(rng, 3, 6, 2)),
                                                          ((1,), random_poly(rng, 3, 6, 2))]))],
        ["fol", "restrict"] + fol2 + ["--json", dumps(form(3, [((0,), random_poly(rng, 3, 5, 2)),
                                                                 ((2,), random_poly(rng, 3, 5, 2))]))],
        ["fol", "restrict"] + fol2 + ["--json", dumps(form(3, [((0, 2), random_poly(rng, 3, 5, 2)),
                                                                 ((1, 2), random_poly(rng, 3, 5, 2))],
                                                              degree=2))],
        ["fol", "iota"] + fol2 + ["--xi", "1,0.5"],
        ["fol", "iota"] + fol2 + ["--xi", "0,-0.0"],
    ]
    # fol minwitness: solvable for the golden slope, exactly resonant for 1/3
    top = form(2, [((0,), {(0, 0): 1.0 + 0j, (1, 1): 0.25 - 0.5j, (-1, -1): 0.25 + 0.5j, (2, -1): 0.125 + 0j})])
    out += [
        ["fol", "minwitness", "--p", "1", "--q", "1", "--slope", '[["quadratic:(1-sqrt5)/2"]]', "--json", dumps(top)],
        ["fol", "minwitness", "--p", "1", "--q", "1", "--slope", '[["1/3"]]',
         "--json", dumps(form(2, [((0,), {(0, 0): 1.0 + 0j, (1, -3): 0.5 + 0j})]))],
    ]
    # toral: certify, slope (exact 2x2, float 3x3), kunneth, irred
    cubic = "[[0,1,0],[0,0,1],[1,1,0]]"
    out += [
        ["toral", "certify", "--matrix", "[[2,1],[1,1]]"],
        ["toral", "certify", "--matrix", "[[2,1,1],[1,1,0],[1,0,0]]"],
        ["toral", "certify", "--matrix", "[[1,1],[0,1]]"],
        ["toral", "slope", "--matrix", "[[2,1],[1,1]]"],
        ["toral", "slope", "--matrix", "[[2,1,1],[1,1,0],[1,0,0]]"],
        ["toral", "kunneth", "--dims-f", "1,1,0", "--dims-g", "1,2,1"],
        ["toral", "irred", "--matrix", "[[2,1],[1,1]]"],
        ["toral", "irred", "--matrix", cubic],
        ["toral", "irred", "--matrix", "[[2,0],[0,3]]"],
    ]
    # flow solve-flow (solved, resonant) and birkhoff in both modes
    f2 = dumps(poly(2, {(0, 0): 0.5 + 0j, (1, 2): 0.25 - 0.125j, (-1, -2): 0.25 + 0.125j,
                        (2, -1): 0.1 + 0j, (-2, 1): 0.1 + 0j}))
    out += [
        ["flow", "solve-flow", "--json", f2, "--alpha", f"{GOLDEN},1"],
        ["flow", "solve-flow", "--json", f2, "--alpha", "0.7236,1"],
        ["flow", "solve-flow", "--json", f2, "--alpha", "1/2,1"],
        ["flow", "birkhoff", "--json", f2, "--alpha", f"{GOLDEN},1", "--x0", "0.1,0.2", "--t", "1000"],
        ["flow", "birkhoff", "--json", f2, "--alpha", "1/2,1", "--x0", "0,0", "--t", "50"],
        ["--output", "csv", "flow", "birkhoff", "--json", f2, "--alpha", f"{GOLDEN},sqrt2",
         "--x0", "0.3,0.4", "--mode", "map", "--t", "500"],
    ]
    # skew obstructions in the float lane
    skew_f = dumps(poly(2, {(0, 1): 0.5 + 0j, (0, -1): 0.5 + 0j, (1, 0): 0.5 + 0j, (1, 2): -0.25j,
                            (-1, 0): 0.5 + 0j, (2, 1): 0.125 + 0j}))
    out += [
        ["skew", "obstructions", "--json", skew_f, "--lam", GOLDEN, "--k", "4"],
        ["skew", "obstructions", "--json", skew_f, "--lam", "1/3", "--k", "1"],
    ]
    # lie validate: sl2 and a bracket that breaks the Jacobi identity
    bad = {"dim": 3, "c": [{"i": 0, "j": 1, "k": 2, "val": "1"}, {"i": 1, "j": 2, "k": 1, "val": "1"},
                           {"i": 0, "j": 2, "k": 0, "val": "1"}]}
    out += [
        ["lie", "validate", "--json", dumps(SL2)],
        ["lie", "validate", "--json", dumps(bad)],
    ]
    # flow density on T^2: positive data, and data that is negative off the line y = 0
    out += [
        ["flow", "density", "--json", dumps(poly(2, {(0, 0): 1.0 + 0j, (1, 1): 0.2 + 0j, (-1, -1): 0.2 + 0j}))],
        ["flow", "density", "--json", dumps(poly(2, {(0, 0): 0.5 + 0j, (0, 1): 0.45 + 0j, (0, -1): 0.45 + 0j}))],
    ]
    return out


def quarter_coboundary(g):
    """g o F - g for F(x, y) = (x + y, y + 1/4) as JSON rows of exact strings.

    At lam = 1/4, zeta = e^{2 pi i lam} = i, so every coefficient of the
    coboundary is a Gaussian rational; g maps (k, m) to (re, im) Fractions."""
    f = {}
    for (k, m), (re, im) in g.items():
        for _ in range(m % 4):
            re, im = -im, re
        for key, (a, b) in (((k, m + k), (re, im)), ((k, m), (-g[(k, m)][0], -g[(k, m)][1]))):
            old = f.get(key, (Fraction(0), Fraction(0)))
            f[key] = (old[0] + a, old[1] + b)
    rows = [{"k": list(key), "re": str(a), "im": str(b)} for key, (a, b) in f.items() if a or b]
    return dumps({"dims": 2, "coeffs": rows})


def exact_zero_and_refusal_cases():
    """Exact obstruction chains that vanish, an over-large --tol, and non-finite floats."""
    F = Fraction
    g = {(1, 0): (F(1), F(0)), (2, -1): (F(1, 2), F(1)), (-1, 2): (F(-3), F(2, 5)),
         (-3, 1): (F(0), F(1, 7)), (2, 2): (F(2), F(-1))}
    # lam = 1/3: the (3, 1) chain through m = 1, 4, 7 sums to -c (1 + zeta + zeta^2) = 0
    third = dumps({"dims": 2, "coeffs": [{"k": [3, m], "re": "1/2", "im": "-2"} for m in (1, 4, 7)]
                   + [{"k": [0, 1], "re": "1", "im": "0"}, {"k": [1, 0], "re": "1", "im": "0"}]})
    one = dumps({"dims": 1, "coeffs": [{"k": [1], "re": 1, "im": 0}]})
    two = dumps({"dims": 2, "coeffs": [{"k": [0, 0], "re": 1, "im": 0}, {"k": [1, 1], "re": 0.2, "im": 0}]})
    return [
        ["--precision", "exact", "skew", "obstructions", "--json", quarter_coboundary(g), "--lam", "1/4", "--k", "3"],
        ["--precision", "exact", "skew", "obstructions", "--json", third, "--lam", "1/3", "--k", "3"],
        ["--tol", "0.99", "toral", "wang", "--matrix", "[[2,1],[1,1]]"],
        ["dio", "margin", "--x", "sqrt2", "--rho", "nan", "--k", "10"],
        ["fn", "eval", "--json", one, "--at", "nan"],
        ["flow", "density", "--json", '{"dims":2,"coeffs":[{"k":[0,0],"re":NaN,"im":0}]}'],
        ["fn", "decay", "--json", one, "--r", "nan"],
        ["flow", "birkhoff", "--json", two, "--alpha", "sqrt2,1", "--x0", "0,0", "--t", "nan"],
        ["flow", "section", "--json", return_time(0.15), "--alpha", GOLDEN, "--step", "inf"],
        ["--tol", "nan", "toral", "certify", "--matrix", "[[2,1],[1,1]]"],
        ["fn", "dft", "--json", "[[NaN,0],[1,0],[0,0]]"],
    ]


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, buf.getvalue()


if __name__ == "__main__":
    old = {json.dumps(r["args"]): r for r in json.loads(OUT.read_text())} if OUT.exists() else {}
    rows = []
    for args in cases():
        code, stdout = run(args)
        rows.append({"args": args, "exit": code, "stdout": stdout})
        prev = old.get(json.dumps(args))
        if prev is not None and (prev["exit"], prev["stdout"]) != (code, stdout):
            print(json.dumps({"args": args, "old": [prev["exit"], prev["stdout"]], "new": [code, stdout]}))
    OUT.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    new = sum(json.dumps(r["args"]) not in old for r in rows)
    print(f"{len(rows)} invocations ({new} new) -> {OUT}")
