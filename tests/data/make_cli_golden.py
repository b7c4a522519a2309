"""Record tests/data/cli_golden.json: stdout and exit code of a fixed sweep of
leafcoh invocations (the README examples, then fn eval, flow section, lie mc
and fol h1 on seeded inputs).

    PYTHONPATH=src python tests/data/make_cli_golden.py

Re-record only after a deliberate output change; test_cli.py compares every
invocation byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random

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
    return out


def run(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, buf.getvalue()


if __name__ == "__main__":
    rows = []
    for args in cases():
        code, stdout = run(args)
        rows.append({"args": args, "exit": code, "stdout": stdout})
    OUT.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"{len(rows)} invocations -> {OUT}")
