"""cli-cold: cold ``python -m leafcoh.cli`` subprocesses, one at a time.

The mix is the README examples plus one more invocation from each
subcommand group (dio, fn, fol, toral, flow, skew, lie), and two expected
exit-2 cases: a resonant circle equation at alpha = 1/2 and a rational-slope
minimizability witness.  An exit-2 case passes only when the exit code and
the diagnostic both match; exit 1 or a traceback is a failure.

This module does not import leafcoh, so the harness process stays small
and the only leafcoh work is in the children.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import mpmath

from common import (
    Job,
    Wrong,
    cf_denominators,
    close,
    fit_slope,
    mp_dist,
    mp_frac_phase,
    np_eval,
    random_complex,
    real_coeffs,
    require,
    rk4_steps,
)

Quad = namedtuple("Quad", "a b c d")
GOLDEN = Quad(-1, 1, 2, 5)
GOLDEN_ARG = "quadratic:(-1+sqrt5)/2"
CAT_ARG = "quadratic:(1-sqrt5)/2"
TWO_PI = 2.0 * math.pi
# slopes in (0.35, 0.65) with ||2 alpha|| >= 0.15, so the section density stays positive
SECTION_SLOPES = (Quad(-1, 1, 2, 5), Quad(-1, 1, 1, 2), Quad(-1, 1, 2, 3), Quad(-2, 1, 1, 7))


class CliRunner:
    """Runs one CLI child at a time; inside a traced job, through the tracing shim.

    The children are started by spawner.py, so that their peak RSS is their
    own.  ``cpu_s`` and ``peak_rss_kb`` cover every child run so far.
    """

    def __init__(self, root: Path, tracer=None):
        self.root = root
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.shim = str(root / "perfbench" / "clishim.py")
        self.out_dir = root / "perfbench" / "out"
        self.cpu_s = 0.0
        self.peak_rss_kb = 0
        self._spawner = None

    def close(self):
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=30)
            self._spawner.stdout.close()
            self._spawner = None

    def run(self, argv):
        if self.tracer is None or self.tracer.job is None:
            return self._spawn([sys.executable, "-m", "leafcoh.cli", *argv], self.env)
        self.out_dir.mkdir(exist_ok=True)
        fd, path = tempfile.mkstemp(dir=self.out_dir, suffix=".json")
        os.close(fd)
        try:
            span = self.tracer.open("cli.process", "cli", self.tracer.job)
            crashed = True
            try:
                res = self._spawn([sys.executable, self.shim, *argv], dict(self.env, PERFBENCH_SPANS=path))
                crashed = "Traceback" in res[2]
            finally:
                self.tracer.close(span, raised=crashed)
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.adopt(child["spans"], child["counts"], span)
            return res
        finally:
            os.unlink(path)

    def _spawn(self, cmd, env):
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, str(self.root / "perfbench" / "spawner.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=self.root,
            )
        self._spawner.stdin.write(json.dumps({"argv": cmd, "env": env}) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError("the child spawner died")
        reply = json.loads(line)
        self.cpu_s, self.peak_rss_kb = reply["children_cpu_s"], reply["children_maxrss_kb"]
        return reply["code"], reply["stdout"], reply["stderr"]


# ----------------------------------------------------------------------
# helpers


def _quad_arg(x: Quad) -> str:
    return f"quadratic:({x.a}{'+' if x.b > 0 else '-'}{abs(x.b)}sqrt{x.d})/{x.c}"


def _value(x: Quad) -> float:
    with mpmath.workdps(50):
        return float((x.a + x.b * mpmath.sqrt(x.d)) / x.c)


def _random_quad(rng) -> Quad:
    return Quad(rng.randint(-4, 4), rng.choice((1, 2)), rng.randint(1, 5), rng.choice((2, 3, 5, 6, 7, 10, 11, 13)))


def _poly_json(dims, coeffs) -> str:
    rows = [{"k": list(k), "re": c.real, "im": c.imag} for k, c in sorted(coeffs.items())]
    return json.dumps({"dims": dims, "coeffs": rows})


def _form_json(dims, degree, comps) -> str:
    return json.dumps({"degree": degree, "components": [
        {"idx": list(idx), "poly": json.loads(_poly_json(dims, c))} for idx, c in sorted(comps.items())]})


def _rows(payload_poly) -> dict:
    return {tuple(r["k"]): complex(r["re"], r["im"]) for r in payload_poly["coeffs"]}


def _scalar(obj) -> float:
    if obj["kind"] == "rational":
        return obj["p"] / obj["q"]
    return _value(Quad(obj["a"], obj["b"], obj["c"], obj["d"]))


def cli_job(runner, kind, argv, code, check, counts=None):
    """A CLI job: run the child, require its exit code, then the oracle.

    ``counts`` maps the parsed stdout to computed per-layer counts.
    """

    def verify(res):
        got, out, err = res
        if "Traceback" in err:
            raise Wrong(f"{kind}: traceback on stderr")
        require(got == code, f"{kind}: exit {got}, expected {code}: {err.strip()[:200]}")
        try:
            payload = json.loads(out)
        except ValueError:
            raise Wrong(f"{kind}: stdout is not one JSON document") from None
        check(payload, err)
        return {"code": got, "out": payload, "#stdout": out}

    def job_counts(res):
        return counts(json.loads(res[1])) if counts else {}

    return Job(kind, lambda: runner.run(argv), verify, job_counts)


# ----------------------------------------------------------------------
# the README examples


def readme_jobs(runner, rng, tiny):
    k_margin = 100 if tiny else 10000

    def wang(p, err):
        require(p["dims"] == [1, 1, 0] and p["provenance"] == "wang", "wang dims")

    def cf(p, err):
        fib = [1, 1]
        while len(fib) < 11:
            fib.append(fib[-1] + fib[-2])
        require(p["quotients"] == [0] + [1] * 9, "golden quotients")
        require(p["convergents"] == [[fib[i - 1] if i else 0, fib[i]] for i in range(10)], "convergents")

    def margin(p, err):
        with mpmath.workdps(50):
            want = float((3 - mpmath.sqrt(5)) / 2)
        require(p["margin"] == want and p["witness_k"] == [1], "golden margin is not (3-sqrt5)/2 at k=1")
        require(p["K"] == k_margin and p["exact"] is True, "certificate header")

    circle_in = {(1,): 0.5 + 0j, (-1,): 0.5 + 0j}

    def circle(p, err):
        g = _rows(p["g"])
        want = 0.5 / (mp_frac_phase(GOLDEN, 1) - 1.0)
        require(p["c"] == 0.0 and close(g[(1,)], want) and close(g[(-1,)], want.conjugate()), "circle g")
        require(p["residual"] < 1e-10, "circle residual")

    # fol h1 on the cat-map foliation with a planted form
    beta = _value(Quad(1, -1, 2, 5))
    g = real_coeffs(rng, 2, 2 if tiny else 6, 4)
    a0 = rng.uniform(-3, 3)
    om = {(0, 0): complex(a0)}
    om.update({k: gk * complex(0.0, TWO_PI * (k[0] + beta * k[1])) for k, gk in g.items()})

    def h1(p, err):
        got = _rows(p["g"])
        require(p["a"] == [a0], "planted a not recovered")
        require(set(got) == set(g) and all(close(got[k], g[k], rel=1e-8) for k in g), "planted g not recovered")
        require(p["residual"] < 1e-9, "h1 residual")

    def skew(p, err):
        e = p["entries"]
        require(len(e) == 1 and (e[0]["k"], e[0]["r"], e[0]["exact_zero"]) == (1, 0, False), "obstruction chain")
        require(e[0]["modulus"] == 0.5 and p["all_zero"] is False and p["exact"] is True, "obstruction value")

    def ce(p, err):
        require(p["dims"] == [1, 0, 0, 1], "sl2 dims")

    sl2 = json.dumps({"dim": 3, "c": [{"i": 0, "j": 1, "k": 1, "val": "1"}, {"i": 0, "j": 2, "k": 2, "val": "-1"},
                                      {"i": 1, "j": 2, "k": 0, "val": "2"}]})
    return [
        cli_job(runner, "toral.wang", ["toral", "wang", "--matrix", "[[2,1],[1,1]]"], 0, wang),
        cli_job(runner, "dio.cf", ["dio", "cf", "--x", GOLDEN_ARG, "--n", "10"], 0, cf),
        cli_job(runner, "dio.margin", ["dio", "margin", "--x", GOLDEN_ARG, "--rho", "1", "--k", str(k_margin)], 0,
                margin, lambda p: {"diophantine.k_searched": p["K"]}),
        cli_job(runner, "flow.solve-circle", ["flow", "solve-circle", "--json", _poly_json(1, circle_in),
                                              "--alpha", GOLDEN_ARG], 0, circle),
        cli_job(runner, "fol.h1", ["fol", "h1", "--p", "1", "--q", "1", "--slope", json.dumps([[CAT_ARG]]),
                                   "--json", _form_json(2, 1, {(0,): om})], 0, h1),
        cli_job(runner, "skew.obstructions-exact",
                ["--precision", "exact", "skew", "obstructions",
                 "--json", '{"dims":2,"coeffs":[{"k":[1,0],"re":"1/2","im":"0"}]}', "--lam", GOLDEN_ARG,
                 "--k", "8"], 0, skew),
        cli_job(runner, "lie.ce", ["lie", "ce", "--json", sl2], 0, ce),
    ]


# ----------------------------------------------------------------------
# one more invocation per subcommand group


def group_jobs(runner, rng, tiny):
    x = _random_quad(rng)
    K_fit = 200 if tiny else 10000
    qs = set(cf_denominators(x, K_fit))

    def fit(p, err):
        ks = [r["k"][0] for r in p["records"]]
        dists = [r["dist"] for r in p["records"]]
        require(not p["resonant"] and set(ks) <= qs and ks[-1] == max(qs), "records are not convergents")
        require(all(abs(d - mp_dist(x, k)) <= 1e-12 * d for k, d in zip(ks, dists)), "record distances")
        require(abs(p["rho_hat"] + fit_slope(ks, dists)) <= 1e-9, "rho_hat is not the record fit")

    f_eval = {k: random_complex(rng) for k in [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(12)]}
    at = (rng.random(), rng.random())

    def fn_eval(p, err):
        require(close(complex(p["re"], p["im"]), np_eval(f_eval, at), rel=1e-12), "evaluation")

    slope_w = _random_quad(rng)
    top = real_coeffs(rng, 2, 3, 4)

    def minwitness(p, err):
        require(p["closure_sup"] <= 1e-9 and p["restriction_residual"] <= 1e-9, "witness residuals")

    M = _sl2_hyperbolic(rng)

    def slope(p, err):
        b = _scalar(p["B"][0][0])
        leaf, trans = p["split"]["leaf_coords"][0], p["split"]["transverse_coords"][0]
        v = [0.0, 0.0]
        v[leaf], v[trans] = 1.0, b
        Mv = [M[0][0] * v[0] + M[0][1] * v[1], M[1][0] * v[0] + M[1][1] * v[1]]
        lam = Mv[leaf]
        require(abs(lam) < 1 and abs(Mv[trans] - lam * b) <= 1e-9, "slope is not the stable direction")

    alpha_s = rng.choice(SECTION_SLOPES)
    amp = rng.uniform(0.05, 0.15)
    section_in = {(0,): 1.0 + 0j, (1,): complex(amp, 0), (-1,): complex(amp, 0)}

    def section(p, err):
        require(p["c"] == 1.0 and p["max_deviation"] < 1e-6 and p["samples"] == 32, "section check")

    lam = GOLDEN
    gk = real_coeffs(rng, 2, 2, 3)
    cob: dict = {}
    for (k, m), c in gk.items():
        cob[(k, m + k)] = cob.get((k, m + k), 0j) + c * mp_frac_phase(lam, m)
        cob[(k, m)] = cob.get((k, m), 0j) - c

    def skew_float(p, err):
        require(p["all_zero"] is True and p["exact"] is False, "coboundary reported obstructed")
        require(all(e["modulus"] < 1e-9 for e in p["entries"]), "coboundary obstruction not small")

    affine = json.dumps({"dim": 2, "c": [{"i": 0, "j": 1, "k": 1, "val": str(Fraction(rng.randint(1, 5)))}]})

    def validate(p, err):
        require(p == {"ok": True}, "affine algebra rejected")

    return [
        cli_job(runner, "dio.fit", ["dio", "fit", "--x", _quad_arg(x), "--k", str(K_fit)], 0, fit,
                lambda p: {"diophantine.k_searched": K_fit}),
        cli_job(runner, "fn.eval", ["fn", "eval", "--json", _poly_json(2, f_eval), "--at", f"{at[0]!r},{at[1]!r}"],
                0, fn_eval),
        cli_job(runner, "fol.minwitness", ["fol", "minwitness", "--p", "1", "--q", "1",
                                           "--slope", json.dumps([[_quad_arg(slope_w)]]),
                                           "--json", _form_json(2, 1, {(0,): top})], 0, minwitness),
        cli_job(runner, "toral.slope", ["toral", "slope", "--matrix", json.dumps(M)], 0, slope),
        cli_job(runner, "flow.section", ["flow", "section", "--json", _poly_json(1, section_in),
                                         "--alpha", _quad_arg(alpha_s)], 0, section,
                lambda p: {"skewflow.rk4_steps": rk4_steps(_rows(p["g"]), p["c"], p["rk4_step"], p["samples"],
                                                           _value(alpha_s))}),
        cli_job(runner, "skew.obstructions", ["skew", "obstructions", "--json", _poly_json(2, cob),
                                              "--lam", GOLDEN_ARG, "--k", "5"], 0, skew_float),
        cli_job(runner, "lie.validate", ["lie", "validate", "--json", affine], 0, validate),
    ]


def _sl2_hyperbolic(rng):
    """A product of positive elementary matrices: det 1, trace > 2."""
    M = [[1, 0], [0, 1]]
    for step in range(rng.randint(2, 4)):
        E = [[1, 1], [0, 1]] if step % 2 == 0 else [[1, 0], [1, 1]]
        M = [[sum(M[i][t] * E[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    return M


# ----------------------------------------------------------------------
# the expected exit-2 cases


def exit2_jobs(runner, rng):
    amp = rng.randint(1, 9) / 10
    resonant = {(2,): complex(amp), (-2,): complex(amp), (1,): 0.25 + 0j, (-1,): 0.25 + 0j}

    def obstruction(p, err):
        require(p["error"] == "ObstructionError" and p["modes"] == [[-2], [2]], "resonance diagnostic")
        require(err.startswith("domain error: resonant circle modes"), "stderr diagnostic")

    coef = rng.uniform(0.5, 2.0)
    blocked = {(1, -2): complex(coef)}

    def diagnostic(p, err):
        require(p["diagnostic"] == "minimizability witness blocked by resonant modes", "witness diagnostic")
        require(p["modes"] == [{"k": [1, -2], "max_divisor": 0.0}], "resonant mode")
        require(err.startswith("diagnostic: minimizability witness blocked"), "stderr diagnostic")

    return [
        cli_job(runner, "flow.solve-circle-resonant",
                ["flow", "solve-circle", "--json", _poly_json(1, resonant), "--alpha", "1/2"], 2, obstruction),
        cli_job(runner, "fol.minwitness-rational",
                ["fol", "minwitness", "--p", "1", "--q", "1", "--slope", '[["rational:1/2"]]',
                 "--json", _form_json(2, 1, {(0,): blocked})], 2, diagnostic),
    ]


def build_round(rng, tiny=False, runner=None):
    jobs = readme_jobs(runner, rng, tiny) + group_jobs(runner, rng, tiny) + exit2_jobs(runner, rng)
    rng.shuffle(jobs)
    return jobs


def warm_up(runner):
    """One cold child, so bytecode and the file cache exist before timing."""
    code, _, err = runner.run(["toral", "kunneth", "--dims-f", "1,1", "--dims-g", "1,1"])
    if code != 0:
        raise RuntimeError(f"leafcoh CLI does not start: {err.strip()[-300:]}")
