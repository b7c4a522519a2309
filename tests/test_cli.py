import json
import pathlib

import pytest
from click.testing import CliRunner

from leafcoh.cli import DISPATCH, cli, main


def run(args):
    runner = CliRunner(mix_stderr=False)
    return runner.invoke(cli, args, standalone_mode=False)


def run_main(args):
    """Invoke through main() to exercise the exit-code mapping."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def test_wang_example():
    code, out = run_main(["toral", "wang", "--matrix", "[[2,1],[1,1]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 1, 0]


def test_cf_example():
    code, out = run_main(["dio", "cf", "--x", "quadratic:(-1+sqrt5)/2", "--n", "10"])
    assert code == 0
    assert json.loads(out)["quotients"] == [0, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def test_resonant_circle_exit_2():
    poly = json.dumps(
        {"dims": 1, "coeffs": [{"k": [2], "re": 0.5, "im": 0.0}, {"k": [-2], "re": 0.5, "im": 0.0}]}
    )
    code, out = run_main(["flow", "solve-circle", "--json", poly, "--alpha", "1/2"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "ObstructionError"
    assert [2] in payload["modes"]


def test_usage_error_exit_1():
    code, _ = run_main(["dio", "margin", "--rho", "1", "--k", "5"])  # missing --x/--matrix
    assert code == 1
    code2, _ = run_main(["definitely-not-a-command"])
    assert code2 == 1


def test_margin_and_fit():
    code, out = run_main(
        ["dio", "margin", "--x", "quadratic:(-1+sqrt5)/2", "--rho", "1", "--k", "100"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["witness_k"] == [1]
    code, out = run_main(["dio", "fit", "--x", "sqrt2", "--k", "2000"])
    assert code == 0
    assert 0.8 <= json.loads(out)["rho_hat"] <= 1.2


def test_float_fit_reports_resonance():
    # 2 * 0.5 is an integer: resonance, as for --x 1/2, not log(0)
    code, out = run_main(["dio", "fit", "--x", "0.5", "--k", "100"])
    assert code == 0
    payload = json.loads(out)
    assert payload["resonant"] is True and payload["resonance_k"] == [2]


def test_malformed_matrices_and_samples_exit_1(capsys):
    for args in (
        ["toral", "wang", "--matrix", "[]"],
        ["toral", "irred", "--matrix", "[]"],
        ["toral", "wang", "--matrix", "[[1.5,0],[0,1]]"],
        ["toral", "wang", "--matrix", "[[Infinity,1],[1,1]]"],
        ["toral", "certify", "--matrix", "[[true,1],[1,1]]"],
        ["fn", "dft", "--json", "[]"],
        ["fn", "dft", "--json", "[[1],[0]]"],
    ):
        code, out = run_main(args)
        err = capsys.readouterr().err
        assert code == 1 and out == "", args
        assert "bad input" in err and "Traceback" not in err, args
    # integral floats are still integers; a ragged matrix is still a domain error
    code, out = run_main(["toral", "wang", "--matrix", "[[2.0,1],[1,1]]"])
    assert code == 0 and json.loads(out)["dims"] == [1, 1, 0]
    code, out = run_main(["toral", "wang", "--matrix", "[[2,1]]"])
    assert code == 2 and json.loads(out)["error"] == "DimensionError"


def test_matrix_margin_cli():
    code, out = run_main(
        ["dio", "margin", "--matrix", '[["quadratic:(1-sqrt5)/2"]]', "--rho", "1", "--k", "50"]
    )
    assert code == 0
    assert json.loads(out)["margin"] > 0


def test_fn_commands():
    poly = json.dumps({"dims": 1, "coeffs": [{"k": [1], "re": 1.0, "im": 0.0}]})
    code, out = run_main(["fn", "eval", "--json", poly, "--at", "0.25"])
    assert code == 0
    v = json.loads(out)
    assert abs(v["im"] - 1.0) < 1e-12
    code, out = run_main(["fn", "ddt", "--json", poly, "--v", "1/2"])
    assert code == 0
    code, out = run_main(["fn", "decay", "--json", poly, "--r", "1,2"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["value"] == pytest.approx(1.0)


def test_fn_dft_round_trip():
    poly = {"dims": 1, "coeffs": [{"k": [2], "re": 0.5, "im": -0.25}]}
    code, out = run_main(
        ["fn", "dft", "--inverse", "--grid", "8", "--json", json.dumps(poly)]
    )
    assert code == 0
    samples = json.loads(out)["samples"]
    code, out = run_main(["fn", "dft", "--json", json.dumps(samples)])
    assert code == 0
    back = json.loads(out)
    assert back["coeffs"][0]["k"] == [2]


def test_fol_commands():
    slope = '[["quadratic:(1-sqrt5)/2"]]'
    form = json.dumps(
        {
            "degree": 1,
            "components": [
                {
                    "idx": [0],
                    "poly": {
                        "dims": 2,
                        "coeffs": [
                            {"k": [1, 1], "re": 0.5, "im": 0.0},
                            {"k": [-1, -1], "re": 0.5, "im": 0.0},
                        ],
                    },
                }
            ],
        }
    )
    base = ["--p", "1", "--q", "1", "--slope", slope]
    code, out = run_main(["fol", "h1"] + base + ["--json", form])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] < 1e-12
    code, out = run_main(["fol", "d"] + base + ["--json", form])
    assert code == 0
    code, out = run_main(["fol", "iota"] + base + ["--xi", "2.5"])
    assert code == 0
    code, out = run_main(["fol", "minwitness"] + base + ["--json", form])
    assert code == 0
    assert json.loads(out)["restriction_residual"] < 1e-12
    # rational slope with resonant mode: diagnostic, exit 2
    res_form = json.dumps(
        {
            "degree": 1,
            "components": [
                {
                    "idx": [0],
                    "poly": {"dims": 2, "coeffs": [{"k": [1, -2], "re": 1.0, "im": 0.0}]},
                }
            ],
        }
    )
    code, out = run_main(["fol", "minwitness", "--p", "1", "--q", "1", "--slope", '[["1/2"]]'])
    assert code == 1  # missing form input is a usage error
    code, out = run_main(
        ["fol", "minwitness", "--p", "1", "--q", "1", "--slope", '[["1/2"]]', "--json", res_form]
    )
    assert code == 2
    assert "diagnostic" in json.loads(out)


def test_restrict_cli():
    amb = json.dumps(
        {
            "degree": 1,
            "components": [
                {"idx": [1], "poly": {"dims": 2, "coeffs": [{"k": [0, 0], "re": 1.0, "im": 0.0}]}}
            ],
        }
    )
    code, out = run_main(
        ["fol", "restrict", "--p", "1", "--q", "1", "--slope", '[["1/3"]]', "--json", amb]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["components"][0]["poly"]["coeffs"][0]["re"] == pytest.approx(1 / 3)


def test_toral_commands():
    code, out = run_main(["toral", "certify", "--matrix", "[[2,1],[1,1]]"])
    assert code == 0
    code, out = run_main(["toral", "slope", "--matrix", "[[2,1],[1,1]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["B"][0][0]["kind"] == "quadratic"
    code, out = run_main(["toral", "kunneth", "--dims-f", "1,1,0", "--dims-g", "1,1,0"])
    assert json.loads(out)["dims"] == [1, 2, 1, 0, 0]
    code, out = run_main(["toral", "irred", "--matrix", "[[1,1],[0,1]]"])
    assert json.loads(out)["irreducible"] is False
    code, out = run_main(["toral", "certify", "--matrix", "[[0,-1],[1,0]]"])
    assert code == 2


def test_flow_and_skew_commands():
    f = json.dumps(
        {
            "dims": 1,
            "coeffs": [
                {"k": [0], "re": 1.0, "im": 0.0},
                {"k": [1], "re": 0.15, "im": 0.0},
                {"k": [-1], "re": 0.15, "im": 0.0},
            ],
        }
    )
    code, out = run_main(["flow", "density", "--json", f])
    assert code == 0
    code, out = run_main(
        ["flow", "birkhoff", "--json", f, "--alpha", "quadratic:(-1+sqrt5)/2,1", "--x0", "0,0", "--t", "100"]
    )
    assert code == 0
    f2 = json.dumps(
        {
            "dims": 2,
            "coeffs": [
                {"k": [1, 0], "re": 0.5, "im": 0.0},
                {"k": [-1, 0], "re": 0.5, "im": 0.0},
            ],
        }
    )
    code, out = run_main(
        ["skew", "obstructions", "--json", f2, "--lam", "quadratic:(-1+sqrt5)/2", "--k", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_zero"] is False
    assert payload["entries"][0]["modulus"] == pytest.approx(0.5)
    # exact mode through the CLI
    f3 = json.dumps(
        {
            "dims": 2,
            "coeffs": [{"k": [1, 0], "re": "1/2", "im": "0"}],
        }
    )
    code, out = run_main(
        [
            "--precision",
            "exact",
            "skew",
            "obstructions",
            "--json",
            f3,
            "--lam",
            "quadratic:(-1+sqrt5)/2",
            "--k",
            "2",
        ]
    )
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_lie_commands():
    sl2_json = json.dumps(
        {
            "dim": 3,
            "c": [
                {"i": 0, "j": 1, "k": 1, "val": "1"},
                {"i": 0, "j": 2, "k": 2, "val": "-1"},
                {"i": 1, "j": 2, "k": 0, "val": "2"},
            ],
        }
    )
    code, out = run_main(["lie", "validate", "--json", sl2_json])
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run_main(["lie", "ce", "--json", sl2_json])
    assert json.loads(out)["dims"] == [1, 0, 0, 1]
    mc = json.dumps(
        {
            "algebra": {"dim": 1, "c": []},
            "components": [
                {
                    "degree": 1,
                    "components": [
                        {
                            "idx": [0],
                            "poly": {"dims": 2, "coeffs": [{"k": [0, 0], "re": 1.0, "im": 0.0}]},
                        }
                    ],
                }
            ],
        }
    )
    code, out = run_main(
        ["lie", "mc", "--json", mc, "--p", "1", "--q", "1", "--slope", '[["1/3"]]']
    )
    assert code == 0
    assert json.loads(out)["sup"] == 0.0


def test_byte_identical_output():
    args = ["dio", "margin", "--x", "quadratic:(-1+sqrt5)/2", "--rho", "1", "--k", "200"]
    _, out1 = run_main(args)
    _, out2 = run_main(args)
    assert out1 == out2


def test_csv_output():
    code, out = run_main(
        ["--output", "csv", "dio", "fit", "--x", "quadratic:(-1+sqrt5)/2", "--k", "100"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,dist"
    assert len(lines) > 3


def test_dispatch_covers_every_operation():
    # each operation appears exactly once, and each target subcommand exists
    assert len(set(DISPATCH)) == len(DISPATCH)
    groups = {name: cmd for name, cmd in cli.commands.items()}
    for op, path in DISPATCH.items():
        group_name, sub_name = path.split(" ", 1)
        assert group_name in groups, op
        assert sub_name in groups[group_name].commands, op
    # modules with operations are all represented
    assert {op.split(".")[0] for op in DISPATCH} == {
        "diophantine",
        "fourier",
        "leafwise",
        "toral",
        "skewflow",
        "liealg",
    }


def test_schema_documents_shipped():
    root = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"
    names = {p.name for p in root.glob("*.json")}
    assert {
        "real_scalar.json",
        "trig_poly.json",
        "diophantine_certificate.json",
        "linear_foliation.json",
        "form.json",
        "lie_algebra.json",
        "cohomology_report.json",
        "obstruction_report.json",
        "diagnostic.json",
    } <= names
    for p in root.glob("*.json"):
        json.loads(p.read_text())


def test_csv_birkhoff_curve_and_section_trajectory():
    f = json.dumps(
        {
            "dims": 2,
            "coeffs": [
                {"k": [1, 0], "re": 0.5, "im": 0.0},
                {"k": [-1, 0], "re": 0.5, "im": 0.0},
            ],
        }
    )
    code, out = run_main(
        [
            "--output", "csv", "flow", "birkhoff", "--json", f,
            "--alpha", "quadratic:(-1+sqrt5)/2,1", "--x0", "0,0", "--t", "100",
        ]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,abs_average" and len(lines) > 5
    rt = json.dumps(
        {
            "dims": 1,
            "coeffs": [
                {"k": [0], "re": 1.0, "im": 0.0},
                {"k": [1], "re": 0.15, "im": 0.0},
                {"k": [-1], "re": 0.15, "im": 0.0},
            ],
        }
    )
    code, out = run_main(
        ["--output", "csv", "flow", "section", "--json", rt, "--alpha", "quadratic:(-1+sqrt5)/2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2" and len(lines) > 10


def test_unknown_flag_rejected():
    code, _ = run_main(["--frobnicate", "dio", "cf", "--x", "1/2", "--n", "2"])
    assert code == 1
