import json
import subprocess
import sys

import pytest

import oracles
from searchcontest import __version__
from searchcontest import cli, tables
from searchcontest.distributions import Uniform
from searchcontest.equilibrium import ContestConfig, solve_threshold

U01 = '{"kind":"uniform","a":0,"b":1}'
UQ = '{"kind":"uniform","a":0.25,"b":1.25}'

CSTAR_10 = 0.27876617467348064
KAPPA = float(oracles.limit_searchers_lambertw(0.25, 0.5, 1.0))
P_INF = float(oracles.limit_success_lambertw(0.25, 0.5, 1.0))
QE_CRIT = 0.18793842068731803


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


# ------------------------------------------------------------------- solve


def test_solve_json_record(capsys):
    argv = ["solve", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert set(rec) == {"command", "config", "results", "version", "wall_time_s"}
    assert rec["command"] == ["searchcontest"] + argv
    assert rec["version"] == __version__
    assert rec["config"]["q"] == 0.5
    assert rec["config"]["dist"] == {"kind": "uniform", "a": 0, "b": 1}
    res = rec["results"]
    assert res["threshold"] == pytest.approx(CSTAR_10, abs=1e-9)
    assert res["interior"] is True
    assert res["residual"] <= 1e-9


def test_solve_is_idempotent(capsys):
    argv = ["solve", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10"]
    _, rec1 = run_json(capsys, argv)
    _, rec2 = run_json(capsys, argv)
    assert rec1["results"] == rec2["results"]
    assert rec1["config"] == rec2["config"]


def test_solve_csv_format(capsys):
    argv = [
        "solve", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10",
        "--format", "csv",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "threshold"
    first = lines[1].split(",")
    assert first[0] == "0.278766"
    assert "true" in lines[1]  # interior flag


def test_sweep_rows(capsys):
    argv = [
        "sweep", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10",
        "--param", "n", "--values", "[10,100,1000]",
    ]
    code, rec = run_json(capsys, argv)
    assert code == 0
    rows = rec["results"]["sweep"]
    assert [row["n"] for row in rows] == [10.0, 100.0, 1000.0]
    assert rows[0]["threshold"] == pytest.approx(CSTAR_10, abs=1e-9)
    thresholds = [row["threshold"] for row in rows]
    assert thresholds[0] > thresholds[1] > thresholds[2]


# ------------------------------------------------------------------ tables


@pytest.mark.parametrize("name", tables.TABLE_NAMES)
def test_reference_reproductions_pass(capsys, name):
    code, rec = run_json(capsys, ["tables", "--name", name])
    assert code == 0
    assert rec["results"]["all_ok"] is True
    assert all(row["ok"] for row in rec["results"]["rows"])


def test_reference_mismatch_exits_one(capsys, monkeypatch):
    broken = dict(tables.REFERENCE_TABLES["table1a"])
    broken["rows"] = [(2, 0.5, 0.3106)]  # wrong threshold reference
    monkeypatch.setitem(tables.REFERENCE_TABLES, "table1a", broken)
    code, rec = run_json(capsys, ["tables", "--name", "table1a"])
    assert code == 1
    assert rec["results"]["all_ok"] is False


# --------------------------------------------------------------- designers


def test_principal_payload(capsys):
    argv = ["principal", "--dist", U01, "--q", "0.5", "--n", "10", "--W", "2"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["threshold"] == pytest.approx(0.19681601057530435, abs=1e-7)
    assert res["prize"] == pytest.approx(0.600469239853643, abs=1e-6)
    assert res["certified"] is True
    lo, hi = res["stakes_window"]
    assert lo < 2.0 < hi


def test_principal_on_a_zero_density_stretch(capsys):
    # Density 2 on [0, 1/2] and zero above: F/f = c, so (1 - c)^2 = 2c.
    flat_top = '{"kind":"piecewise_linear","knots":[[0,0],[0.5,1],[1,1]]}'
    argv = ["principal", "--dist", flat_top, "--q", "0.5", "--n", "3", "--W", "2"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["threshold"] == pytest.approx(2.0 - 3.0**0.5, abs=1e-12)
    assert res["regime"] == "interior"
    assert res["certified"] is True


def test_prize_structure_at_a_tiny_find_probability(capsys):
    # The equal-split cutoff q V / n puts q F near 5e-309, where scipy's
    # binomial pmf overflowed.
    argv = ["prize-structure", "--dist", U01, "--q", "1e-154", "--n", "2", "--W", "1", "--V", "1"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert rec["results"]["certified"] is True


def test_prize_structure_on_a_zero_density_stretch(capsys):
    flat_top = '{"kind":"piecewise_linear","knots":[[0,0],[0.5,1],[1,1]]}'
    argv = ["prize-structure", "--dist", flat_top, "--q", "0.5", "--n", "3", "--W", "2", "--V", "3"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert rec["results"]["regime"] == "equal-split"


def test_prize_structure_payload_and_csv(capsys):
    argv = [
        "prize-structure", "--dist", U01, "--q", "1", "--n", "2",
        "--W", "3", "--V", "1",
    ]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["regime"] == "interior-mix"
    assert res["mix_weight"] == pytest.approx(0.5, abs=1e-9)
    assert res["value"] == pytest.approx(1.8, abs=1e-9)
    assert res["prizes"][0] == pytest.approx(0.75, abs=1e-9)

    code, out = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert "0.75;0.25" in out


def test_expert_payload(capsys):
    argv = [
        "expert", "--dist", U01, "--q", "0.5", "--qe", "0.1879384206873",
        "--n", "3", "--V", "1",
    ]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["critical_expertise"] == pytest.approx(QE_CRIT, abs=1e-9)
    assert res["mode"] == "shared"
    assert res["total_success_prob"] > res["crowd_success_prob"]


def test_hetero_reports_input_order(capsys):
    argv = ["hetero", "--dist", U01, "--qvec", "[0.3,0.9,0.6]", "--V", "1"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["converged"] is True
    thr = res["thresholds"]
    assert thr[0] == pytest.approx(0.1767979332509922, abs=1e-8)
    assert thr[1] == pytest.approx(0.7766922904209723, abs=1e-8)
    assert thr[2] == pytest.approx(0.38179641754654214, abs=1e-8)


def test_hetero_with_sure_finders_prints_no_warning():
    # Two q = 1 agents search at every cost, so each finds for sure (pi = 1)
    # and the log of the miss chance would be log 0.
    proc = subprocess.run(
        [sys.executable, "-m", "searchcontest", "hetero", "--dist", U01,
         "--qvec", "[1,1]", "--V", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["success_prob"] == 1.0


def test_hetero_principal_nonconvergence_exits_three(capsys):
    argv = ["hetero", "--dist", U01, "--qvec", "[0.9,0.2]", "--V", "1", "--W", "2"]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


# ------------------------------------------------------------- asymptotics


def test_asymptotics_positive_floor(capsys):
    argv = ["asymptotics", "--dist", UQ, "--q", "0.5", "--V", "1"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["regime"] == "lower-bound-positive"
    assert res["expected_searchers"] == pytest.approx(KAPPA, abs=1e-8)
    assert res["success_prob"] == pytest.approx(P_INF, abs=1e-8)


def test_asymptotics_rate_fit(capsys):
    argv = ["asymptotics", "--dist", U01, "--q", "0.5", "--V", "1", "--rate", "gap"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["regime"] == "lower-bound-zero"
    assert res["rate"]["quantity"] == "gap"
    assert res["rate"]["slope"] == pytest.approx(-0.5, abs=0.03)
    assert res["rate"]["r_squared"] >= 0.999


# ---------------------------------------------------------------- simulate


def test_simulate_matches_solver_within_noise(capsys):
    argv = [
        "simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "5",
        "--reps", "20000", "--seed", "7",
    ]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    solved = solve_threshold(Uniform(0.0, 1.0), ContestConfig(n=5.0, q=0.5, V=1.0))
    assert abs(res["success_rate"] - solved.success_prob) <= 5 * res["success_se"]
    assert res["replications"] == 20000


def test_simulate_deviation_flag(capsys):
    argv = [
        "simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "5",
        "--reps", "5000", "--seed", "7", "--deviate-at", "0.2",
    ]
    code, rec = run_json(capsys, argv)
    assert code == 0
    gain = rec["results"]["deviation_gain"]
    assert gain["at_cost"] == 0.2
    assert gain["std_error"] > 0.0


@pytest.mark.parametrize(
    "variant",
    [[], ["--qe", "0.6"], ["--v", "[0.6,0.4,0,0,0]"], ["--qvec", "[0.3,0.9,0.6,0.5,0.5]"]],
    ids=["baseline", "expert", "rank-prizes", "per-agent"],
)
def test_simulate_defaults_to_the_variant_equilibrium(capsys, variant):
    # At equilibrium an agent whose cost equals their cutoff is indifferent.
    argv = [
        "simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "5",
        "--reps", "200000", "--seed", "1",
    ] + variant
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert abs(res["mean_payoff_at_threshold"]) <= 4 * res["mean_payoff_se"]


def test_simulate_floor_threshold(capsys):
    argv = [
        "simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "5",
        "--reps", "2000", "--threshold", "0",
    ]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert rec["results"]["success_rate"] == 0.0


# ------------------------------------------------------------ record schema

SOLVE_KEYS = ["threshold", "success_prob", "expected_searchers", "win_prob", "interior", "residual"]
SIM_KEYS = [
    "success_rate", "success_se", "searcher_win_rate", "searcher_win_se",
    "win_rate_per_agent", "win_rate_per_agent_se", "mean_payoff_at_threshold",
    "mean_payoff_se", "replications",
]
SIM_ROW = [k for k in SIM_KEYS if not k.startswith("win_rate_per_agent")]
TABLE_ROW = ["n", "threshold", "threshold_ref", "success_prob", "success_prob_ref", "ok"]
CHECK_ROW = ["quantity", "computed", "reference", "ok"]
SIM = ["simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "5", "--reps", "2000"]

SCHEMAS = {
    "solve": (["solve", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10"],
              SOLVE_KEYS, SOLVE_KEYS),
    "sweep": (["sweep", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10",
               "--param", "q", "--values", "[0.2,0.5]"],
              ["sweep"], ["q"] + SOLVE_KEYS),
    "tables": (["tables", "--name", "table2a"], ["name", "rows", "all_ok"], TABLE_ROW),
    "tables-check": (["tables", "--name", "example3"], ["name", "rows", "all_ok"], CHECK_ROW),
    "principal": (["principal", "--dist", U01, "--q", "0.5", "--n", "10", "--W", "2"],
                  ["threshold", "prize", "regime", "objective_value", "certified",
                   "stakes_window"], None),
    "prize-structure": (["prize-structure", "--dist", U01, "--q", "1", "--n", "2",
                         "--W", "3", "--V", "1"],
                        ["threshold", "prizes", "mix_weight", "regime", "value",
                         "stakes_window", "certified"], None),
    "expert": (["expert", "--dist", U01, "--q", "0.5", "--qe", "0.3", "--n", "3", "--V", "1"],
               ["threshold", "crowd_success_prob", "total_success_prob", "win_prob",
                "interior", "critical_expertise", "mode"], None),
    "hetero": (["hetero", "--dist", U01, "--qvec", "[0.5,0.5,0.5]", "--V", "1", "--W", "2"],
               ["thresholds", "success_prob", "sweeps", "converged", "principal"],
               ["agent", "q", "threshold"]),
    "asymptotics": (["asymptotics", "--dist", UQ, "--q", "0.5", "--V", "1", "--W", "2",
                     "--rate", "gap"],
                    ["support_floor", "expected_searchers", "success_prob", "regime",
                     "limit_optimal_prize", "rate"], None),
    "simulate": (SIM + ["--deviate-at", "0.2"], SIM_KEYS + ["deviation_gain"], SIM_ROW),
    "simulate-ranks": (SIM + ["--v", "[0.6,0.4,0,0,0]"],
                       SIM_KEYS + ["searcher_rank_rates", "searcher_rank_se"], SIM_ROW),
}


@pytest.mark.parametrize("name", SCHEMAS)
def test_record_schema(capsys, name):
    # The CSV header is the results' keys unless the rows differ from it.
    argv, keys, header = SCHEMAS[name]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert list(rec["results"]) == keys
    code, out = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].split(",") == (keys if header is None else header)


# ------------------------------------------------------------- error paths


def test_validation_exit_codes(capsys):
    code = cli.main(
        ["simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "5", "--reps", "0"]
    )
    assert code == 2
    capsys.readouterr()
    code = cli.main(["solve", "--dist", "{not json", "--q", "0.5", "--V", "1", "--n", "5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_knot_exits_two(capsys):
    dist = '{"kind":"piecewise_linear","knots":[[0,0],[NaN,0.5],[1,1]]}'
    code = cli.main(["solve", "--dist", dist, "--q", "0.5", "--V", "1", "--n", "5"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_nan_threshold_exits_two(capsys):
    argv = [
        "simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "5",
        "--reps", "1000", "--threshold", "NaN",
    ]
    assert cli.main(argv) == 2
    assert "support" in capsys.readouterr().err


SIM = ["simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "4", "--reps", "100"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10", "--values", '["a"]'],
        ["hetero", "--dist", U01, "--qvec", "[[1]]", "--V", "1"],
        SIM + ["--threshold", "[0.1,null,0.1,0.1]"],
        SIM + ["--v", "[1,true,0,0]"],
        SIM + ["--v", "[1" + "0" * 400 + ",0,0,0]"],
        ["asymptotics", "--dist", U01, "--q", "0.5", "--V", "1", "--rate", "gap",
         "--n-values", '[10,100,"x"]'],
        ["solve", "--dist", '{"kind":"uniform","a":"x","b":1}', "--q", "0.5", "--V", "1",
         "--n", "2"],
        ["solve", "--dist", '{"kind":"piecewise_linear","knots":[[0,0],[1]]}', "--q", "0.5",
         "--V", "1", "--n", "2"],
        ["solve", "--dist", '{"kind":"piecewise_linear","knots":5}', "--q", "0.5", "--V", "1",
         "--n", "2"],
    ],
)
def test_malformed_json_input_exits_two(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    argv = [
        "solve", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "10",
        "--out", str(path),
    ]
    code = cli.main(argv)
    assert code == 0
    assert capsys.readouterr().out == ""
    rec = json.loads(path.read_text())
    assert rec["results"]["threshold"] == pytest.approx(CSTAR_10, abs=1e-9)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "searchcontest", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
