import json
import subprocess
import sys

import mpmath
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


def test_appendix_c_reports_the_exact_continuum_ends(capsys):
    code, rec = run_json(capsys, ["tables", "--name", "appendixC"])
    got = {row["quantity"]: row["computed"] for row in rec["results"]["rows"]}
    assert code == 0
    assert abs(got["segment_left_endpoint"] - 3.0 / 7.0) <= 1e-15
    assert abs(got["segment_right_endpoint"] - 4.0 / 7.0) <= 1e-15


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
    # The equal-split cutoff q V / n puts q F near 5e-309, a subnormal
    # find chance for the rank-prize binomial law.
    argv = ["prize-structure", "--dist", U01, "--q", "1e-154", "--n", "2", "--W", "1", "--V", "1"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert rec["results"]["regime"] == "equal-split"


def test_prize_structure_on_a_zero_density_stretch(capsys):
    flat_top = '{"kind":"piecewise_linear","knots":[[0,0],[0.5,1],[1,1]]}'
    argv = ["prize-structure", "--dist", flat_top, "--q", "0.5", "--n", "3", "--W", "2", "--V", "3"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert rec["results"]["regime"] == "equal-split"


def test_prize_structure_pays_the_cheapest_mix_at_the_top_of_the_support(capsys):
    # U[0, 1], q = 1/2, n = 2, purse 3: the equal split induces 3/4 and
    # winner-takes-all clamps at 1, where its map reads 9/8. The designer
    # wants c = 1, which the mix 2/3 * 9/8 + 1/3 * 3/4 = 1 already
    # induces; it pays 2, so the value is 100 - 100 (1/2)^2 - 2 = 73.
    # Winner-takes-all induces the same cutoff for 2.25 (value 72.75).
    argv = ["prize-structure", "--dist", U01, "--q", "0.5", "--n", "2", "--W", "100", "--V", "3"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert res["regime"] == "interior-mix"
    assert res["mix_weight"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert [res["top_prize"], res["other_prize"]] == pytest.approx([2.5, 0.5], abs=1e-12)
    assert res["value"] == pytest.approx(73.0, abs=1e-12)


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
    assert res["top_prize"] == pytest.approx(0.75, abs=1e-9)
    assert res["other_prize"] == pytest.approx(0.25, abs=1e-9)

    code, out = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].startswith("0.6,0.75,0.25,0.5,interior-mix,")


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


def test_simulate_rejects_a_field_too_large_for_memory(capsys):
    argv = ["simulate", "--dist", U01, "--q", "0.5", "--V", "1", "--n", "1e12", "--reps", "10"]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "1000000000000" in err


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
                        ["threshold", "top_prize", "other_prize", "mix_weight", "regime",
                         "value", "stakes_window"], None),
    "expert": (["expert", "--dist", U01, "--q", "0.5", "--qe", "0.3", "--n", "3", "--V", "1"],
               ["threshold", "crowd_success_prob", "total_success_prob", "win_prob",
                "interior", "critical_expertise", "mode"], None),
    "hetero": (["hetero", "--dist", U01, "--qvec", "[0.5,0.5,0.5]", "--V", "1", "--W", "2"],
               ["thresholds", "success_prob", "sweeps", "newton_steps", "converged",
                {"principal": ["thresholds", "prize", "implied_prize_spread", "sweeps",
                               "newton_steps"]}],
               ["agent", "q", "threshold"]),
    "asymptotics": (["asymptotics", "--dist", UQ, "--q", "0.5", "--V", "1", "--W", "2",
                     "--rate", "gap"],
                    ["support_floor", "expected_searchers", "success_prob", "regime",
                     "limit_optimal_prize", "rate"], None),
    "simulate": (SIM + ["--deviate-at", "0.2"], SIM_KEYS + ["deviation_gain"], SIM_ROW),
    "simulate-ranks": (SIM + ["--v", "[0.6,0.4,0,0,0]"],
                       SIM_KEYS + ["searcher_rank_rates", "searcher_rank_se"], SIM_ROW),
}


def record_keys(results, keys):
    """The results' keys in order, a block listed in keys as {name: its
    keys} with its own keys."""
    blocks = {name for k in keys if isinstance(k, dict) for name in k}
    return [{k: list(v)} if k in blocks else k for k, v in results.items()]


@pytest.mark.parametrize("name", SCHEMAS)
def test_record_schema(capsys, name):
    # The CSV header is the results' keys unless the rows differ from it.
    argv, keys, header = SCHEMAS[name]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert record_keys(rec["results"], keys) == keys
    code, out = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].split(",") == (keys if header is None else header)


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


# Unbounded stakes ends: q = 1 < n, and stakes past the largest double at
# n = 1e12.
UNBOUNDED = {
    "principal-sure-finders": ["principal", "--dist", U01, "--q", "1", "--n", "3", "--W", "2"],
    "prize-structure-1e12": ["prize-structure", "--dist", U01, "--q", "0.5", "--n", "1e12",
                             "--W", "3", "--V", "1"],
}


@pytest.mark.parametrize("argv", [v[0] for v in SCHEMAS.values()] + list(UNBOUNDED.values()),
                         ids=[*SCHEMAS, *UNBOUNDED])
def test_record_is_strict_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0
    json.loads(out, parse_constant=_refuse)


@pytest.mark.parametrize("name", UNBOUNDED)
def test_an_unbounded_stakes_end_is_written_as_null(capsys, name):
    code, out = run_cli(capsys, UNBOUNDED[name])
    assert code == 0
    assert json.loads(out, parse_constant=_refuse)["results"]["stakes_window"][1] is None
    # CSV keeps its own spelling of the unbounded end.
    code, out = run_cli(capsys, UNBOUNDED[name] + ["--format", "csv"])
    assert code == 0
    assert ";inf" in out.splitlines()[1]


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


def test_prize_structure_solves_a_field_of_any_size(capsys):
    # The designer builds no per-rank vector, so n = 1e12 costs what n = 2 does.
    argv = ["prize-structure", "--dist", U01, "--q", "0.5", "--n", "1e12", "--W", "2",
            "--V", "1"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    res = rec["results"]
    assert 0.0 < res["threshold"] < 1.0
    assert res["top_prize"] >= res["other_prize"] >= 0.0


def test_prize_structure_on_a_power_law_at_a_tiny_cutoff(capsys):
    # The density c^(alpha - 1) of a power law with alpha < 1 overflows a
    # double near c = 0; it reads +inf there instead of raising.
    argv = ["prize-structure", "--dist", '{"kind":"power","alpha":1e-3}', "--q", "1e-300",
            "--n", "2", "--W", "2", "--V", "1e-10"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    # The achievable cutoffs [a, b] lie near 1e-310. There the designer's
    # gain W (1 - (1 - q F)^2) - 2 c F = W q F (2 - q F) - 2 c F, about
    # (4e-300 - 2 c) c^alpha, rises with c, so the target is b, where
    # winner-takes-all puts the cutoff.
    a, b = 5e-311, rec["results"]["threshold"]
    with mpmath.workdps(50):
        W, q, alpha = mpmath.mpf(2), mpmath.mpf(1e-300), mpmath.mpf(1e-3)

        def gain(c):
            F = c**alpha
            return W * q * F * (2 - q * F) - 2 * c * F

        a, b = mpmath.mpf(a), mpmath.mpf(b)
        grid = [gain(a + (b - a) * k / 100) for k in range(101)]
        assert all(x < y for x, y in zip(grid, grid[1:]))
        assert rec["results"]["value"] == pytest.approx(float(grid[-1]), rel=1e-12)
    assert rec["results"]["regime"] == "winner-takes-all"


def test_simulate_rejects_a_negative_seed(capsys):
    assert cli.main(SIM + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err


VARIANT_FLAGS = {"--qe": "0.5", "--v": "[1,0,0,0]", "--qvec": "[0.5,0.5,0.5,0.5]"}


@pytest.mark.parametrize("pair", [("--qe", "--v"), ("--qe", "--qvec"), ("--v", "--qvec")])
def test_simulate_rejects_two_variants(capsys, pair):
    assert cli.main(SIM + [arg for flag in pair for arg in (flag, VARIANT_FLAGS[flag])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and pair[0] in err and pair[1] in err


# Inputs at the extremes: every run ends in a result (0), an input error (2)
# or a reported non-convergence (3), and no exception escapes `main`.
EXTREME_LAWS = [
    U01,
    '{"kind":"power","alpha":1e-3}',
    '{"kind":"piecewise_linear","knots":[[0,0],[0.5,0.5],[0.7,0.5],[1,1]]}',
    UQ,
]
EXTREME_N = ["1", "1.000000001", "2", "1e12", "inf", "nan"]
EXTREME_Q = ["1", "0.5", "1e-300"]
SIM_50 = ["--V", "1", "--reps", "50"]


@pytest.mark.parametrize(
    "command, takes_n",
    [
        (["solve", "--V", "1"], True),
        (["principal", "--W", "2"], True),
        (["expert", "--qe", "0.5", "--V", "1"], True),
        (["prize-structure", "--W", "2", "--V", "1"], True),
        (["asymptotics", "--V", "1", "--W", "2"], False),
        (["simulate", *SIM_50, "--deviate-at", "0.5"], True),
        (["simulate", *SIM_50, "--threshold", "1"], True),
        (["simulate", *SIM_50, "--qe", "1"], True),
        (["hetero", "--V", "1", "--W", "2"], False),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_extreme_inputs_exit_cleanly(capsys, command, takes_n):
    failures = []
    for law in EXTREME_LAWS:
        for n in EXTREME_N if takes_n else [None]:
            for q in EXTREME_Q:
                argv = [*command, "--dist", law]
                argv += ["--qvec", f"[{q},0.5,1]"] if command[0] == "hetero" else ["--q", q]
                argv += [] if n is None else ["--n", n]
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:  # any escape fails the property
                    code = repr(exc)
                capsys.readouterr()
                if code not in (0, 2, 3):
                    failures.append((argv, code))
    assert failures == []


@pytest.mark.parametrize("seed", ["0", str(2**70)])
def test_simulate_accepts_any_nonnegative_seed(capsys, seed):
    assert cli.main(SIM + ["--seed", seed]) == 0
    capsys.readouterr()


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


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import searchcontest.cli, sys; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_polynomial_module():
    # hetero's quadrature imports numpy.polynomial when a solve first needs
    # it, so the CLI loads no module that numpy itself does not.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; before = set(sys.modules); import searchcontest.cli; "
         "print(sorted(m for m in set(sys.modules) - before "
         "if m.startswith(('numpy.polynomial', 'scipy'))))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "searchcontest", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
