import json
import math
import warnings

import numpy as np
import pytest

from tetrablock import extremals
from tetrablock.cli import (EXIT_BOUNDARY, EXIT_EXTERIOR, EXIT_INVARIANT,
                            EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION,
                            MAX_SAMPLES, MAX_SWEEP_ROWS, main, parse_complex,
                            parse_phi)
from tetrablock.geodesics import DiscSearchResult
from tetrablock.hyperbolic import HyperbolicDistance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize("text, expected", [
        ("0.5", 0.5), ("0.5+0.3i", 0.5 + 0.3j), ("-0.3i", -0.3j),
        ("i", 1j), ("-i", -1j), ("2e-1i", 0.2j), ("1+j", 1 + 1j),
    ])
    def test_complex_literals(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity",
                                      "nan+1i", "1e999", "1+1e999i"])
    def test_non_finite_literals_rejected(self, capsys, text):
        code, _, err = run(capsys, "member", "tetrablock", "--", "0", text, "0")
        assert code == EXIT_USAGE
        assert "non-finite" in err

    def test_blaschke_scale_must_be_a_number(self, capsys):
        code, _, err = run(capsys, "geodesic", "eval", "--phi", "blaschke:1|abc|0.5")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_phi_specs(self):
        assert parse_phi("id").is_automorphism
        assert parse_phi("const:-0.5")(0.2) == -0.5
        auto = parse_phi("auto:0.5")
        assert auto(0.5) == 0.0
        full = parse_phi("blaschke:1|0.9|0.5;-0.2")
        assert full.degree == 2 and full.scale == 0.9


class TestMember:
    def test_interior(self, capsys):
        code, out, _ = run(capsys, "member", "tetrablock", "0", "0.3", "0.5")
        assert code == EXIT_OK
        assert "interior" in out
        assert "0.7" in out

    def test_boundary(self, capsys):
        code, out, _ = run(capsys, "member", "tetrablock", "1", "0", "0")
        assert code == EXIT_BOUNDARY

    def test_exterior(self, capsys):
        code, out, _ = run(capsys, "member", "tetrablock", "0", "2", "0")
        assert code == EXIT_EXTERIOR

    def test_huge_coordinate_is_exterior(self, capsys):
        code, out, err = run(capsys, "member", "tetrablock", "0", "0", "1e155")
        assert code == EXIT_EXTERIOR
        assert "e_value (raw): inf" in out and err == ""

    @pytest.mark.parametrize("coords", [("1e308", "1e308", "0"),
                                        ("1.7e308", "1.7e308", "1.7e308")])
    def test_overflowing_sums_are_exterior_without_a_warning(self, capsys, coords):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "member", "tetrablock", *coords)
        assert code == EXIT_EXTERIOR
        assert "e_value (raw): inf" in out and err == ""

    def test_g2_with_guard(self, capsys):
        code, out, _ = run(capsys, "member", "g2", "--", "-0.8", "0.16")
        assert code == EXIT_OK
        assert "interior" in out

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "member", "tetrablock", "0", "zz", "0")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_nan_component_is_usage_error(self, capsys):
        code, out, err = run(capsys, "member", "tetrablock", "nan", "0", "0")
        assert code == EXIT_USAGE
        assert out == ""

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "member", "g2", "1", "2", "3")
        assert code == EXIT_USAGE

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "member", "tetrablock", "0", "0.3", "0.5",
                           "--json")
        env = json.loads(out)
        assert env["schema_version"] == 1
        assert env["command"] == "member"
        assert env["results"]["location"] == "interior"
        assert env["results"]["e_value"] == {"scale": "raw", "value": 0.7}
        assert "tolerance" in env["diagnostics"]

    @pytest.mark.parametrize("argv", [
        ("tetrablock", "0", "0.3", "0.5", "--tol", "nan"),
        ("tetrablock", "0", "0.3", "0.5", "--tol", "inf"),
        ("tetrablock", "0", "0.3", "0.5", "--tol", "0"),
        ("g2", "0", "0", "--tol", "inf"),
        ("g2", "0", "0", "--tol", "nan"),
        ("g2", "0", "0", "--tol", "-1e-3"),
    ])
    def test_tol_must_be_finite_and_positive(self, capsys, argv):
        code, out, err = run(capsys, "member", *argv)
        assert code == EXIT_USAGE
        assert out == "" and "--tol" in err


class TestDistance:
    def test_separation_pair_report(self, capsys):
        code, out, _ = run(capsys, "distance", "0,0,-0.5", "0,0.05,-0.5",
                           "--json")
        assert code == EXIT_OK
        env = json.loads(out)
        res = env["results"]
        assert res["p_e"]["m_scale"] == pytest.approx(0.1 / 1.45, abs=1e-6)
        assert res["c_lower"]["m_scale"] == pytest.approx(0.1 * math.sqrt(0.5),
                                                          abs=1e-6)
        assert res["k_upper"]["m_scale"] == pytest.approx(0.1, abs=1e-9)
        assert res["closed_form"]["m_scale"] == pytest.approx(0.1, abs=1e-12)
        assert res["gap"] == {"scale": "raw", "value": res["k_upper"]["m_scale"]
                              - res["c_lower"]["m_scale"]}
        assert res["sandwich_ok"] is True

    def test_swapped_axis_pair_closed_form(self, capsys):
        code, out, _ = run(capsys, "distance", "0,0,-0.3", "0.2,0,-0.3", "--json")
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert res["k_upper_family"] == "axis-pair"
        assert res["closed_form"]["m_scale"] == pytest.approx(0.2 / 0.7, abs=1e-12)
        assert res["k_upper"]["m_scale"] == pytest.approx(0.2 / 0.7, abs=1e-12)

    def test_origin_pair_near_product_slice_closes_the_sandwich(self, capsys):
        # z lies within 1e-8 of z3 = z1 z2; the origin geodesic gives the
        # Lempert value exactly, so k_upper does not fall below c_lower
        z = ("0.12045299199469003+0.6017810876604491j,"
             "0.6621493460125412-0.01747876462364178j,"
             "0.09027626938881529+0.39636358391140253j")
        code, out, _ = run(capsys, "distance", "0,0,0", z, "--json")
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert res["k_upper_family"] == "origin-geodesic"
        assert res["k_upper"]["m_scale"] == pytest.approx(res["c_lower"]["m_scale"],
                                                          abs=1e-14)
        assert res["sandwich_ok"] is True

    def test_unknown_lower_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "distance", "0,0,-0.5", "0,0.05,-0.5",
                           "--lower-families", "bogus")
        assert code == EXIT_USAGE
        assert "bogus" in err

    def test_coincident_pair(self, capsys):
        code, out, _ = run(capsys, "distance", "0.1,0.1,0.01", "0.1,0.1,0.01",
                           "--json")
        env = json.loads(out)
        assert env["results"]["p_e"]["m_scale"] == 0.0
        assert env["results"]["k_upper"]["m_scale"] == 0.0

    def test_no_verdict_without_upper_bound(self, capsys):
        argv = ("distance", "0.1,0.05,0.02", "0.12,0.07,0.03", "--budget", "0")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert res["k_upper"] is None
        assert res["gap"] is None and res["sandwich_ok"] is None
        assert ", 0 evaluations, " in res["k_upper_reason"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert "sandwich_ok: unknown (no upper bound found)" in out.splitlines()

    @pytest.mark.parametrize("budget", ["-1", "-5"])
    def test_negative_budget_is_usage_error(self, capsys, monkeypatch, budget):
        def no_work(*args, **kwargs):
            raise AssertionError("distance ran before rejecting --budget")
        monkeypatch.setattr("tetrablock.cli.pair_report", no_work)
        code, out, err = run(capsys, "distance", "0.1,0.05,0.02", "0.12,0.07,0.03",
                             "--budget", budget)
        assert code == EXIT_USAGE
        assert out == "" and "--budget" in err

    def test_readme_pair_gets_a_deterministic_reason(self, capsys):
        # four closed-form candidates, none of whose discs meets both points
        argv = ("distance", "0.1,0.05,0.02", "0.12,0.07,0.03", "--json")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert run(capsys, *argv)[1] == out
        res = json.loads(out)["results"]
        assert res["k_upper"] is None
        assert res["k_upper_reason"].startswith("general-disc: 4 starts, ")

    def test_pair_next_to_a_family_disc_gets_no_bound(self, capsys):
        # the pair lies within 3e-5 of a general disc; a disc that misses
        # it by that much is no interpolant, and earlier versions reported
        # its bound 0.062094 below c_lower 0.062153 and exited 70
        argv = ("distance", "--",
                "-0.19006505007140892+0.037771537163704044j,"
                "-0.5100436366504669-0.22433216907051373j,"
                "-0.04686937212522036-0.1739442035090252j",
                "-0.21622532100265107+0.053251648167529066j,"
                "-0.5117785996277898-0.2280799493888721j,"
                "-0.006697639654436395-0.17491725251355678j")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert any(line.startswith("k_upper: not found (general-disc: ")
                   for line in out.splitlines())
        assert "sandwich_ok: unknown (no upper bound found)" in out.splitlines()

    def test_reason_of_a_found_bound(self, capsys):
        code, out, _ = run(capsys, "distance", "0,0,-0.5", "0,0.05,-0.5", "--json")
        assert json.loads(out)["results"]["k_upper_reason"] == "axis-pair: closed form"

    def test_exterior_rejected(self, capsys):
        code, _, err = run(capsys, "distance", "2,0,0", "0,0,0")
        assert code == EXIT_INVARIANT
        assert "invariant violation" in err

    @pytest.mark.parametrize("argv", [["distance", "0,0,1e155", "0,0,0"],
                                      ["geodesic", "solve", "--point", "0,0,1e155",
                                       "--lambda0", "0.5"]],
                             ids=["distance", "geodesic-solve"])
    def test_huge_coordinate_is_an_invariant_violation(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVARIANT
        assert out == "" and "must be interior" in err

    def test_one_eigenvalue_solve_per_pair(self, capsys, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        extremals._psi_family_bounds.cache_clear()
        code, _, _ = run(capsys, "distance", "0.1,0.05,0.02", "0.12,0.07,0.03")
        assert code == EXIT_OK
        assert calls == [(2, 6, 6)]


class TestGeodesic:
    def test_eval_tetra(self, capsys):
        code, out, _ = run(capsys, "geodesic", "eval", "--domain", "tetrablock",
                           "--C", "0", "--phi", "id", "--omega1", "1",
                           "--omega2", "1", "--lambda", "0.5", "--json")
        env = json.loads(out)
        point = env["results"]["point"]
        assert point[0]["re"] == pytest.approx(0.5)
        assert point[2]["re"] == pytest.approx(0.25)

    def test_eval_g2(self, capsys):
        code, out, _ = run(capsys, "geodesic", "eval", "--domain", "g2",
                           "--C", "1", "--omega", "1", "--lambda", "0.4",
                           "--json")
        env = json.loads(out)
        point = env["results"]["point"]
        assert point[0]["re"] == pytest.approx(-0.8)
        assert point[1]["re"] == pytest.approx(0.16)

    def test_verify_geodesic(self, capsys):
        code, out, _ = run(capsys, "geodesic", "verify", "--C", "0.5",
                           "--phi", "auto:0.5", "--json")
        env = json.loads(out)
        assert env["results"]["verdict"] == "geodesic-verified"
        assert code == EXIT_OK

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_verify_needs_samples(self, capsys, samples):
        code, out, err = run(capsys, "geodesic", "verify", "--C", "0.5",
                             "--phi", "auto:0.5", "--samples", samples)
        assert code == EXIT_USAGE
        assert "geodesic-verified" not in out

    def test_samples_limit(self, capsys):
        # 1e20 overflows numpy's array size: rejected before any grid is built
        code, out, err = run(capsys, "geodesic", "verify", "--C", "0.5", "--phi",
                             "auto:0.5", "--samples", "100000000000000000000")
        assert code == EXIT_USAGE
        assert "--samples" in err and out == ""

    @pytest.mark.parametrize("extra, expected", [(0, EXIT_OK), (1, EXIT_USAGE)])
    def test_samples_limit_edge(self, capsys, extra, expected):
        code, _, _ = run(capsys, "geodesic", "verify", "--C", "0.5", "--phi", "auto:0.5",
                         "--samples", str(MAX_SAMPLES + extra))
        assert code == expected

    def test_invalid_params_exit(self, capsys):
        code, _, err = run(capsys, "geodesic", "eval", "--C", "0.5",
                           "--phi", "const:-0.4")
        assert code == EXIT_INVARIANT

    def test_solve_round_trip(self, capsys):
        code, out, _ = run(capsys, "geodesic", "solve",
                           "--point", "0.5,0.5,0.25", "--lambda0", "0.5",
                           "--json")
        env = json.loads(out)
        assert code == EXIT_OK
        assert env["results"]["found"] is True
        assert env["results"]["C"]["value"] == pytest.approx(0.0, abs=1e-9)
        assert env["results"]["residual"]["value"] < 1e-9

    def test_solve_prints_a_positive_zero_c(self, capsys):
        code, out, _ = run(capsys, "geodesic", "solve",
                           "--point", "0.5,0.5,0.25", "--lambda0", "0.5", "--json")
        C = json.loads(out)["results"]["C"]["value"]
        assert code == EXIT_OK
        assert C == 0.0 and math.copysign(1.0, C) == 1.0

    def test_solve_not_found(self, capsys):
        code, out, _ = run(capsys, "geodesic", "solve",
                           "--point", "0,0.3,0", "--lambda0", "0.8", "--json")
        assert code == EXIT_VERIFICATION
        assert json.loads(out)["results"]["found"] is False


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "separation")
        assert code == EXIT_OK
        assert out.startswith("PASS separation")

    @pytest.mark.parametrize("suite", ["rho", "separation"])
    def test_negative_seed_is_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "-1")
        assert code == EXIT_USAGE
        assert out == "" and "--seed" in err

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "rho", "--seed", "5",
                         "--json")
        _, out2, _ = run(capsys, "verify", "--suite", "rho", "--seed", "5",
                         "--json")
        assert out1 == out2


class TestSweep:
    def test_separation_grid(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "separation", "--c-min", "0.05",
                           "--c-max", "0.95", "--c-step", "0.05",
                           "--lam", "0.1", "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert len(lines) == 20  # header + 19 rows
        header = lines[0].split(",")
        assert header == sorted(header)
        # the separation flips sign as C grows: present for small C, gone
        # near the far end of the window
        def flag_near(c_target):
            rows = [row.split(",") for row in lines[1:]]
            best = min(rows, key=lambda r: abs(float(r[0]) - c_target))
            return best[5]

        assert flag_near(0.05) == "true" and flag_near(0.5) == "true"
        assert flag_near(0.9) == "false"

    def test_lempert_equality_column(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        code, _, _ = run(capsys, "sweep", "lempert", "--grid-n", "5",
                         "--out", str(out_file), "--format", "jsonl")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert rows and all(row["equal_within_tol"] for row in rows)

    def test_empty_grid_header_only(self, capsys, tmp_path):
        out_file = tmp_path / "empty.csv"
        code, _, _ = run(capsys, "sweep", "separation", "--c-min", "0.9",
                         "--c-max", "0.1", "--out", str(out_file))
        assert code == EXIT_OK
        assert out_file.read_text().splitlines() == [
            "C,c_lower_m,lam_modulus,magic_lower_m,p_e_m,separated"]

    @pytest.mark.parametrize("step", ["0", "-0.05", "nan"])
    def test_c_step_must_be_positive(self, capsys, tmp_path, step):
        code, _, err = run(capsys, "sweep", "separation", "--c-step", step,
                           "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert "--c-step" in err

    def test_c_step_too_small(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "separation", "--c-step", "1e-9",
                           "--out", str(out_file))
        assert code == EXIT_USAGE
        assert "--c-step" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("c_max, expected", [("2.99999", EXIT_OK),
                                                  ("3", EXIT_USAGE)])
    def test_row_limit_edge(self, capsys, tmp_path, c_max, expected):
        # every C of this grid lies outside (0, 1), so no row is computed
        assert MAX_SWEEP_ROWS == 100_000
        code, _, _ = run(capsys, "sweep", "separation", "--c-min", "2",
                         "--c-max", c_max, "--c-step", "1e-5",
                         "--out", str(tmp_path / "x.csv"))
        assert code == expected

    @pytest.mark.parametrize("flag, value", [
        ("--c-min", "nan"), ("--c-min", "-inf"), ("--c-max", "inf"),
        ("--c-max", "nan"), ("--c-step", "inf"), ("--lam", "nan"),
    ])
    def test_separation_bounds_must_be_finite(self, capsys, tmp_path, flag, value):
        out_file = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "separation", flag, value,
                           "--out", str(out_file))
        assert code == EXIT_USAGE
        assert flag in err
        assert not out_file.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_grid_n_must_be_positive(self, capsys, tmp_path, n):
        out_file = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "lempert", "--grid-n", n,
                           "--out", str(out_file))
        assert code == EXIT_USAGE
        assert "--grid-n" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("n, expected", [("316", EXIT_OK), ("317", EXIT_USAGE)])
    def test_lempert_row_limit_edge(self, capsys, tmp_path, monkeypatch, n, expected):
        # 316^2 rows fit under the limit and 317^2 do not; a stub search
        # keeps the passing side fast
        assert MAX_SWEEP_ROWS == 100_000
        found = DiscSearchResult(True, HyperbolicDistance.zero(), 0.0, "stub")
        monkeypatch.setattr("tetrablock.cli.disc_search_upper_bound",
                            lambda w, z: found)
        out_file = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "lempert", "--grid-n", n,
                           "--out", str(out_file))
        assert code == expected
        assert out_file.exists() == (expected == EXIT_OK)
        if expected == EXIT_USAGE:
            assert "--grid-n" in err

    def test_io_error_exit(self, capsys):
        code, _, err = run(capsys, "sweep", "separation",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 74

    def test_csv_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "separation", "--out", str(a))
        run(capsys, "sweep", "separation", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
