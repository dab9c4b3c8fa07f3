import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from lirep import PolylogRequest, RepresentationTag, ResourceLimitError, li_eval
from lirep.cli import format_complex, main, parse_complex


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2.0),
            ("2.5", 2.5),
            ("-0.75", -0.75),
            ("2i", 2j),
            ("-1.5i", -1.5j),
            ("1+2i", 1 + 2j),
            ("0.3-0.4i", 0.3 - 0.4j),
            ("2.2+0.9i", 2.2 + 0.9j),
            ("1e-3i", 1e-3j),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_complex(text) == expected

    def test_rejects_garbage(self):
        from lirep import DomainError

        with pytest.raises(DomainError):
            parse_complex("spam")

    def test_roundtrip_format(self):
        for v in (2.0 + 0j, -1.5j, 0.3 - 0.4j, 1.2345678901234567 + 1e-17j):
            assert parse_complex(format_complex(v)) == v


class TestEval:
    def test_series_value_text(self, capsys):
        code = main(["eval", "--s", "2", "--z", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "series" in out
        printed = float(out.split("value          : ")[1].split()[0])
        assert printed == pytest.approx(0.5822405264650125, abs=1e-10)

    def test_series_value_text_tight(self, capsys):
        code = main(["eval", "--s", "2", "--z", "0.5", "--tol", "1e-13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.582240526465012" in out

    def test_zero_argument(self, capsys):
        code = main(["eval", "--s", "3", "--z", "0"])
        assert code == 0
        assert "0.0" in capsys.readouterr().out

    def test_theorem_needs_re_s_above_one(self, capsys):
        code = main(["eval", "--s", "1", "--z", "0.5", "--rep", "theorem6a"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Re s > 1" in err

    def test_disc_precondition_named(self, capsys):
        code = main(["eval", "--s", "2", "--z", "1.5", "--rep", "series"])
        err = capsys.readouterr().err
        assert code == 2
        assert "|z| < 1" in err

    def test_unsupported_combination(self, capsys):
        code = main(["eval", "--s", "2.5", "--z", "1.5"])
        assert code == 2

    def test_json_roundtrip_exact(self, capsys):
        code = main(["eval", "--s", "2.5", "--z", "0.4+0.3i", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        res = li_eval(PolylogRequest(s=2.5, z=0.4 + 0.3j))
        assert payload["route"] == res.route.value
        assert payload["value"][0] == res.value.real
        assert payload["value"][1] == res.value.imag
        assert payload["error_estimate"] == res.error_estimate
        assert payload["converged"] is True
        assert payload["s"] == [2.5, 0.0]
        assert payload["z"] == [0.4, 0.3]

    def test_csv_schema(self, capsys):
        code = main(["eval", "--s", "2", "--z", "0.5", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "s,z,route,value_re,value_im,error_estimate,converged"
        fields = out[1].split(",")
        assert fields[2] == "series"
        assert float(fields[3]) == pytest.approx(0.5822405264650125, abs=1e-9)

    def test_rep_all_multiple_rows(self, capsys):
        code = main(["eval", "--s", "3", "--z", "0.4", "--rep", "all", "--format", "json", "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        routes = {r["route"] for r in rows}
        assert "series" in routes and "theorem6a" in routes and "bernoulli7a" in routes
        values = np.array([complex(*r["value"]) for r in rows])
        assert np.max(np.abs(values - values[0])) < 1e-7

    def test_rep_all_outside_disc(self, capsys):
        code = main(["eval", "--s", "2", "--z", "2i", "--rep", "all", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        routes = {r["route"] for r in rows}
        assert routes == {"classical-exp", "inversion-int"}
        values = [complex(*r["value"]) for r in rows]
        assert abs(values[0] - values[1]) < 1e-8

    def test_rep_all_order_below_one(self, capsys):
        # series, classical-exp and classical-log accept 0 < s < 1 inside the disc
        code = main(["eval", "--s", "0.5", "--z", "0.3", "--rep", "all", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {r["route"] for r in rows} == {"series", "classical-exp", "classical-log"}
        assert all(r["converged"] for r in rows)

    def test_rep_all_json_is_a_list_with_one_route(self, capsys):
        # only the series accepts Re s < 0
        code = main(["eval", "--s=-0.5", "--z=0.3", "--rep", "all", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert isinstance(rows, list)
        assert [r["route"] for r in rows] == ["series"]

    def test_rep_all_names_an_exhausted_route(self, capsys, monkeypatch):
        import lirep.cli as cli_mod

        def theorem6a_exhausted(req):
            if req.representation is RepresentationTag.THEOREM_6A:
                raise ResourceLimitError("Clausen series needs K~4e+07 terms")
            return li_eval(req)

        monkeypatch.setattr(cli_mod, "li_eval", theorem6a_exhausted)
        code = main(["eval", "--s", "3", "--z", "0.4", "--rep", "all", "--format", "json", "--tol", "1e-8"])
        captured = capsys.readouterr()
        assert code == 3
        routes = {r["route"] for r in json.loads(captured.out)}
        assert "theorem6a" not in routes
        assert {"series", "theorem6b", "bernoulli7a"} <= routes
        assert "theorem6a" in captured.err and "K~4e+07" in captured.err

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        import lirep.cli as cli_mod
        from lirep.quadrature import QuadratureResult

        def starved(kind, n, delta, tol):
            return 1.0, QuadratureResult(
                value=1.0 + 0j, error_estimate=1.0, evaluations=15, converged=False
            )

        monkeypatch.setattr(cli_mod, "_zeta_odd", starved)
        assert main(["zeta-odd", "--n", "1"]) == 3


class TestCrosscheck:
    def test_small_grid_csv(self, capsys):
        code = main(
            [
                "crosscheck",
                "--radii",
                "0.4",
                "--angles",
                "2",
                "--s-list",
                "2.5",
                "--routes",
                "theorem6a,classical-exp",
                "--tol",
                "1e-9",
                "--format",
                "csv",
            ]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "s,z,route,value_re,value_im,abs_dev"
        assert len(out) == 1 + 2 * 2  # 2 z-points x 2 routes
        for line in out[1:]:
            assert float(line.split(",")[-1]) <= 1e-7

    def test_radius_outside_disc_rejected(self, capsys):
        code = main(["crosscheck", "--radii", "1.2", "--s-list", "2.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "|z| < 1" in err

    def test_nan_radius_rejected(self, capsys):
        assert main(["crosscheck", "--radii=nan", "--s-list", "2.5"]) == 2
        assert "|z| < 1" in capsys.readouterr().err

    def test_negative_tolerance_named_as_given(self, capsys):
        # the series baseline receives tol / 10; the message must name the
        # tolerance on the command line
        assert main(["crosscheck", "--tol=-1", "--radii", "0.3", "--s-list", "2.5"]) == 2
        assert "tol must be positive, got -1.0" in capsys.readouterr().err

    def test_mixed_radii_rejected_before_any_row(self, capsys, monkeypatch):
        import lirep.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "li_eval", lambda req: calls.append(req))
        code = main(["crosscheck", "--radii", "0.5,1.2", "--s-list", "2.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "|z| < 1" in captured.err
        assert captured.out == ""
        assert calls == []  # the whole grid is checked before any route runs


class TestZetaOdd:
    def test_n1_all_routes(self, capsys):
        code = main(["zeta-odd", "--n", "1", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["reference"] == pytest.approx(1.2020569031595943, abs=1e-12)
        assert len(payload["rows"]) == 4
        kinds = {(r["kind"], r["delta"]) for r in payload["rows"]}
        assert kinds == {("cot", 1.0), ("cot", 0.5), ("tan", 1.0), ("tan", 0.5)}
        for row in payload["rows"]:
            assert row["abs_dev"] <= 1e-9

    def test_n3(self, capsys):
        code = main(["zeta-odd", "--n", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["reference"] == pytest.approx(1.0083492773819228, abs=1e-12)

    def test_order_past_factorial_overflow(self, capsys):
        # zeta(171): 171! overflows binary64, (2 pi)^171 / 171! does not
        code = main(["zeta-odd", "--n", "85", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        for row in payload["rows"]:
            assert row["abs_dev"] <= 1e-12

    def test_n0_rejected(self, capsys):
        assert main(["zeta-odd", "--n", "0"]) == 2

    def test_nan_tolerance_rejected(self, capsys):
        assert main(["zeta-odd", "--n=1", "--tol=nan"]) == 2
        assert "tol must be positive" in capsys.readouterr().err

    def test_negative_tolerance_named_as_given(self, capsys):
        # the integrator receives tol scaled by the prefactor; the message
        # must name the tolerance on the command line
        assert main(["zeta-odd", "--n=1", "--tol=-1"]) == 2
        assert "tol must be positive, got -1.0" in capsys.readouterr().err


class TestLemmaCheck:
    def test_single_z_passes(self, capsys):
        code = main(["lemma-check", "--n-max", "2", "--z", "0.5i", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["worst_abs_dev"] <= 1e-9
        assert len(payload["groups"]) == 8

    def test_zero_argument_trivial(self, capsys):
        code = main(["lemma-check", "--n-max", "1", "--z", "0", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_empty_order_range_rejected(self, capsys, n_max):
        code = main(["lemma-check", f"--n-max={n_max}", "--z", "0.5", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--n-max must be >= 1" in captured.err

    def test_nan_tolerance_rejected(self, capsys):
        code = main(["lemma-check", "--n-max=1", "--z", "0.5", "--tol=nan", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "tol must be positive" in captured.err

    def test_too_close_to_the_circle_is_a_resource_limit(self, capsys):
        # the half-period moment sum at |z| = 1 - 1e-7 is refused with the
        # resource-limit code, not left to exhaust memory (an oracle failure
        # would exit 1)
        code = main(["lemma-check", "--n-max=1", "--z=0.9999999", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "moment sum needs more than" in captured.err

    def test_injected_sign_flip_detected(self, capsys, monkeypatch):
        import lirep.polylog as pl

        true_kernel = pl.kernel

        def flipped(kind, z, t):
            out = true_kernel(kind, z, t)
            return -out if kind is pl.KernelKind.SIN else out

        monkeypatch.setattr(pl, "kernel", flipped)
        code = main(["lemma-check", "--n-max", "1", "--z", "0.5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["pass"] is False


class TestMachineOutputPurity:
    def test_json_stdout_parses_clean(self, capsys):
        main(["zeta-odd", "--n", "1", "--format", "json"])
        out = capsys.readouterr().out
        json.loads(out)  # no interleaved logs

    def test_csv_stdout_parses_clean(self, capsys):
        main(["eval", "--s", "2", "--z", "0.3", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        header_cols = lines[0].count(",")
        assert all(line.count(",") == header_cols for line in lines)


def _readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("lirep ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_examples_succeed(argv, capsys):
    assert main(argv) == 0
