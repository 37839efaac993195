import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3quartic.cli import (MAX_ALPHA_DIGITS, MAX_BETA4_DIGITS, MAX_DET_DIGITS,
                           MAX_PARAM_DEGREE, MAX_PRECISION_BITS, MAX_PRINTED_DIGITS,
                           MAX_TN_DIGITS, SUITES, main)
from k3quartic.lattices import MAX_GRAM_RANK


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def run_subprocess(*argv, timeout):
    """One cold ``python -m k3quartic.cli`` process on this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "k3quartic.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


class TestAnalyze:
    def test_standard_member(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "81/49", "--mw-rank", "1")
        assert code == 0
        assert rep["command"] == "analyze"
        assert rep["inputs"] == {"alpha": "81/49", "mwRank": 1}
        res = rep["results"]
        assert res["stability"] == "Stable"
        types = sorted(fb["type"] for fb in res["fibers"] for _ in range(fb["degree"]))
        assert types == ["I0*", "I0*", "III", "III*"]
        assert res["eulerTotal"] == 24
        assert res["picardBound"] == 19
        assert res["picardBoundParityRefined"] == 20
        assert len(res["singularPoints"]) == 4
        assert all(e["pass"] for e in rep["verificationLedger"])

    def test_default_mw_rank_gives_18(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "81/49")
        assert code == 0
        assert rep["results"]["picardBound"] == 18
        assert rep["results"]["picardBoundParityRefined"] == 18

    def test_tacnode_member(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "1")
        assert code == 0
        assert rep["results"]["stability"] == "Unstable"
        assert "tacnode" in rep["results"]["reason"]

    def test_infinity(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "inf")
        assert code == 0
        assert rep["results"]["stability"] == "Unstable"

    def test_flag_form(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "--alpha", "5")
        assert code == 0
        assert rep["results"]["stability"] == "Stable"
        assert rep["results"]["eulerTotal"] == 24

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "81/49")
        assert code == 0
        assert "Stable" in out
        assert "all 3 checks passed" in out

    def test_bad_alpha(self, capsys):
        code, _, err = run(capsys, "analyze", "not-a-number")
        assert code == 2
        assert "cannot parse" in err

    def test_alpha_given_twice(self, capsys):
        code, _, err = run(capsys, "analyze", "81/49", "--alpha", "1")
        assert code == 2
        assert "once" in err

    def test_alpha_missing(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2

    @pytest.mark.parametrize("rank", ["-5", "100"])
    def test_mw_rank_out_of_range(self, capsys, rank):
        code, out, err = run(capsys, "analyze", "81/49", "--mw-rank", rank)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --mw-rank %s: " % rank)
        assert err.count("\n") == 1

    # the fibration prints alpha^2, which passed CPython's 4300-digit limit
    # on int-to-str conversion for a 2200-digit alpha, a traceback in str()
    @pytest.mark.parametrize("alpha", ["%d/2" % (10 ** MAX_ALPHA_DIGITS + 1),
                                       "-%d/2" % (10 ** MAX_ALPHA_DIGITS + 1),
                                       "3/%d" % 10 ** MAX_ALPHA_DIGITS,
                                       "%d/7" % (10 ** 2200 + 1)])
    def test_rejects_an_alpha_over_the_digit_cap(self, capsys, alpha):
        code, out, err = run(capsys, "analyze", alpha, "--json")
        assert code == 2
        assert out == ""
        assert err == ("error: alpha must have a numerator and a denominator of "
                       "at most %d digits\n" % MAX_ALPHA_DIGITS)

    @pytest.mark.parametrize("alpha", ["%d/2" % (10 ** MAX_ALPHA_DIGITS - 1),
                                       "2/%d" % (10 ** MAX_ALPHA_DIGITS - 1)])
    def test_at_the_alpha_digit_cap(self, capsys, alpha):
        code, rep, _ = run_json(capsys, "analyze", alpha)
        assert code == 0
        assert rep["inputs"]["alpha"] == alpha
        assert rep["results"]["stability"] == "Stable"


@pytest.mark.parametrize("command", ["analyze", "fibers"])
def test_negative_alpha_forms_agree(capsys, command):
    outs = set()
    for argv in ((command, "-1/3"), (command, "--alpha", "-1/3"),
                 (command, "--alpha=-1/3")):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0, err
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["inputs"]["alpha"] == "-1/3"



# numerator and denominator are each a product of two 8-digit primes
SEMIPRIME_ALPHA = "10000004400000259/10000003799999461"


@pytest.mark.parametrize("argv,expected", [(("analyze",), 0), (("fibers",), 0),
                                           (("cm", "--beta4"), 2)],
                         ids=["analyze", "fibers", "cm"])
def test_semiprime_alpha_finishes(argv, expected):
    proc = run_subprocess(*argv, SEMIPRIME_ALPHA, "--json", timeout=10)
    assert proc.returncode == expected, proc.stderr
    if expected:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    else:
        assert json.loads(proc.stdout)["inputs"]["alpha"] == SEMIPRIME_ALPHA

class TestFibers:
    def test_table(self, capsys):
        code, rep, _ = run_json(capsys, "fibers", "81/49")
        assert code == 0
        fibers = rep["results"]["fibers"]
        assert len(fibers) == 3
        by_type = {fb["type"]: fb for fb in fibers}
        assert by_type["I0*"]["degree"] == 2
        assert by_type["III"]["location"] == "infinity"
        assert rep["results"]["eulerTotal"] == 24


class TestLattice:
    def test_invariants_default(self, capsys):
        code, rep, _ = run_json(capsys, "lattice", "invariants")
        assert code == 0
        inv = rep["results"]["invariants"]
        assert inv["rank"] == 18
        assert inv["signature"] == [1, 17]
        assert inv["determinant"] == "-16"
        assert inv["ell"] == 4
        assert inv["twoElementary"] is True
        assert inv["delta"] == 1
        assert all(e["pass"] for e in rep["verificationLedger"])

    def test_invariants_custom_gram(self, capsys):
        code, rep, _ = run_json(capsys, "lattice", "invariants", "--gram", "T")
        assert code == 0
        inv = rep["results"]["invariants"]
        assert inv["signature"] == [2, 2]
        assert inv["determinant"] == "16"

    def test_invariants_bad_spec(self, capsys):
        code, _, err = run(capsys, "lattice", "invariants", "--gram", "E8")
        assert code == 2

    @pytest.mark.parametrize("spec, name", [("A1(1/2)", "A1"), ("U(x)", "U"),
                                            ("A1(%s)" % ("7" * 4400), "A1")],
                             ids=["fraction", "letter", "4400-digits"])
    def test_invariants_reject_a_twist_that_is_not_an_integer(self, capsys, spec, name):
        code, out, err = run(capsys, "lattice", "invariants", "--gram", spec)
        assert code == 2
        assert out == ""
        assert err == "error: the twist of %s must be an integer\n" % name

    def test_invariants_degenerate_gram(self, capsys):
        code, out, err = run(capsys, "lattice", "invariants", "--gram", "A1(0)")
        assert code == 2
        assert out == ""
        assert err == "error: degenerate lattice\n"

    def test_tn_realized(self, capsys):
        code, rep, _ = run_json(capsys, "lattice", "tn", "--n", "7")
        assert code == 0
        res = rep["results"]
        assert res["verdict"] == "Realized"
        assert res["vector"] == [4, 0, 3, 0]
        assert res["minorGcd"] == 1
        assert res["pairGram"] == [[14, 0], [0, 14]]

    def test_tn_obstructed(self, capsys):
        code, rep, _ = run_json(capsys, "lattice", "tn", "--n", "2")
        assert code == 0
        res = rep["results"]
        assert res["verdict"] == "Obstructed"
        assert res["evidence"] == {"bound": 12, "candidates": 756,
                                   "primitive_found": 0}
        assert any("mod 4" in line for line in res["transcript"])

    def test_tn_requires_n(self, capsys):
        code, _, err = run(capsys, "lattice", "tn")
        assert code == 2

    def test_tn_rejects_nonpositive(self, capsys):
        code, _, err = run(capsys, "lattice", "tn", "--n", "0")
        assert code == 2

    # the minors of a 2500-digit n passed CPython's 4300-digit limit on
    # int-to-str conversion, a traceback in the JSON encoder
    @pytest.mark.parametrize("n", ["7" * 2500, str(10 ** MAX_TN_DIGITS)])
    def test_tn_rejects_an_n_over_the_digit_cap(self, capsys, n):
        code, out, err = run(capsys, "lattice", "tn", "--n", n, "--json")
        assert code == 2
        assert out == ""
        assert err == "error: --n must have at most %d digits\n" % MAX_TN_DIGITS

    @pytest.mark.parametrize("n", [10 ** MAX_TN_DIGITS - 1, 10 ** MAX_TN_DIGITS - 2,
                                   10 ** MAX_TN_DIGITS - 4])
    def test_tn_at_the_digit_cap(self, capsys, n):
        code, rep, _ = run_json(capsys, "lattice", "tn", "--n", str(n))
        assert code == 0
        assert rep["results"]["verdict"] == ("Obstructed" if n % 4 == 2 else "Realized")

    @pytest.mark.parametrize("spec", [
        # det 10^4800 (10^300 + 1)^8: rat_str passed the int-to-str limit
        "+".join("U(%d)" % (10 ** 300 + k % 2) for k in range(8)),
        "A1(%d)" % (5 * 10 ** (MAX_DET_DIGITS - 1)),
    ])
    def test_invariants_reject_a_determinant_over_the_digit_cap(self, capsys, spec):
        code, out, err = run(capsys, "lattice", "invariants", "--gram", spec)
        assert code == 2
        assert out == ""
        assert err == ("error: the determinant of --gram may have more than "
                       "%d digits\n" % MAX_DET_DIGITS)

    def test_invariants_at_the_digit_cap(self, capsys):
        det = 8 * 10 ** (MAX_DET_DIGITS - 1)
        code, rep, _ = run_json(capsys, "lattice", "invariants", "--gram",
                                "A1(%d)" % (det // 2))
        assert code == 0
        assert rep["results"]["invariants"]["determinant"] == str(det)

    def test_invariants_rank_cap(self, capsys):
        code, rep, _ = run_json(capsys, "lattice", "invariants", "--gram",
                                "+".join(["U"] * (MAX_GRAM_RANK // 2)))
        assert code == 0
        assert rep["results"]["invariants"]["rank"] == MAX_GRAM_RANK
        code, out, err = run(capsys, "lattice", "invariants", "--gram",
                             "+".join(["U"] * 200))
        assert code == 2
        assert out == ""
        assert err == "error: a Gram spec has rank at most %d\n" % MAX_GRAM_RANK

    def test_invariants_of_coprime_twisted_e7_blocks(self, capsys):
        # one Smith form over the whole rank-42 sum ran past 60 s; each
        # E7(k) block has factors (k, ..., k, 2k), merged prime by prime
        spec = "E7(3)+E7(5)+E7(7)+E7(11)+E7(13)+E7(17)"
        code, rep, _ = run_json(capsys, "lattice", "invariants", "--gram", spec)
        assert code == 0
        inv = rep["results"]["invariants"]
        assert inv["invariantFactors"] == ["1"] * 35 + ["255255"] + ["510510"] * 6
        assert (inv["ell"], inv["twoElementary"], inv["delta"]) == (7, False, None)
        assert all(e["pass"] for e in rep["verificationLedger"])


# each file breaks one rule of the parametrization format; unchecked, a
# negative exponent hangs in Poly.__divmod__ and exponent 800 runs for
# over a minute
_PARAM = {"x": [[0, "1"]], "y": [[1, "1"]], "z": [[2, "1"], [0, "3"]]}
MALFORMED_PARAMS = {
    "not-json": "{not json",
    "top-level-list": json.dumps([_PARAM]),
    "var-not-string": json.dumps(dict(_PARAM, var=5)),
    "var-empty": json.dumps(dict(_PARAM, var="")),
    "var-not-a-name": json.dumps(dict(_PARAM, var="r r")),
    "float-coefficient": json.dumps(dict(_PARAM, x=[[0, 1.5]])),
    "zero-denominator": json.dumps(dict(_PARAM, x=[[0, "1/0"]])),
    "bool-coefficient": json.dumps(dict(_PARAM, x=[[0, True]])),
    "negative-exponent": json.dumps(dict(_PARAM, x=[[-1, "1"]])),
    "exponent-800": json.dumps(dict(_PARAM, x=[[800, "1"]])),
    "exponent-above-ceiling": json.dumps(dict(_PARAM, x=[[MAX_PARAM_DEGREE + 1, "1"]])),
    "repeated-exponent": json.dumps(dict(_PARAM, x=[[0, "1"], [0, "5"]])),
}


def dense_curve(d):
    """x = r^d + 2r + 3, y = r^(d-1) + 5, z = 2r^d + r^2: a dense curve whose
    composite with the quartic has degree 4d."""
    return json.dumps({"x": [[d, "1"], [1, "2"], [0, "3"]],
                       "y": [[d - 1, "1"], [0, "5"]],
                       "z": [[d, "2"], [2, "1"]]})


# sha256 of `split --param dense32.json --json` run beside the file; the
# same bytes as under Euclid's gcd over Q, which took about 3.3 s
DENSE32_SHA256 = "31ecb96c9f75099d64ff20e75d83dc0db3849568250c824ecd3f51b12baec6e9"


def wide_curve(c):
    """x = c r + 1, y = 2 r + c, z = c r^2 + 3: places whose factors hold c^3."""
    return json.dumps({"x": [[1, str(c)], [0, "1"]], "y": [[1, "2"], [0, str(c)]],
                       "z": [[2, str(c)], [0, "3"]]})


# sha256 of `split --param wide1000.json --json` run beside the file, with
# c = 10^1000 + 7; its largest printed integer has 3002 digits
WIDE1000_SHA256 = "6e0ebbf80bedde416d0304abf1d17965688a875595f7db8e40aa18d48db9ed9d"


def places_curve(n):
    """x = 1, y = prod_{i <= n} (r - i)^(m_i) with seeded m_i in {1, 2},
    z = r: n integer places on the line y = 0."""
    rng = random.Random(n)
    y = [1]
    for i in range(1, n + 1):
        for _ in range(rng.choice([1, 2])):
            y = [a - i * b for a, b in zip([0] + y, y + [0])]
    return json.dumps({"x": [[0, "1"]], "y": [[e, str(c)] for e, c in enumerate(y)],
                       "z": [[1, "1"]]})


# sha256 of `split --param places32.json --json` run beside the file
PLACES32_SHA256 = "6d3eb52cf40b11f53fd9fa0c3b9efb0ae14b4f291a73e2b116910cfafac6476b"


class TestSplit:
    def test_builtins(self, capsys):
        code, rep, _ = run_json(capsys, "split")
        assert code == 0
        tests = rep["results"]["tests"]
        assert len(tests) == 2
        assert all(t["verdict"] == "Splits" for t in tests)
        assert all(t["profile"] == [4, 4, 4] for t in tests)
        constants = {t["constant"] for t in tests}
        assert constants == {"-36006768", "-576108288"}

    def test_param_file(self, capsys, tmp_path):
        # the quartic-degree curve reparametrized by r -> 3r: same curve,
        # so the verdict must still be Splits with profile 4,4,4
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({
            "x": [[0, "3969"], [1, "-2646"], [2, "441"]],
            "y": [[1, "15309"], [2, "-10206"], [3, "1701"]],
            "z": [[2, "59049"], [3, "22842"], [4, "6561"]],
        }))
        code, rep, _ = run_json(capsys, "split", "--param", str(f))
        assert code == 0
        t = rep["results"]["tests"][0]
        assert t["verdict"] == "Splits"
        assert t["profile"] == [4, 4, 4]

    def test_branch_component_fails_ledger(self, capsys, tmp_path):
        f = tmp_path / "conic.json"
        f.write_text(json.dumps({
            "x": [[0, "1"]], "y": [[1, "1"]], "z": [[2, "1"]],
        }))
        code, rep, _ = run_json(capsys, "split", "--param", str(f))
        assert code == 1
        assert rep["results"]["tests"][0]["verdict"] == "ContainedInBranch"
        assert not rep["verificationLedger"][0]["pass"]

    def test_dense_curve_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dense32.json").write_text(dense_curve(32))
        code, out, _ = run(capsys, "split", "--param", "dense32.json", "--json")
        assert code == 0
        assert sha256(out) == DENSE32_SHA256

    def test_integer_places_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "places32.json").write_text(places_curve(32))
        code, out, _ = run(capsys, "split", "--param", "places32.json", "--json")
        assert code == 0
        assert sha256(out) == PLACES32_SHA256

    def test_dense_curve_at_the_exponent_cap(self, tmp_path):
        f = tmp_path / "dense.json"
        f.write_text(dense_curve(MAX_PARAM_DEGREE))
        proc = run_subprocess("split", "--param", str(f), "--json", timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["results"]["tests"][0]["verdict"] == "DoesNotSplit"

    # a factor holding c^3 passed CPython's 4300-digit limit on int-to-str
    # conversion for a 1500-digit c, a traceback in str()
    def test_rejects_a_report_integer_over_the_digit_limit(self, capsys, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "wide1500.json").write_text(wide_curve(10 ** 1499 + 7))
        code, out, err = run(capsys, "split", "--param", "wide1500.json", "--json")
        assert code == 2
        assert out == ""
        assert err == ("error: the split report of wide1500.json would print an "
                       "integer of more than %d digits\n" % MAX_PRINTED_DIGITS)

    def test_report_integers_under_the_digit_limit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "wide1000.json").write_text(wide_curve(10 ** 1000 + 7))
        code, out, _ = run(capsys, "split", "--param", "wide1000.json", "--json")
        assert code == 0
        assert sha256(out) == WIDE1000_SHA256

    # a coefficient of 2001 to 4300 digits was parsed with no budget, and a
    # longer one was called "not an integer", its digits echoed on one line
    @pytest.mark.parametrize("coeff", [
        str(10 ** MAX_ALPHA_DIGITS), "-" + "7" * 5000, " 3/%s" % ("1" * 2001),
        10 ** MAX_ALPHA_DIGITS, -10 ** MAX_ALPHA_DIGITS - 1,
    ], ids=["string-2001", "string-5000", "denominator-2001", "int-2001", "negative-int-2002"])
    def test_rejects_a_coefficient_over_the_digit_cap(self, capsys, tmp_path, coeff):
        f = tmp_path / "long.json"
        f.write_text(json.dumps(dict(_PARAM, z=[[2, "1"], [0, coeff]])))
        code, out, err = run(capsys, "split", "--param", str(f))
        assert code == 2
        assert out == ""
        assert err == ("error: 'z': the coefficient of exponent 0 must have a numerator "
                       "and a denominator of at most %d digits\n" % MAX_ALPHA_DIGITS)

    @pytest.mark.parametrize("coeff", ["9" * MAX_ALPHA_DIGITS, "-%s/7" % ("9" * MAX_ALPHA_DIGITS),
                                       "2/" + "9" * MAX_ALPHA_DIGITS, 10 ** MAX_ALPHA_DIGITS - 1])
    def test_coefficient_at_the_digit_cap(self, capsys, tmp_path, coeff):
        f = tmp_path / "long.json"
        f.write_text(json.dumps(dict(_PARAM, z=[[2, "1"], [0, coeff]])))
        code, rep, _ = run_json(capsys, "split", "--param", str(f))
        assert code in (0, 1)
        assert rep["results"]["tests"][0]["verdict"] in ("Splits", "DoesNotSplit")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "split", "--param", "/nonexistent/f.json")
        assert code == 2

    @pytest.mark.parametrize("text", MALFORMED_PARAMS.values(),
                             ids=MALFORMED_PARAMS.keys())
    def test_malformed_file(self, capsys, tmp_path, text):
        f = tmp_path / "bad.json"
        f.write_text(text)
        code, out, err = run(capsys, "split", "--param", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_coordinate(self, capsys, tmp_path):
        f = tmp_path / "partial.json"
        f.write_text(json.dumps({"x": [[0, "1"]], "y": [[0, "1"]]}))
        code, _, err = run(capsys, "split", "--param", str(f))
        assert code == 2
        assert "'z'" in err

    # a shared factor added its places to the report: the built-in sextic
    # times (r + 2) gave profile [4, 4, 4, 4] with the place r + 2, and
    # (r, 2r, 3r) "split" with the place r
    @pytest.mark.parametrize("coords, factor", [
        ({"x": [[0, "98"], [1, "-147"], [3, "49"]], "y": [[2, "126"], [3, "-189"], [5, "63"]],
          "z": [[2, "288"], [3, "-48"], [4, "354"], [5, "-99"], [7, "81"]]}, "r + 2"),
        ({"x": [[1, "1"]], "y": [[1, "2"]], "z": [[1, "3"]]}, "r"),
        ({"x": [], "y": [[2, "1"], [0, "1"]], "z": [[3, "1"], [1, "1"]]}, "r^2 + 1"),
    ], ids=["sextic-times-r-plus-2", "line-through-a-point", "zero-x"])
    def test_rejects_a_shared_factor(self, capsys, tmp_path, coords, factor):
        f = tmp_path / "shared.json"
        f.write_text(json.dumps(coords))
        code, out, err = run(capsys, "split", "--param", str(f))
        assert code == 2
        assert out == ""
        assert err == "error: x, y and z share the factor %s\n" % factor

    def test_names_an_unprintable_shared_factor_by_its_degree(self, capsys, tmp_path,
                                                              monkeypatch):
        from k3quartic import cli

        monkeypatch.setattr(cli, "MAX_PRINTED_DIGITS", 0)
        f = tmp_path / "shared.json"
        f.write_text(json.dumps({"x": [[1, "1"]], "y": [[1, "2"]], "z": [[1, "3"]]}))
        code, _, err = run(capsys, "split", "--param", str(f))
        assert code == 2
        assert err == "error: x, y and z share a factor of degree 1\n"

    @pytest.mark.parametrize("coords", [
        {"x": [[0, "1"]], "y": [[0, "1"]], "z": [[0, "1"]]},
        {"x": [], "y": [[0, "2/3"]], "z": []},
    ], ids=["ones", "zeros-and-a-constant"])
    def test_rejects_constant_coordinates(self, capsys, tmp_path, coords):
        # (1, 1, 1) reported ContainedInBranch and exited 1
        f = tmp_path / "constant.json"
        f.write_text(json.dumps(coords))
        code, out, err = run(capsys, "split", "--param", str(f))
        assert code == 2
        assert out == ""
        assert err == "error: x, y and z are all constant: the map is constant\n"


class TestCm:
    def test_square_lattice_member(self, capsys):
        code, rep, _ = run_json(capsys, "cm", "--beta4", "7/9",
                                "--precision", "128")
        assert code == 0
        res = rep["results"]
        assert res["j"] == "1728"
        assert res["verdict"]["kind"] == "IsogenousToE"
        assert res["verdict"]["conductor"] == 1
        assert res["verdict"]["witness"] == [1, 0, 1]

    def test_degenerate_member(self, capsys):
        for beta4 in ("1", "-1"):
            code, _, err = run(capsys, "cm", "--beta4", beta4)
            assert code == 2
            assert err == "error: degenerate member: singular cubic: discriminant vanishes\n"

    def test_unsplit_cubic_prints_rationals(self, capsys):
        # smooth members (j = 287496 at -7/9, 8000 at 0, 0 at 5/3) whose cubic
        # u(u^2 + 4u + a) has the one rational root 0: unsupported, not degenerate
        for beta4 in ("81/49", "-7/9", "0", "5/3"):
            code, out, err = run(capsys, "cm", "--beta4", beta4)
            assert code == 2
            assert out == ""
            assert err == ("error: unsupported member: the cubic does not split "
                           "over Q: roots [0]\n")
            assert "Fraction(" not in err

    def test_precision_floor(self, capsys):
        code, _, err = run(capsys, "cm", "--beta4", "7/9", "--precision", "16")
        assert code == 2

    def test_odd_precision_accepts_what_the_check_accepts(self, capsys, monkeypatch):
        # at 33 bits the check accepts residuals below 2^-16 = 2^-(33 // 2);
        # the ledger entry must pass every relation the check accepts
        import mpmath

        from k3quartic import periods

        residual = 1.5 * 2.0 ** -17
        monkeypatch.setattr(periods, "cm_isogeny_check",
                            lambda tau, precision_bits: periods.IsogenousToE(
                                1, (1, 0, 1), residual))
        assert mpmath.mpf(2) ** -17 <= residual < mpmath.mpf(2) ** -16
        code, rep, _ = run_json(capsys, "cm", "--beta4", "7/9", "--precision", "33")
        assert code == 0
        assert rep["results"]["verdict"]["kind"] == "IsogenousToE"
        entry, = [e for e in rep["verificationLedger"]
                  if e["checkName"] == "relation_residual_small"]
        assert entry["pass"]

    def test_precision_ceiling_is_inclusive(self, capsys):
        code, rep, _ = run_json(capsys, "cm", "--beta4", "1/2",
                                "--precision", str(MAX_PRECISION_BITS))
        assert code == 0
        assert rep["inputs"]["precision"] == MAX_PRECISION_BITS

    # a split member 1 - w^2/8 whose numerator has 1442 digits printed a
    # traceback: its j has about three times the digits of beta^4, past
    # CPython's 4300-digit limit on int-to-str conversion
    @pytest.mark.parametrize("beta4", [
        "%d/8" % (8 - w * w) for w in (10 ** (MAX_BETA4_DIGITS // 2) + 1, 10 ** 720 + 1)
    ] + ["1/%d" % 10 ** MAX_BETA4_DIGITS],
        ids=["numerator-1401", "numerator-1442", "denominator-1401"])
    def test_rejects_a_beta4_over_the_digit_cap(self, capsys, beta4):
        code, out, err = run(capsys, "cm", "--beta4", beta4)
        assert code == 2
        assert out == ""
        assert err == ("error: --beta4 must have a numerator and a denominator of at "
                       "most %d digits\n" % MAX_BETA4_DIGITS)

    def test_beta4_at_the_digit_cap(self, capsys):
        w = 4 * 10 ** (MAX_BETA4_DIGITS // 2 - 1) + 1
        assert len(str(w * w - 8)) == MAX_BETA4_DIGITS
        code, rep, _ = run_json(capsys, "cm", "--beta4", "%d/8" % (8 - w * w))
        assert code in (0, 1)
        assert len(rep["results"]["j"]) > 4000

    def test_precision_above_ceiling_exits_at_once(self):
        # uncapped, 5000000 bits ran for longer than 20 s
        proc = run_subprocess("cm", "--beta4=1/2", "--precision", "5000000",
                              timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --precision must be at most 65536 bits\n"


class TestModuli:
    def test_fricke(self, capsys):
        code, rep, _ = run_json(capsys, "moduli", "--check", "fricke")
        assert code == 0
        assert len(rep["verificationLedger"]) == 10
        assert all(rep["results"]["fricke"].values())

    def test_period(self, capsys):
        code, rep, _ = run_json(capsys, "moduli", "--check", "period")
        assert code == 0
        examples = rep["results"]["period"]["examples"]
        verdicts = [e["verdict"] for e in examples]
        assert verdicts == ["inside", "boundary", "inside"]
        assert rep["results"]["period"]["gramChecks"] == {
            "gram_matches_hermitian_form": True,
            "i_action_matches_j": True,
            "j_is_isometry": True,
        }

    def test_cayley(self, capsys, monkeypatch):
        from k3quartic import moduli

        calls = []
        real_cayley = moduli.cayley

        def counted(m):
            calls.append(m)
            return real_cayley(m)

        monkeypatch.setattr(moduli, "cayley", counted)
        code, rep, _ = run_json(capsys, "moduli", "--check", "cayley")
        assert code == 0
        assert rep["results"]["cayley"]["roundTripExact"] is True
        # one image per sample, reused for integralImagesInH0, plus 3 per product pair
        assert len(calls) == 100 + 3 * 50


# sha256 of the --json stdout of each call: report bytes must not drift.
# ``verify all`` is pinned in TestVerify.test_all, which runs that ledger anyway.
GOLDEN = [
    (("analyze", "81/49", "--mw-rank", "1"),
     "d27e6842b3f9b5858d28b684e1d3e2b7d3c158a48946a6002763f90bf1a9bfe5"),
    # a split member: five rational nodes and two I0* fibers tied on (k, degree)
    (("analyze", "3/4", "--mw-rank", "1"),
     "e8fef306e3cf66d4b518e9b854c6fb1c9998bfe7a5db1e0027f2df13668f593c"),
    (("analyze", "0"),
     "e371b3a1d2002526326ff4846805172c1434415d0de90ac4801754207b64794a"),
    (("fibers", "81/49"),
     "41530fa1c8adc4b0a84f4884730f14e01b52247c97533c195f3617ef99eaae63"),
    (("fibers", "3/4"),
     "2049fb2eb42e40ae066f61dbd29f869a688b8b16b6cf92686ea4c4f694e6bfd3"),
    (("fibers", "inf"),
     "311d181b2f39b9b64e259e29abc4efb855968a9b4c042a2480e6b58a01218ec2"),
    (("lattice", "invariants", "--gram", "N"),
     "185dbb058e4cde58a9f1925afbce5b7be8a617472084ad893dacac057a1f4ef4"),
    (("lattice", "tn", "--n", "7"),
     "91bc5f2c17669d6779a167fc6f460ffd2fa5b5084a28988d8b01edfdcfe396a7"),
    (("lattice", "tn", "--n", "2"),
     "a950cc9f394e798a2a5d13cbe0e031bb4509cdea1a1e4813b633371b6366f6c0"),
    (("split",),
     "54897b28cc7ff88218ffbc006c5c9c84615014231907e39a30df9685220d61ae"),
    (("cm", "--beta4", "7/9"),
     "b86854609a7e85a6e143e30bf30522ffa669de7933d92d545198b887078dc7ec"),
    (("moduli", "--check", "all"),
     "9ea996c9c7d8b5cf3ea167d3b65979b659abfa214db5d73cd07710038c8a4d9e"),
]
VERIFY_ALL_SHA256 = (
    "dfc241634eb761cd9514c5127237c01150d6fdabe5a1505521dc952b0b5ff05f")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden_json(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert sha256(out) == digest


class TestVerify:
    def test_all(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--json")
        assert code == 0
        assert sha256(out) == VERIFY_ALL_SHA256
        rep = json.loads(out)
        ledger = rep["verificationLedger"]
        assert len(ledger) == len(SUITES["all"]) == 26
        assert all(e["pass"] for e in ledger)
        assert rep["results"]["checksPassed"] == 26

    def test_cover_subset(self, capsys):
        code, rep, _ = run_json(capsys, "verify", "cover")
        assert code == 0
        names = [e["checkName"] for e in rep["verificationLedger"]]
        assert names == ["cover_map_identity", "pencil_substitution"]

    def test_single_check(self, capsys):
        code, rep, _ = run_json(capsys, "verify", "generic_euler_number")
        assert code == 0
        assert len(rep["verificationLedger"]) == 1

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "fricke", "--json")
        _, out2, _ = run(capsys, "verify", "fricke", "--json")
        assert out1 == out2

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        f = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "pencil", "--json",
                           "--report", str(f))
        assert code == 0
        assert f.read_text() == out


class TestTopLevel:
    def test_no_args_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "verify" in out


# -- typed input: a report or a usage error, never a traceback --------------------


def _signed_ints(max_digits=40):
    """Integers of 0 to max_digits digits, either sign."""
    return st.integers(0, max_digits).flatmap(lambda k: st.integers(-10 ** k, 10 ** k))


_NOT_NUMBERS = st.sampled_from(["", " ", "x", "1.5", "1/2/3", "0/0", "--1", "1e5", "(1)"])

_ALPHAS = st.one_of(
    _signed_ints().map(str),
    st.tuples(_signed_ints(), _signed_ints()).map(lambda pq: "%d/%d" % pq),
    st.sampled_from(["inf", "Infinity", "oo", "0", "1", "-1"]),
    _NOT_NUMBERS,
)

# split members 1 - w^2/8, w of up to 800 digits (beta^4 of up to about
# 1600, past the cap), beside the typed alphas
_BETA4S = st.one_of(
    _signed_ints(800).map(lambda w: "%d/8" % (8 - w * w)),
    _ALPHAS,
)

_SUMMANDS = st.tuples(
    st.sampled_from(["N", "T", "U", "A1", "E7", "E8", "n", ""]),
    st.one_of(st.none(), _signed_ints().map(str), _NOT_NUMBERS),
).map(lambda p: p[0] if p[1] is None else "%s(%s)" % p)

_ARGVS = st.one_of(
    st.tuples(st.just("analyze"), _ALPHAS, st.integers(-3, 25)).map(
        lambda t: ["analyze", t[1], "--mw-rank", str(t[2])]),
    _ALPHAS.map(lambda a: ["fibers", a]),
    _ALPHAS.map(lambda a: ["split", "--alpha", a]),
    st.lists(_SUMMANDS, min_size=1, max_size=4).map(
        lambda parts: ["lattice", "invariants", "--gram", "+".join(parts)]),
    st.one_of(_signed_ints().map(str), _NOT_NUMBERS).map(lambda n: ["lattice", "tn", "--n", n]),
    _BETA4S.map(lambda b: ["cm", "--beta4=" + b]),
)

# JSON values of the wrong kind: bools, floats (inf and nan included), null,
# strings and nested lists
_JSON_ODDITIES = st.one_of(
    st.booleans(), st.floats(), st.none(), _NOT_NUMBERS,
    st.recursive(st.lists(st.integers(-3, 3), max_size=3), st.lists, max_leaves=6),
)

# well-formed terms: exponents up to 8, integer coefficients up to 40 digits
_GOOD_TERMS = st.lists(
    st.tuples(st.integers(0, 8), st.one_of(_signed_ints(), _signed_ints().map(str))).map(list),
    max_size=5, unique_by=lambda t: t[0])

# one malformed term: a coefficient with a zero denominator or of the wrong
# kind, an exponent out of range or of the wrong kind, or not a pair at all
_BAD_TERM = st.one_of(
    st.tuples(st.integers(0, 8), st.one_of(st.sampled_from(["1/0", "-7/0", "0/0"]),
                                           _JSON_ODDITIES)).map(list),
    st.tuples(st.one_of(st.sampled_from([-1, MAX_PARAM_DEGREE + 1]), _JSON_ODDITIES),
              _signed_ints()).map(list),
    st.lists(st.integers(0, 8), max_size=4).filter(lambda t: len(t) != 2),
    _JSON_ODDITIES,
)

_VARS = st.one_of(st.sampled_from(["r", "t", "lam", "x", ""]), _JSON_ODDITIES)


@st.composite
def _one_bad_term(draw):
    """A parametrization with one malformed term in one coordinate."""
    data = {key: draw(_GOOD_TERMS) for key in "xyz"}
    terms = data[draw(st.sampled_from("xyz"))]
    terms.insert(draw(st.integers(0, len(terms))), draw(_BAD_TERM))
    return data


# the text of a parametrization file: objects with one malformed term,
# well-formed objects, objects with a coordinate missing or not a list,
# other JSON values, and text that is not JSON
_PARAM_TEXTS = st.one_of(
    _one_bad_term().map(json.dumps),
    st.fixed_dictionaries({"x": _GOOD_TERMS, "y": _GOOD_TERMS, "z": _GOOD_TERMS},
                          optional={"var": _VARS}).map(json.dumps),
    st.fixed_dictionaries({"x": _JSON_ODDITIES, "z": _GOOD_TERMS},
                          optional={"y": _JSON_ODDITIES}).map(json.dumps),
    _JSON_ODDITIES.map(json.dumps),
    st.sampled_from(["", "{", "[1, 2", "{\"x\": }", "\u0000"]),
)


def _assert_report_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    else:
        command = " ".join(argv[:2]) if argv[0] == "lattice" else argv[0]
        assert json.loads(out.getvalue())["command"] == command, argv


@given(_ARGVS)
@settings(max_examples=150, deadline=timedelta(seconds=2))
def test_typed_input_gives_a_report_or_one_error_line(argv):
    _assert_report_or_one_error_line(argv)


@given(_PARAM_TEXTS)
@settings(max_examples=150, deadline=timedelta(seconds=2))
def test_param_file_gives_a_report_or_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "param.json")
        with open(path, "w") as fh:
            fh.write(text)
        _assert_report_or_one_error_line(["split", "--param", path])
