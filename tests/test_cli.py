import contextlib
import io
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import IntegerRing, Matrix, RingParseError, parse_certificate, parse_matrix
from edrkit.cli import main
from edrkit.finite_lab import CHECKERS

Z = IntegerRing()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n2 0\n0 3\n", encoding="utf-8")
    return str(path)


# -- snf -------------------------------------------------------------------


def test_snf_golden_output(matrix_file):
    code, text = run_cli("snf", "Z", matrix_file)
    assert code == 0
    assert text.splitlines()[0] == "# edr-kit v1"
    blocks = text.split("D\n")
    assert "2 2\n1 0\n0 6\n" in blocks[1]


def test_snf_rejects_non_bezout_ring(matrix_file, capsys):
    code, _ = run_cli("snf", "Z/12", matrix_file)
    assert code == 1
    assert "Bezout domain" in capsys.readouterr().err


def test_snf_empty_matrix(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n", encoding="utf-8")
    code, text = run_cli("snf", "Z", str(path))
    assert code == 0
    assert "D\n0 0\n" in text


def test_snf_missing_file():
    code, _ = run_cli("snf", "Z", "/nonexistent/never.txt")
    assert code == 2


def test_snf_output_file(matrix_file, tmp_path):
    target = tmp_path / "cert.txt"
    code, text = run_cli("snf", "Z", matrix_file, "--output", str(target))
    assert code == 0 and text == ""
    assert target.read_text(encoding="utf-8").startswith("# edr-kit v1\nP\n")


# -- check -----------------------------------------------------------------


def test_check_single_property():
    code, text = run_cli("check", "Z/12", "gelfand")
    assert code == 0
    assert text == "# edr-kit v1\nproperty=gelfand ring=Z/12 holds=true checked=12\n"


def test_check_infinite_ring_rejected(capsys):
    code, _ = run_cli("check", "Z", "stable-range-1")
    assert code == 2
    assert "infinite ring" in capsys.readouterr().err


def test_check_all_emits_one_line_per_property():
    code, text = run_cli("check", "Z/12", "all")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "# edr-kit v1"
    assert len(lines) == 9
    assert all(line.startswith("property=") for line in lines[1:])


def test_check_unknown_property():
    code, _ = run_cli("check", "Z/12", "noetherian")
    assert code == 2


def test_check_bound_guard():
    code, _ = run_cli("check", "Z/40", "stable-range-2")
    assert code == 2
    code, _ = run_cli("check", "Z/40", "stable-range-2", "--bound", "40")
    assert code == 0


def test_check_all_stops_at_the_first_checker_over_its_default_bound(capsys):
    # Z/20 is within the pair-quantifier default (50), not the triple one (16)
    code, text = run_cli("check", "Z/20", "all")
    assert code == 2
    assert text == "# edr-kit v1\nproperty=stable-range-1 ring=Z/20 holds=true checked=400\n"
    assert "above the bound 16" in capsys.readouterr().err


# -- diadem -----------------------------------------------------------------


def test_diadem_over_integers():
    code, text = run_cli("diadem", "Z", "3", "5")
    assert code == 0
    assert text == "# edr-kit v1\nmultiplier=0 diadem=3 evidence=quotient-sr1\n"


def test_diadem_non_comaximal(capsys):
    code, _ = run_cli("diadem", "Z", "4", "6")
    assert code == 1
    assert "not comaximal" in capsys.readouterr().err


def test_diadem_on_finite_ring():
    code, text = run_cli("diadem", "Z/12", "3", "4")
    assert code == 0
    assert "evidence=exhaustive" in text


def test_diadem_negative_literal_after_separator():
    code, text = run_cli("diadem", "Z", "7", "--", "-1")
    assert code == 0
    assert "diadem=7" in text


def test_diadem_failed_spot_certification_exits_2_under_optimize():
    # python -O strips assert statements, so the check must be an explicit
    # raise: a diadem that fails its own certificate is an internal error
    script = (
        "import sys, edrkit.cli as cli, edrkit.finite_lab as finite_lab\n"
        "finite_lab.is_diadem_via_quotient = lambda *args: False\n"
        "sys.exit(cli.main(['diadem', 'Z', '3', '5']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "spot-certification" in done.stderr


def test_diadem_spot_certification_covers_polynomials_under_optimize():
    # the spot-check is bounded by the quotient's cardinality, so it also
    # runs over GF(p)[x]: GF(5)[x]/(x + 1) has 5 elements
    script = (
        "import sys, edrkit.cli as cli, edrkit.finite_lab as finite_lab\n"
        "finite_lab.is_diadem_via_quotient = lambda *args: False\n"
        "sys.exit(cli.main(['diadem', 'GF(5)[x]', '1,1', '0,1']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "spot-certification" in done.stderr


def test_diadem_over_polynomials_passes_its_spot_certification():
    code, text = run_cli("diadem", "GF(5)[x]", "1,1", "0,1")
    assert code == 0
    assert text == "# edr-kit v1\nmultiplier=0 diadem=1,1 evidence=quotient-sr1\n"


# -- witness ----------------------------------------------------------------


def test_witness_valid_triple():
    code, text = run_cli("witness", "Z", "6", "10", "15")
    assert code == 0
    assert text == "# edr-kit v1\np=0 q=1\n"


def test_witness_trivial_triples():
    code, text = run_cli("witness", "Z", "1", "0", "0")
    assert code == 0 and "p=0 q=0" in text


def test_witness_non_comaximal(capsys):
    code, _ = run_cli("witness", "Z", "2", "4", "6")
    assert code == 1
    assert "not comaximal" in capsys.readouterr().err


# -- verify -----------------------------------------------------------------


def test_verify_round_trip(matrix_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    run_cli("snf", "Z", matrix_file, "--output", str(cert_path))
    code, text = run_cli("verify", "Z", matrix_file, str(cert_path))
    assert code == 0
    assert text.endswith("valid\n")


@pytest.mark.parametrize("shape", ["0 3", "3 0"])
def test_snf_and_verify_empty_shapes(tmp_path, shape):
    # a 0 x n certificate keeps D at 0 x n, and an m x 0 matrix, written with
    # one blank line per row, reads back
    matrix = tmp_path / "m.txt"
    matrix.write_text(shape + "\n", encoding="utf-8")
    cert = tmp_path / "cert.txt"
    assert run_cli("snf", "Z", str(matrix), "--output", str(cert)) == (0, "")
    assert f"D\n{shape}\n" in cert.read_text(encoding="utf-8")
    assert run_cli("verify", "Z", str(matrix), str(cert)) == (0, "# edr-kit v1\nvalid\n")


@pytest.mark.parametrize("header", ["0 400", "400 0"])
def test_snf_refuses_an_empty_matrix_larger_than_its_text(tmp_path, header, default_int_str_limit, capsys):
    # only a matrix without entries can claim more rows or columns than its
    # text has characters, and its identity P or Q would be N x N
    path = tmp_path / "m.txt"
    path.write_text(header, encoding="utf-8")
    assert run_cli("snf", "Z", str(path)) == (2, "")
    err = capsys.readouterr().err
    assert "matrix dimension 400 on line 1 exceeds the 5 characters" in err
    assert parse_matrix(Z, "0 3") == Matrix(Z, 0, 3, ())
    with pytest.raises(RingParseError, match="dimension 4 on line 1 exceeds the 3 characters"):
        parse_matrix(Z, "0 4")
    # a 5000-digit dimension is named by its first digits
    with pytest.raises(RingParseError, match=r"\.\.\. \(5000 digits\)") as refused:
        parse_matrix(Z, "0 " + "9" * 5000)
    assert len(str(refused.value)) <= 200


def test_snf_and_verify_past_the_int_str_digit_limit(tmp_path, default_int_str_limit):
    # D = diag(1, ab) has 4401 digits, past CPython's default conversion limit
    a, b = 10**2200 + 1, 10**2200 + 3
    matrix = tmp_path / "big.txt"
    matrix.write_text(f"2 2\n{a} 0\n0 {b}\n", encoding="utf-8")
    cert = tmp_path / "cert.txt"
    assert run_cli("snf", "Z", str(matrix), "--output", str(cert)) == (0, "")
    expected = Matrix.from_rows(Z, [[1, 0], [0, a * b]])
    assert parse_certificate(Z, cert.read_text(encoding="utf-8")).D == expected
    assert run_cli("verify", "Z", str(matrix), str(cert)) == (0, "# edr-kit v1\nvalid\n")


def test_verify_over_a_large_modulus_without_enumerating(tmp_path, no_enumeration):
    def write(name, blocks):
        path = tmp_path / name
        path.write_text("".join(f"{k}4 4\n" + "\n".join(rows) + "\n" for k, rows in blocks))
        return str(path)

    def diag(*d):
        return [" ".join(str(d[i]) if i == j else "0" for j in range(4)) for i in range(4)]

    half = 500000004  # 1/2 modulo 10^9 + 7
    matrix = write("m.txt", [("", diag(2, 6, 30, 0))])
    d, eye = ("D\n", diag(1, 3, 15, 0)), ("Q\n", diag(1, 1, 1, 1))
    good = write("good.txt", [("P\n", diag(half, half, half, 1)), d, eye])
    start = time.perf_counter()
    assert run_cli("verify", "Z/1000000007", matrix, good) == (0, "# edr-kit v1\nvalid\n")
    assert time.perf_counter() - start < 1.0
    bad = write("bad.txt", [("P\n", diag(half, half, 1, 1)), d, eye])
    assert run_cli("verify", "Z/1000000007", matrix, bad) == (1, "# edr-kit v1\ninvalid: product\n")


def test_long_literals_reach_their_verbs(default_int_str_limit, capsys):
    ones = "1" * 5000
    assert run_cli("witness", "GF(5)[x]", ones, "1", "0") == (0, "# edr-kit v1\np=0 q=0\n")
    code, _ = run_cli("check", "Z/" + ones, "clean")
    assert code == 2
    assert "above the bound 50" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header",
    ["\u00b2 1", "1" * 5000 + " 1", "1 " + "1" * 5000, "x" * 5000],
    ids=["superscript-digit", "long-row-count", "long-column-count", "long-bad-header"],
)
def test_snf_bad_matrix_header_is_a_short_parse_error(header, tmp_path, default_int_str_limit, capsys):
    path = tmp_path / "m.txt"
    path.write_text(f"{header}\n5\n", encoding="utf-8")
    assert run_cli("snf", "Z", str(path)) == (2, "")
    assert len(capsys.readouterr().err.encode()) <= 200


def test_cardinality_bound_error_is_short(default_int_str_limit, capsys):
    code, _ = run_cli("check", "Z/" + "1" * 5000, "clean")
    err = capsys.readouterr().err
    assert code == 2
    assert "(5000 digits), above the bound 50" in err
    assert len(err.encode()) <= 200
    # p^3000 has 73,563 digits; it is named by a power of two, not formatted
    modulus = ",".join(["0"] * 3000 + ["1"])
    code, _ = run_cli("check", f"GF(3317044064679887385961813)[x]/({modulus})", "clean")
    err = capsys.readouterr().err
    assert code == 2
    assert "has cardinality at least 2^" in err
    assert len(err.encode()) <= 200


def test_verify_reordered_diagonal_fails_chain(matrix_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(
        "P\n2 2\n0 1\n1 0\nD\n2 2\n3 0\n0 2\nQ\n2 2\n0 1\n1 0\n", encoding="utf-8"
    )
    code, text = run_cli("verify", "Z", matrix_file, str(cert_path))
    assert code == 1
    assert text.endswith("invalid: chain\n")


def test_verify_tampered_entry_fails_product(matrix_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    run_cli("snf", "Z", matrix_file, "--output", str(cert_path))
    lines = cert_path.read_text(encoding="utf-8").splitlines()
    d_header = lines.index("D")
    row = lines[d_header + 2].split()
    row[0] = str(int(row[0]) + 1)
    lines[d_header + 2] = " ".join(row)
    cert_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, text = run_cli("verify", "Z", matrix_file, str(cert_path))
    assert code == 1
    assert text.endswith("invalid: product\n")


def test_verify_malformed_certificate(matrix_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("garbage\n", encoding="utf-8")
    code, _ = run_cli("verify", "Z", matrix_file, str(cert_path))
    assert code == 2


# -- exit-code contract on malformed input -------------------------------------


def test_exit_codes_on_fuzzed_invocations(tmp_path):
    bad_matrix = tmp_path / "bad.txt"
    bad_matrix.write_text("2 2\n1 2\n3\n", encoding="utf-8")
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 1\nx\n", encoding="utf-8")
    good = tmp_path / "good.txt"
    good.write_text("1 1\n5\n", encoding="utf-8")
    invocations = [
        [],
        ["frobnicate"],
        ["snf"],
        ["snf", "Q", str(good)],
        ["snf", "Z/", str(good)],
        ["snf", "Z", str(bad_matrix)],
        ["snf", "Z", str(ragged)],
        ["snf", "GF(9)[x]", str(good)],
        ["check", "Z/abc", "clean"],
        ["check", "Z/12", ""],
        ["diadem", "Z", "x", "y"],
        ["diadem", "Z/0", "1", "1"],
        ["witness", "Z", "1", "2", "zzz"],
        ["verify", "Z", str(good), "/does/not/exist"],
    ]
    for argv in invocations:
        code = main(argv, out=io.StringIO())
        assert code in (1, 2), argv


# Ring literals of the fuzz: small moduli only, since diadem on a finite ring
# still certifies exhaustively; junk uses no digits, so it never parses to a
# large ring.  The domains come three times, so snf and verify often run.
FUZZ_RINGS = ["Z", "GF(2)[x]", "GF(5)[x]"] * 3 + [
    "Z/12", "Z/7", "Z/4 x Z/3", "GF(3)[x]/(1,0,1)", "Z/0", "Z/1", "Q",
]
FUZZ_LITERALS = ["1,1", "0", "2,0,1", "(1|2)", "(0|0)", "-", "", "x", "1 2"]


def _junk(rnd):
    return "".join(rnd.choice("()[]/,|x GFZ-") for _ in range(rnd.randrange(9)))


def _fuzzed_literal(rnd):
    kind = rnd.randrange(3)
    if kind == 0:
        return str(rnd.randint(-30, 30))
    return rnd.choice(FUZZ_LITERALS) if kind == 1 else _junk(rnd)


def _fuzzed_matrix_text(rnd):
    if rnd.random() < 0.2:
        return "".join(rnd.choice("0123456789 -,x\n|()") for _ in range(rnd.randrange(30)))
    rows, cols = rnd.randrange(4), rnd.randrange(4)
    header = rnd.choice([f"{rows} {cols}"] * 8 + [f"{rows} {cols + 1}", f"{rows}", "-1 2", "x y"])
    # half the matrices hold only small integers, a literal of every carrier
    # but products
    entry = _fuzzed_literal if rnd.random() < 0.5 else lambda rnd: str(rnd.randint(-9, 9))
    body = [" ".join(entry(rnd) for _ in range(cols)) for _ in range(rows)]
    return "\n".join([header, *body]) + "\n"


def _fuzzed_invocation(rnd):
    """(argv, ring, matrix text, certificate text); {m} and {c} in argv name
    the files, and a certificate of None is the one snf prints for the
    matrix over the ring."""
    verb = rnd.choice(["snf", "check", "diadem", "witness", "verify", "frobnicate", "--help"])
    ring = _junk(rnd) if rnd.random() < 0.2 else rnd.choice(FUZZ_RINGS)
    argv = {
        "snf": ["snf", ring, "{m}"],
        "verify": ["verify", ring, "{m}", "{c}"],
        "check": ["check", ring, rnd.choice([p.value for p in CHECKERS] + ["all", "nope", ""])],
        "diadem": ["diadem", ring, "--", _fuzzed_literal(rnd), _fuzzed_literal(rnd)],
        "witness": ["witness", ring, "--", *(_fuzzed_literal(rnd) for _ in range(3))],
    }.get(verb, [verb])
    if rnd.random() < 0.2:
        argv = argv[: rnd.randrange(len(argv) + 1)]
    if rnd.random() < 0.2:
        argv[1:1] = ["--bound", rnd.choice([str(rnd.randint(-2, 2000)), _junk(rnd)])]
    certificate = rnd.choice([None, None, _fuzzed_matrix_text(rnd), _junk(rnd)])
    return argv, ring, _fuzzed_matrix_text(rnd), certificate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64))
def test_exit_codes_under_fuzzed_argv_and_files(seed):
    # 0, 1 or 2 on any argv and file contents, and never an internal error;
    # the draws come from a seeded Random, which spreads them far wider
    # than Hypothesis's own random source does over 200 examples
    argv, ring, matrix, certificate = _fuzzed_invocation(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"m": os.path.join(tmp, "m.txt"), "c": os.path.join(tmp, "c.txt")}
        Path(paths["m"]).write_text(matrix, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            if certificate is None:
                out = io.StringIO()
                main(["snf", ring, paths["m"]], out=out)
                certificate = out.getvalue()
            Path(paths["c"]).write_text(certificate, encoding="utf-8")
            argv = [a.format(**paths) if a in ("{m}", "{c}") else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv, out=io.StringIO())
    assert code in (0, 1, 2), argv
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())


def test_cli_import_leaves_decimal_out():
    # decimal serves only integers past the int/str digit limit
    script = "import sys, edrkit.cli\nprint('decimal' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


# standard modules that the package must not load: dataclasses imports
# inspect, and the two cost a CLI verb several milliseconds of start-up
HEAVY_STDLIB = {"dataclasses", "inspect"}


def _loaded_modules(argv, call="import edrkit"):
    """The edrkit submodules and HEAVY_STDLIB modules a fresh process holds
    after cli.main(argv), or after the statement call when argv is None."""
    if argv is not None:
        call = "import edrkit.cli; edrkit.cli.main(sys.argv[1:], out=io.StringIO())"
    script = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {call}\n"
        f"print(' '.join(sorted(m for m in sys.modules if m.startswith('edrkit.') or m in {HEAVY_STDLIB!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *(argv or [])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    # a process compiles every module it imports, so a verb must not pull in
    # the layers it never runs
    matrix, cert = tmp_path / "m.txt", tmp_path / "c.txt"
    matrix.write_text("2 2\n2 0\n0 3\n", encoding="utf-8")
    out = io.StringIO()
    assert main(["snf", "Z", str(matrix)], out=out) == 0
    cert.write_text(out.getvalue(), encoding="utf-8")
    ring_modules = {"edrkit.rings", "edrkit.polynomials"}
    # no verb may load dataclasses or inspect, unless the interpreter itself does
    heavy = HEAVY_STDLIB - _loaded_modules(None, call="pass")
    cases = [
        (["verify", "Z", str(matrix), str(cert)], {"edrkit.verification"},
         {"edrkit.reduction", "edrkit.finite_lab", "edrkit.polynomials"}),
        (["snf", "Z", str(matrix)], {"edrkit.reduction"}, {"edrkit.verification", "edrkit.polynomials"}),
        (["check", "Z/12", "all"], {"edrkit.finite_lab"},
         {"edrkit.matrices", "edrkit.reduction", "edrkit.verification", "edrkit.polynomials"}),
        (["diadem", "Z", "--", "7", "-5"], {"edrkit.finite_lab"}, {"edrkit.matrices", "edrkit.verification"}),
        (["witness", "Z", "--", "6", "10", "15"], {"edrkit.reduction"}, {"edrkit.verification"}),
        (["frobnicate"], set(), ring_modules),
        (["snf"], set(), ring_modules),
        (["snf", "GF(5)[x]", str(matrix)], {"edrkit.polynomials", "edrkit.reduction"}, {"edrkit.verification"}),
    ]
    for argv, loaded, left_out in cases:
        modules = _loaded_modules(argv)
        assert loaded <= modules, (argv, modules)
        assert not modules & (left_out | heavy), (argv, modules)
    assert _loaded_modules(None) == HEAVY_STDLIB - heavy


HELP = {
    "": """usage: edr-kit [-h] {snf,check,diadem,witness,verify} ...

Exact diagonal reduction and ring-property checking

positional arguments:
  {snf,check,diadem,witness,verify}
    snf                 diagonal reduction certificate for a matrix
    check               exhaustive property check on a finite ring
    diadem              diadem witness for a comaximal pair
    witness             stable-range-2 shortening of a comaximal triple
    verify              check a reduction certificate

options:
  -h, --help            show this help message and exit
""",
    "snf": """usage: edr-kit snf [-h] [--output OUTPUT] ring matrix

positional arguments:
  ring             ring literal (Z or GF(p)[x])
  matrix           path to a matrix file

options:
  -h, --help       show this help message and exit
  --output OUTPUT  write the certificate here instead of stdout
""",
    "check": """usage: edr-kit check [-h] [--bound BOUND] ring property

positional arguments:
  ring           finite ring literal
  property       property name or 'all': stable-range-1, stable-range-2,
                 idempotent-stable-range-1, clean, exchange, gelfand, hermite,
                 dyadic-range-1

options:
  -h, --help     show this help message and exit
  --bound BOUND  cardinality bound override (defaults: 50 pair-quantifier, 16
                 triple-quantifier)
""",
    "diadem": """usage: edr-kit diadem [-h] [--bound BOUND] ring a b

positional arguments:
  ring
  a
  b

options:
  -h, --help     show this help message and exit
  --bound BOUND  certify the quotient stable-range-1 evidence up to this
                 quotient size
""",
    "witness": """usage: edr-kit witness [-h] ring a b c

positional arguments:
  ring
  a
  b
  c

options:
  -h, --help  show this help message and exit
""",
    "verify": """usage: edr-kit verify [-h] ring matrix certificate

positional arguments:
  ring
  matrix       path to the matrix file
  certificate  path to the certificate file

options:
  -h, --help   show this help message and exit
""",
}


@pytest.mark.parametrize("verb", sorted(HELP))
def test_help_text(verb, capsys, monkeypatch):
    # argparse wraps at the terminal width, which COLUMNS fixes
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*([verb] if verb else []), "--help") == (0, "")
    assert capsys.readouterr() == (HELP[verb], "")


def test_help_and_defaults_follow_the_lab():
    # the parser is built without loading the lab, from the leaf module
    from edrkit.cli import build_parser
    from edrkit.finite_lab import DEFAULT_PAIR_BOUND

    assert "'all': " + ", ".join(p.value for p in CHECKERS) in " ".join(HELP["check"].split())
    args = build_parser().parse_args(["diadem", "Z", "1", "2"])
    assert args.bound == DEFAULT_PAIR_BOUND == 50


# the malformed argv shapes of perfbench's cli workload (perfbench/workloads.py)
MALFORMED_ARGV = [
    ["snf"],
    ["check", "Z/12", "no-such-property-7"],
    ["diadem", "Q", "7", "1"],
    ["witness", "Z", "1", "x7", "2"],
    ["frobnicate-7"],
    ["check", "Z/0", "all"],
    ["check", "Z/1", "all"],
]

CHECK_Z12_ALL = """# edr-kit v1
property=stable-range-1 ring=Z/12 holds=true checked=144
property=stable-range-2 ring=Z/12 holds=true checked=1728
property=idempotent-stable-range-1 ring=Z/12 holds=true checked=144
property=clean ring=Z/12 holds=true checked=12
property=exchange ring=Z/12 holds=true checked=144
property=gelfand ring=Z/12 holds=true checked=12
property=hermite ring=Z/12 holds=true checked=144
property=dyadic-range-1 ring=Z/12 holds=true checked=144
"""


def test_benchmark_cli_contract(capsys):
    # exit 2 and nothing on stdout for every malformed shape
    for argv in MALFORMED_ARGV:
        assert run_cli(*argv) == (2, ""), argv
        assert capsys.readouterr().out == "", argv
    assert run_cli("check", "Z/12", "all") == (0, CHECK_Z12_ALL)
    # over Z the diadem is a + b*t for the first t in 0, 1, -1, ... making it
    # nonzero; a unit is its own evidence, any other nonzero w has the finite
    # quotient Z/|w|, which has stable range 1
    rng = random.Random("cli-diadem")
    pairs = [(0, 1), (0, -1), (1, 0), (-1, 0), (60, -59), (-60, 1)]
    while len(pairs) < 40:
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if math.gcd(a, b) == 1:
            pairs.append((a, b))
    for a, b in pairs:
        t = 0 if a else 1
        w = a + b * t
        evidence = "trivial-unit" if abs(w) == 1 else "quotient-sr1"
        want = f"# edr-kit v1\nmultiplier={t} diadem={w} evidence={evidence}\n"
        assert run_cli("diadem", "Z", "--", str(a), str(b)) == (0, want), (a, b)


def test_zero_ring_literals_are_refused(capsys):
    # a unit modulus gives the zero ring, which has no literal on any carrier
    for spec in ("Z/1", "GF(2)[x]/(1)", "GF(5)[x]/(3)"):
        assert run_cli("check", spec, "all") == (2, ""), spec
        assert "modulus" in capsys.readouterr().err, spec


def test_a_modulus_coefficient_error_names_one_position(capsys):
    assert run_cli("check", "GF(5)[x]/(1,y)", "all") == (2, "")
    assert capsys.readouterr().err == "error: invalid coefficient 'y' (at position 10)\n"


def test_deeply_nested_ring_literals_are_parse_errors(capsys):
    literals = {
        "left chain": " x ".join(["Z/2"] * 3000),
        "parentheses": "(" * 3000 + "Z/2" + ")" * 3000,
        "right chain": "Z/2 x (" * 2999 + "Z/2" + ")" * 2999,
    }
    for shape, literal in literals.items():
        assert run_cli("check", literal, "clean") == (2, ""), shape
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err, shape


def test_byte_identical_reruns(matrix_file):
    first = run_cli("check", "Z/12", "all")
    second = run_cli("check", "Z/12", "all")
    assert first == second
    snf1 = run_cli("snf", "Z", matrix_file)
    snf2 = run_cli("snf", "Z", matrix_file)
    assert snf1 == snf2
