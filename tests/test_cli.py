import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from degeis import cli
from degeis.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_quasi(capsys):
    code, out, _ = run(capsys, "table", "--group", "2D4", "--parabolic", "Q",
                       "--point", "1/6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header + rule + 6 rows
    assert "w[1232]" in out and "xi_K(6s)" in out


def test_table_split_has_eight_rows(capsys):
    code, out, _ = run(capsys, "table", "--group", "D4", "--parabolic", "Q",
                       "--point", "1/6")
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_table_g2_borel_twelve_rows(capsys):
    code, out, _ = run(capsys, "table", "--group", "G2", "--parabolic", "borel",
                       "--point", "1/2")
    assert code == 0
    assert len(out.strip().splitlines()) == 14  # |W(G2)| = 12 rows


def test_poles_split_P(capsys):
    code, out, _ = run(capsys, "poles", "--group", "D4", "--parabolic", "P",
                       "--point", "3/10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "degeis/1"
    assert data["order"] == 2


def test_sw_output(capsys):
    code, out, _ = run(capsys, "sw", "--group", "2D4")
    assert code == 0
    assert "R/xi_F(2)" in out
    assert "5*xi_F(4)*xi_K(3)/(xi_F(3)*xi_K(2))" in out


def test_lfactor_trivial_chi(capsys):
    code, out, _ = run(capsys, "lfactor", "--source", "Vchi", "--chi", "trivial",
                       "--order-at", "2")
    assert code == 0
    assert "pole order at s=2: 2" in out


def test_tate_lattice(capsys):
    code, out, _ = run(capsys, "tate", "--function", "lattice:0", "--z", "2s+3")
    assert code == 0
    assert "zeta_v(2s+3)" in out


@pytest.mark.parametrize("function", ["lattice:0"])
@pytest.mark.parametrize("z", ["-1", "0"])
def test_tate_refuses_a_constant_z_outside_the_convergence_region(capsys, function, z):
    for fmt in ("md", "json"):
        code, out, err = run(capsys, "tate", "--function", function, f"--z={z}", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error[config-error]: z = {z} lies outside the convergence region Re(z) > 0\n"


@pytest.mark.parametrize("z", ["-1", "0", "2s+3"])
def test_tate_of_a_shell_converges_for_every_z(capsys, z):
    """A single shell integrates to X^k = q^(-kz), one term, whatever z is."""
    code, out, err = run(capsys, "tate", "--function", "shell:1", f"--z={z}")
    assert (code, err) == (0, "")
    assert out == f"q^(-({z}))    [all z]\n"
    code, out, err = run(capsys, "tate", "--function", "shell:1", f"--z={z}", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["convergence"] == payload["value"]["convergence"] == "all z"


def test_tate_at_a_constant_z_inside_the_convergence_region(capsys):
    code, out, err = run(capsys, "tate", "--function", "lattice:0", "--z", "1/2")
    assert (code, err) == (0, "")
    assert out == "(1) / (1 - q^(-(1/2)))    [Re(z) > 0]\n= zeta_v(1/2)\n"


def test_deterministic_output(capsys):
    argv = ("table", "--group", "2D4", "--parabolic", "Q", "--point", "1/6",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_config_error_exit_code(capsys):
    code, _, err = run(capsys, "table", "--group", "E8", "--point", "1/6")
    assert code == 1
    assert "unknown group" in err


def test_indeterminate_zero_region_exit_code(capsys):
    # a custom line whose zeta arguments land inside (0,1) at the point
    code, _, err = run(capsys, "table", "--group", "A1", "--parabolic", "borel",
                       "--line", "s", "--point", "1/3")
    assert code == 2
    assert "indeterminate-zero-region" in err
    code2, out, _ = run(capsys, "table", "--group", "A1", "--parabolic", "borel",
                        "--line", "s", "--point", "1/3", "--assume-no-real-zeros")
    assert code2 == 0


@pytest.mark.parametrize("command", ["sw", "sharp-check"])
def test_assume_no_real_zeros_is_a_usage_error_without_a_point(capsys, command):
    # sw and sharp-check evaluate no zeta order at a point, so they take no such flag
    code, _, err = run(capsys, command, "--group", "D4", "--assume-no-real-zeros")
    assert code == 1
    assert "unrecognized arguments: --assume-no-real-zeros" in err


def test_sharp_check_exit_zero(capsys):
    code, out, _ = run(capsys, "sharp-check", "--group", "3D4")
    assert code == 0
    assert "entireness" in out and "ok" in out


def test_bad_point_is_config_error(capsys):
    code, _, _ = run(capsys, "table", "--group", "2D4", "--parabolic", "Q",
                     "--point", "one sixth")
    assert code == 1


@pytest.mark.parametrize("argv,message", [
    (("table", "--group", "D4", "--point", "abc"),
     "error[config-error]: Invalid literal for Fraction: 'abc'\n"),
    (("poles", "--group", "D4", "--point", "1/0"),
     "error[config-error]: zero denominator in '1/0'\n"),
    (("table", "--group", "A1", "--line", "s/0", "--point", "1"),
     "error[config-error]: zero denominator in 's/0'\n"),
    (("table", "--group", "A1", "--line", "2s^2", "--point", "1"),
     "error[config-error]: cannot parse term '2s^2' in '2s^2'\n"),
    (("lfactor", "--source", "Vtau", "--order-at", "x"),
     "error[config-error]: Invalid literal for Fraction: 'x'\n"),
    (("tate", "--z", "2s^2"), "error[config-error]: cannot parse term '2s^2' in '2s^2'\n"),
    # a stray sign is a term of its own, not skipped
    (("tate", "--z", "2s++3"), "error[config-error]: cannot parse term '+' in '2s++3'\n"),
    (("tate", "--z", "-"), "error[config-error]: cannot parse term '-' in '-'\n"),
    (("table", "--group", "A1", "--line", "s+", "--point", "1"),
     "error[config-error]: cannot parse term '+' in 's+'\n"),
    (("tate", "--function", "lattice:x"),
     "error[config-error]: shell index must be an integer, got 'x' in 'lattice:x'\n"),
])
def test_malformed_numbers_are_config_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("argv,error", [
    # every group cancels at 0 and so does the first-order log term
    (("poles", "--group", "D4", "--parabolic", "borel", "--point=0"), "needs-higher-log-order"),
    # <lambda, alpha_2^vee> = -1 identically: J(w[2]) = xi(-1)/xi(0) = xi(2)/xi(1),
    # and xi(1) cannot be expanded in s
    (("table", "--group", "D4", "--line", "s,-1,0,0", "--point", "1"), "hyperplane-degeneracy"),
])
def test_mathematical_limits_exit_four(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith(f"error[{error}]: ")


def test_internal_errors_are_not_reported_as_config_errors(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("an internal bug")
    monkeypatch.setattr(cli, "constant_term", broken)
    with pytest.raises(ValueError, match="an internal bug"):
        main(["table", "--group", "D4", "--point", "1"])


def test_custom_line_with_a_mistyped_parameter_is_refused(capsys):
    code, out, err = run(capsys, "table", "--group", "D4", "--parabolic", "P",
                         "--line", "1e5s,0,0,0", "--point", "1")
    assert code == 1
    assert out == ""
    assert "config-error" in err and "e5s" in err


def test_custom_line_with_two_parameters_is_refused(capsys):
    code, _, err = run(capsys, "table", "--group", "D4", "--parabolic", "P",
                       "--line", "s,t,0,0", "--point", "1")
    assert code == 1
    assert "config-error" in err and "'t'" in err


# -- a line must belong to the parabolic ----------------------------------------

def _levi_rule(i, c, parabolic, levi):
    return (f"error[config-error]: line coordinate {i} is {c}: on parabolic {parabolic} the "
            f"Levi coordinates {levi} must be all -1 (chi) or all +1 (mu)\n")


@pytest.mark.parametrize("argv,message", [
    # 2s, 3 and 0 at alpha_1, alpha_3, alpha_4: no degenerate series of P has this line
    (("poles", "--group", "D4", "--parabolic", "P", "--line", "2s,s,3,0", "--point", "1"),
     _levi_rule(1, "2s", "P", [1, 3, 4])),
    (("table", "--group", "D4", "--parabolic", "P", "--line=-1,s,1,-1", "--point", "1"),
     _levi_rule(3, "1", "P", [1, 3, 4])),
    (("table", "--group", "2D4", "--parabolic", "Q", "--line", "s,-1,0", "--point", "1"),
     _levi_rule(3, "0", "Q", [2, 3])),
    # a named line on another parabolic (hyperplane-degeneracy, exit 4, before the rule)
    (("poles", "--group", "D4", "--parabolic", "P", "--line", "chiQ", "--point", "1"),
     _levi_rule(1, "6s+2", "P", [1, 3, 4])),
    (("poles", "--group", "2D4", "--parabolic", "Q", "--line", "muP", "--point", "1"),
     _levi_rule(2, "5s-3/2", "Q", [2, 3])),
    (("table", "--group", "D4", "--parabolic", "Q", "--line", "kappa", "--point", "1"),
     _levi_rule(2, "6s-1", "Q", [2, 3, 4])),
])
def test_a_line_off_the_parabolic_is_a_config_error(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize("group,parabolic", [
    ("D4", "P"), ("D4", "Q"), ("2D4", "P"), ("2D4", "Q"), ("3D4", "P")])
def test_the_lines_of_a_parabolic_pass_the_rule(capsys, group, parabolic):
    for line in (None, "chi" + parabolic, "mu" + parabolic):
        argv = ["poles", "--group", group, "--parabolic", parabolic, "--point", "1/2"]
        code, out, err = run(capsys, *argv, *(() if line is None else ("--line", line)))
        assert (code, err) == (0, ""), line
        assert out.startswith("pole order at 1/2: ")


@pytest.mark.parametrize("line", ["1,s,1,1", "2s,s,3,0"])
def test_custom_lines_that_pass_the_rule(capsys, line):
    # a mu-type line on P, and any line on borel
    parabolic = "P" if line.startswith("1,") else "borel"
    code, out, err = run(capsys, "poles", "--group", "D4", "--parabolic", parabolic,
                         "--line", line, "--point", "1")
    assert (code, err) == (0, "")
    assert out.startswith("pole order at 1: ")


# -- one parser per process ----------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_help_twice_in_one_process(capsys):
    first = run(capsys, "--help")
    assert first[0] == 0 and first[1].startswith("usage: degeis")
    assert run(capsys, "--help") == first


def test_usage_error_then_valid_command(capsys):
    code, out, err = run(capsys, "table", "--group", "D4")
    assert (code, out) == (1, "")
    assert "the following arguments are required: --point" in err
    code, out, err = run(capsys, *"poles --group G2 --parabolic borel --point 1/2".split())
    assert (code, out, err) == (0, (GOLDEN / "poles_G2_borel_1-2.txt").read_text(), "")


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_main_builds_the_top_level_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "degeis":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        for argv in (["sw", "--group", "2D4"], ["--help"], ["table", "--group", "D4"],
                     ["tate", "--format", "json"]):
            run(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import degeis.cli as c; "
            "print(c._parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


@pytest.mark.parametrize("argv,first", [
    # the reader leaves after one line, and the rest of the 467 KB does not fit the pipe
    (["table", "--group", "D4", "--parabolic", "borel", "--point=1/2", "--format", "json"],
     b"{\n"),
    # the reader leaves first, and the short table is still buffered when main returns
    (["table", "--group", "G2", "--parabolic", "borel", "--point=1/2"], None),
])
def test_a_closed_stdout_exits_quietly(argv, first):
    """`degeis ... | head -1`: no traceback, neither in main nor at interpreter exit."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = "import sys; sys.path.insert(0, sys.argv.pop(1)); from degeis.cli import main; " \
           "sys.exit(main())"
    # stdout block-buffered, as in a shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-c", code, src, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if first is not None:
        assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (cli.EXIT_CLOSED_STDOUT, b"")
