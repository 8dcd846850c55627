"""Fuzzing of the command line: any argv built from the five commands and a
pool of awkward values ends in a documented exit code, never in a
traceback."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tetrablock.cli import main

EXIT_CODES = {0, 1, 2, 64, 65, 70, 74}

#: stands for a fresh output path inside a temporary directory
OUT = "<out>"

NUMBERS = ["nan", "inf", "-inf", "-1", "0", "0.1", "0.25", "0.5", "0.9", "2",
           "1e-3", "1e999", "1e155", "1.7e308", "1e-320", "abc", "", "0.1+0.2i", "i"]
INTEGERS = ["-3", "-1", "0", "1", "2", "3", "nan", "1.5", "x"]
POINTS = ["0,0,0", "0.1,0.05,0.02", "0.12,0.07,0.03", "0,0,-0.5",
          "0,0.05,-0.5", "0.2,0,-0.3", "0.3,0.2,0.06", "1,0,0", "2,0,0",
          "0,0,1e155", "nan,0,0", "0.1,0.1", "a,b,c", "", "0.49j,1e-160,0",
          "-1e-16j,1e-160,0", "0.3,1e-320j,1e-320-0.3j", "1e-08,-0.49,1e-8j"]
PHIS = ["id", "const:0.5", "const:-0.4", "const:nan", "auto:0.5",
        "auto:0.5,i", "auto:2", "blaschke:1|0.9|0.5;-0.2", "blaschke:1|abc|0.5",
        "blaschke:1|0.9", "bogus"]

numbers = st.sampled_from(NUMBERS)
integers = st.sampled_from(INTEGERS)


def option(flag, values):
    """Either nothing or ``[flag, value]``."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def flags(*options):
    return st.tuples(*options).map(lambda parts: [x for part in parts for x in part])


member = st.tuples(
    st.sampled_from(["tetrablock", "g2", "bogus"]),
    st.sampled_from([[], ["--"]]),
    st.lists(numbers, min_size=0, max_size=4),
    flags(option("--tol", numbers), option("--json", st.just(None))),
).map(lambda t: ["member", t[0], *t[3], *t[1], *t[2]])

# --budget and --lower-families are gone, and so usage errors
distance = st.tuples(
    st.sampled_from(POINTS), st.sampled_from(POINTS),
    flags(option("--budget", st.sampled_from(["-1", "0", "50", "nan"])),
          option("--lower-families", st.sampled_from(["psi-omega", "bogus", ""])),
          option("--json", st.just(None))),
).map(lambda t: ["distance", *t[2], "--", t[0], t[1]])

geodesic = st.tuples(
    st.sampled_from(["eval", "verify", "solve", "bogus"]),
    flags(option("--domain", st.sampled_from(["tetrablock", "g2", "bogus"])),
          option("--C", numbers), option("--phi", st.sampled_from(PHIS)),
          option("--psi", st.sampled_from(PHIS)),
          option("--omega1", numbers), option("--omega2", numbers),
          option("--omega", numbers), option("--lambda", numbers),
          option("--samples", st.sampled_from(["-3", "0", "1", "16", "64", "nan"])),
          option("--point", st.sampled_from(POINTS)), option("--lambda0", numbers),
          option("--json", st.just(None))),
).map(lambda t: ["geodesic", t[0], *t[1]])

verify = flags(
    option("--suite", st.sampled_from(["separation", "lempert", "rho", "bogus"])),
    option("--seed", integers), option("--json", st.just(None)),
).map(lambda rest: ["verify", "--suite", "separation", *rest])

sweep = st.tuples(
    st.sampled_from(["separation", "lempert", "bogus"]),
    flags(option("--c-min", numbers), option("--c-max", numbers),
          option("--c-step", st.sampled_from(["nan", "inf", "-1", "0", "0.1",
                                              "0.25", "0.5", "2", "abc"])),
          option("--lam", numbers), option("--grid-n", integers),
          option("--format", st.sampled_from(["csv", "jsonl", "bogus"]))),
).map(lambda t: ["sweep", t[0], "--out", OUT, *t[1]])

argvs = st.one_of(member, distance, geodesic, verify, sweep)


def strip_none(argv):
    """``option("--json", just(None))`` yields a bare flag."""
    return [a for a in argv if a is not None]


@given(argvs)
@example(["sweep", "separation", "--out", OUT, "--c-min", "nan"])
@example(["sweep", "separation", "--out", OUT, "--c-max", "inf"])
@example(["sweep", "lempert", "--out", OUT, "--grid-n", "-3"])
@example(["member", "tetrablock", "--tol", "nan", "0", "0.3", "0.5"])
@example(["verify", "--suite", "separation", "--seed", "-1"])
@example(["member", "tetrablock", "0", "0", "1e155"])
@example(["member", "tetrablock", "0.5", "0", "1.7e308"])
@example(["member", "tetrablock", "0.5", "1.7e308", "1.7e308"])
@example(["geodesic", "eval", "--C", "0.2", "--phi", "const:0.3", "--psi", "id",
          "--lambda", "3"])
@example(["distance", "--", "0.49j,1e-160,0", "-1e-16j,1e-160,0"])
@example(["distance", "--", "0.3,1e-320j,1e-320-0.3j", "1e-08,-0.49,1e-8j"])
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_argv_ends_in_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "sweep.out")
        args = [out if a == OUT else a for a in strip_none(argv)]
        code = main(args)
    assert code in EXIT_CODES, (args, code)
