"""Golden CLI corpus: stdout, stderr and exit code of every command in
cli_golden.json must stay byte-identical.

The corpus covers every subcommand over Q and F_p, the split spin algebra
and its cover, `build` with Fraction structure constants over Q (which pin
the Scalar view of the stored integer cells), a Jordan-special alpha (exit
1), `idempotents` at dim E 3-4 over F_5 and F_7 (also on a degenerate form
and in text format), family
members where the scan is out of budget (the cover over Q, split spin over
F_101), config errors (exit 2), small axet sweeps, `axis-check` and `cover`
at dim E 6-8 over Q (with Fraction alpha and Gram entries) and over
F_10007, and `axis-check` and `cover` at dim E 10 and `frobenius` and
`radical` at dim E 11-12 over Q, where integer entry growth in elimination
would show.  `frobenius` also runs where the form's E-block vanishes
(alpha = -1), on degenerate Grams over F_10007, and on a Gram that is
singular modulo 2^61 - 1 but regular over Q.  Over Q every Gram matrix has a norm-one basis vector, so the
sampled norm-one search ends quickly.

Regenerate the expected outputs (only when a report is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate
"""

import contextlib
import io
import json
import pathlib
import sys
from fractions import Fraction

import pytest

from splitspin.cli import main

CORPUS = pathlib.Path(__file__).with_name("cli_golden.json")

I2 = '[["1","0"],["0","1"]]'
DIAG12 = '[["1","0"],["0","2"]]'
F7_FORM = '[["1","2"],["2","3"]]'
Q3 = '[["1","1/2","0"],["1/2","2","1"],["0","1","-3"]]'
DEGENERATE = '[["1","1"],["1","1"]]'
I3 = '[["1","0","0"],["0","1","0"],["0","0","1"]]'
F7_3 = '[["1","2","0"],["2","3","1"],["0","1","5"]]'
F5_4 = '[["2","1","0","0"],["1","1","0","0"],["0","0","3","0"],["0","0","0","1"]]'
# dim E 6-8: Fraction entries over Q, dense residues over F_10007
Q6 = ('[["1","1/2","0","0","0","1/3"],["1/2","2","1/3","0","0","0"],["0","1/3","-3/2","1","0","0"],'
      '["0","0","1","5/4","-1/2","0"],["0","0","0","-1/2","3","2/5"],["1/3","0","0","0","2/5","-2"]]')
Q7 = json.dumps([[["1", "1/4", "4/9", "1", "9/4", "1/9", "1"][i] if i == j else "1/3" if abs(i - j) == 2 else "0"
                  for j in range(7)] for i in range(7)])
Q8 = json.dumps([["1" if i == j else "1/2" if abs(i - j) == 1 else "0" for j in range(8)] for i in range(8)])
F6 = json.dumps([["1" if i == j else str((2 * i * j + 1) % 13) for j in range(6)] for i in range(6)])
F8 = json.dumps([[str(1 + i * i) if i == j else str(3 * (i + j) + 7 * i * j) for j in range(8)] for i in range(8)])
# dim E 10-12 over Q: square diagonal entries and Fraction off-diagonals; QD12 appends
# the coordinate e1 + e3 to Q11, so its form is degenerate with a one-dimensional radical
SQUARES = [Fraction(x) for x in ("1", "1/4", "4/9", "9/4", "1/9", "4", "9/16", "16/25", "25/4", "1/16", "36/49")]


def _q_gram(n):
    return [[SQUARES[i] if i == j else Fraction(1, i + j + 2) if abs(i - j) == 1
             else Fraction(-2, i + j + 3) if abs(i - j) == 3 else Fraction(0) for j in range(n)] for i in range(n)]


def _degenerate_extension(g):
    ext = [a + b for a, b in zip(g[0], g[2])]
    return [row + [e] for row, e in zip(g, ext)] + [ext + [ext[0] + ext[2]]]


def _gram_json(g):
    return json.dumps([[str(a) for a in row] for row in g])


Q10, Q11, QD12 = _gram_json(_q_gram(10)), _gram_json(_q_gram(11)), _gram_json(_degenerate_extension(_q_gram(11)))
# dim E 9: a Fraction Gram over Q, dense residues over F_10007; QD5 is degenerate with
# Fraction entries, so an axis's coordinates have denominators other than the cells' D
Q9, QD5 = _gram_json(_q_gram(9)), _gram_json(_degenerate_extension(_q_gram(4)))
F9 = json.dumps([[str(1 + i * i) if i == j else str(3 * (i + j) + 7 * i * j) for j in range(9)] for i in range(9)])
# FD5: an integer Gram with the degenerate extension, read over F_10007; P61 is regular over Q
# but singular modulo the prime 2^61 - 1 that certifies full rank
FD5 = _gram_json(_degenerate_extension([[Fraction(1 + i * i if i == j else 3 * (i + j) + 7 * i * j)
                                         for j in range(4)] for i in range(4)]))
P61 = '[["2305843009213693951","0"],["0","1"]]'

COMMANDS = [
    # build
    ["build", "--alpha", "3", "--gram", I2],
    ["build", "--p", "7", "--alpha", "3", "--gram", F7_FORM, "--format", "text"],
    ["build", "--variant", "cover", "--gram", DIAG12],
    # Fraction constants over Q
    ["build", "--alpha=-2/5", "--gram", Q3],
    ["build", "--variant", "cover", "--gram", Q3],
    # idempotents
    ["idempotents", "--p", "5", "--gram", "[[1]]", "--alpha", "2"],
    ["idempotents", "--p", "7", "--variant", "cover", "--gram", "[[1]]"],
    ["idempotents", "--alpha", "3", "--gram", I2],
    ["idempotents", "--p", "5", "--alpha", "3", "--gram", I2],
    # idempotents at dim E 3-4, a Jordan-special alpha, a degenerate form, text
    ["idempotents", "--p", "5", "--alpha", "2", "--gram", I3],
    ["idempotents", "--p", "7", "--alpha", "3", "--gram", F7_3],
    ["idempotents", "--p", "7", "--variant", "cover", "--gram", F7_3],
    ["idempotents", "--p", "5", "--alpha", "4", "--gram", F5_4],
    ["idempotents", "--p", "5", "--variant", "cover", "--gram", F5_4],
    ["idempotents", "--p", "7", "--alpha", "4", "--gram", F7_FORM],
    ["idempotents", "--p", "7", "--alpha", "3", "--gram", DEGENERATE],
    ["idempotents", "--p", "5", "--variant", "cover", "--gram", DEGENERATE],
    ["idempotents", "--p", "5", "--alpha", "2", "--gram", DIAG12, "--format", "text"],
    # family members from norm-one witnesses where the scan is out of budget
    ["idempotents", "--variant", "cover", "--gram", I2],
    ["idempotents", "--p", "101", "--alpha", "3", "--gram", "[[1]]"],
    # axis-check
    ["axis-check", "--alpha", "3", "--gram", I2],
    ["axis-check", "--alpha=-2/5", "--gram", Q3],
    ["axis-check", "--p", "7", "--alpha", "3", "--gram", F7_FORM],
    ["axis-check", "--p", "11", "--variant", "cover", "--gram", F7_FORM],
    ["axis-check", "--variant", "cover", "--gram", DIAG12],
    ["axis-check", "--alpha", "1/2", "--gram", I2],
    ["axis-check", "--alpha", "5/3", "--gram", Q6],
    ["axis-check", "--alpha=-3/2", "--gram", Q8],
    ["axis-check", "--p", "10007", "--alpha", "5/3", "--gram", F8],
    ["axis-check", "--alpha", "5/3", "--gram", Q10],
    ["axis-check", "--alpha=-3/2", "--gram", Q10],
    ["axis-check", "--alpha", "7/11", "--gram", QD5],
    ["axis-check", "--alpha", "5/3", "--p", "10007", "--gram", F9],
    # frobenius
    ["frobenius", "--alpha", "2/3", "--gram", Q3],
    ["frobenius", "--p", "7", "--alpha", "5", "--gram", F7_FORM],
    ["frobenius", "--variant", "cover", "--gram", DIAG12],
    ["frobenius", "--alpha", "5/3", "--gram", Q11],
    ["frobenius", "--alpha=-3/2", "--gram", QD12],
    # e_scale = 0 (all of E radical), degenerate Grams over F_10007, a full-rank certificate that must fall back
    ["frobenius", "--alpha=-1", "--gram", Q3],
    ["frobenius", "--alpha", "2", "--p", "10007", "--gram", FD5],
    ["frobenius", "--variant", "cover", "--p", "10007", "--gram", FD5],
    ["frobenius", "--alpha", "3", "--gram", P61],
    # radical
    ["radical", "--alpha", "3", "--gram", DEGENERATE],
    ["radical", "--alpha=-1", "--gram", I2],
    ["radical", "--p", "7", "--alpha", "2", "--gram", F7_FORM],
    ["radical", "--p", "7", "--variant", "cover", "--gram", DEGENERATE],
    ["radical", "--alpha", "5/3", "--gram", QD12],
    ["radical", "--alpha=-3/2", "--gram", Q11],
    # simple
    ["simple", "--alpha", "3", "--gram", I2],
    ["simple", "--p", "7", "--alpha", "3", "--gram", DEGENERATE],
    # yabe
    ["yabe", "--mu", "1/3", "--alpha", "3"],
    ["yabe", "--p", "11", "--mu", "2", "--variant", "cover"],
    ["yabe", "--p", "11", "--mu", "2", "--alpha", "3"],
    ["yabe", "--mu", "1", "--alpha", "3"],
    # axet
    ["axet", "--p", "7", "--mu", "1"],
    ["axet", "--p", "13", "--mu", "0,1,2,3,4,5,6,7,8,9,10,11,12", "--alpha", "3"],
    ["axet", "--p", "11", "--mu", "0,2,5,10", "--variant", "cover"],
    ["axet", "--mu=-1,-1/2,0,1/2,1,2", "--alpha", "3"],
    ["axet", "--p", "101", "--mu", "6", "--format", "text"],
    # cover
    ["cover", "--gram", DIAG12],
    ["cover", "--p", "7", "--gram", F7_FORM],
    ["cover", "--gram", Q7],
    ["cover", "--p", "10007", "--gram", F6],
    ["cover", "--gram", Q10],
    ["cover", "--format", "json", "--gram", Q9],
    # selftest
    ["selftest", "--only", "1"],
    ["selftest", "--only", "99"],
    # config errors
    ["build", "--gram", "[[1]]"],
    ["build", "--alpha", "3", "--gram", "[[1,"],
    ["axet", "--p", "7"],
    ["axet", "--mu=,", "--p", "7"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def expected():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_matches_command_list(expected):
    assert [entry["argv"] for entry in expected] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=lambda i: " ".join(COMMANDS[i])[:60])
def test_cli_output_is_unchanged(expected, index):
    assert run(COMMANDS[index]) == expected[index]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_cli_golden.py --regenerate")
    corpus = [run(argv) for argv in COMMANDS]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} commands to {CORPUS}")
