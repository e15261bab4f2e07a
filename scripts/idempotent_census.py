#!/usr/bin/env python3
"""Exhaustively count idempotents of small split spin factors and covers
over prime fields and compare against the classification formula:
3 + 2N for the split algebra, 1 + N for the cover, where N is the number
of norm-one vectors.

    python scripts/idempotent_census.py --primes 5,7,11 --dims 1,2
"""

import argparse

from splitspin import (
    Field,
    Matrix,
    QuadraticSpace,
    classify_idempotents,
    enumerate_idempotents_bruteforce,
    exceptional_cover,
    split_spin,
)
from splitspin.two_gen import default_two_gen_alpha


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default="5,7,11,13")
    parser.add_argument("--dims", default="1,2")
    parser.add_argument("--budget", type=int, default=1_000_000)
    return parser.parse_args()


def main():
    args = parse_args()
    primes = [int(p) for p in args.primes.split(",")]
    dims = [int(d) for d in args.dims.split(",")]
    print(f"{'field':>8} {'dim E':>6} {'kind':>10} {'N':>5} {'found':>6} {'formula':>8} {'other':>6}")
    for p in primes:
        field = Field.prime(p)
        for dim in dims:
            if p ** (dim + 2) > args.budget:
                continue
            space = QuadraticSpace(Matrix.identity(field, dim))
            n_count = len(space.find_norm_one().vectors)
            for kind, algebra, formula in (
                ("split", split_spin(space, default_two_gen_alpha(field)), 3 + 2 * n_count),
                ("cover", exceptional_cover(space), 1 + n_count),
            ):
                if kind == "cover" and p == 3:
                    continue
                found = enumerate_idempotents_bruteforce(algebra, args.budget)
                other = sum(1 for verdict in classify_idempotents(algebra, found) if verdict.tag == "other")
                flag = "" if len(found) == formula and other == 0 else "  MISMATCH"
                print(
                    f"{field!r:>8} {dim:>6} {kind:>10} {n_count:>5} "
                    f"{len(found):>6} {formula:>8} {other:>6}{flag}"
                )


if __name__ == "__main__":
    main()
