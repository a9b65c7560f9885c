"""Write refs.json, the Yau-Zaslow reference data the benchmark checks against.

    python3 bench/make_refs.py

For n = 0..SERIES_N it stores the first 16 hex digits of the SHA-256 of
the decimal a(n), the coefficient of q^n in prod (1 - q^n)^(-24); for
each d in the yz_multiple range it stores math.log(a(d+1)).  The
coefficients come from the package's sigma recurrence, and the script
refuses to write anything unless the independent truncated-product
oracle gives the same coefficients over the whole range and a(1..3) are
the known 24, 324, 3200.  n_d needs no stored data: the checks compute
it from math.comb.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from flexk3 import euler_power_neg24, euler_power_neg24_by_product  # noqa: E402


def main() -> int:
    n_max = workloads.SERIES_N
    series = list(euler_power_neg24(n_max))
    if series != list(euler_power_neg24_by_product(n_max)):
        raise SystemExit("sigma recurrence and product oracle disagree")
    if series[:4] != [1, 24, 324, 3200]:
        raise SystemExit(f"unexpected leading coefficients {series[:4]}")
    lo, hi = workloads.QUERY_ROUTES["yz_multiple"]
    refs = {
        "made_by": (
            f"bench/make_refs.py: sigma recurrence to q^{n_max}, equal to the "
            "truncated-product oracle over the whole range"
        ),
        "yz_sha16": [workloads.References.digest(a) for a in series],
        "yz_log": {str(d): math.log(series[d + 1]) for d in range(lo, hi + 1)},
    }
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
