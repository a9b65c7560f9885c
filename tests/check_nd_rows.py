"""Check `flexk3 nd` or `flexk3 table` rows, JSON or csv on stdin, against math.comb.

    flexk3 nd -d 2000 --method schubert --format json | python tests/check_nd_rows.py 2000
    flexk3 table --from 1000 --to 1010 --format csv | python tests/check_nd_rows.py 1000 1010

The rows must hold d = FIRST..LAST in order (LAST defaults to FIRST).  In each,
every n_* cell must equal n_d = (2d+1) (C(2d, d)/(d+1))^2, n_sum_raw must equal
-n_d, and an agree cell must be true.  Exits 0 when all hold, else 1.  It imports
nothing from flexk3, and pytest does not collect it (no test_ prefix).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys


def main(argv: list[str]) -> int:
    sys.set_int_max_str_digits(0)  # n_16000 has 19,258 digits
    first, last = int(argv[0]), int(argv[-1])
    text = sys.stdin.read()
    is_json = text.lstrip().startswith("[")
    rows = json.loads(text) if is_json else list(csv.DictReader(io.StringIO(text)))
    if [int(row["d"]) for row in rows] != list(range(first, last + 1)):
        return 1
    for row in rows:
        d = int(row["d"])
        n_d = (2 * d + 1) * (math.comb(2 * d, d) // (d + 1)) ** 2
        columns = [column for column in row if column.startswith("n_")]
        want = {column: -n_d if column == "n_sum_raw" else n_d for column in columns}
        if not want or any(int(row[column]) != value for column, value in want.items()):
            return 1
        if row.get("agree", True) not in (True, "true"):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
