"""Golden bytes of the report files.

Every report file must stay byte-identical across seeded reruns and
across refactors of the writers, so these tests pin the exact bytes of
one mixed report, of a report with no columns and of a 3-row operator
output.  The mixed report covers Python and numpy booleans and ints, the
floats 0.1, -0.0, 1e-300, nan and inf, and a string column.
"""

import json

import numpy as np

from cauchylab import BoundReport, write_report
from cauchylab.cli import main

MIXED_CSV = """\
# check: a <= b
# inf: inf
# nan: nan
# neg_zero: -0.0
# note: text
# np_bool: 0
# np_float: 2.5
# np_int: -3
# py_bool: 1
# py_int: 7
# tenth: 0.1
# tiny: 1e-300
flag,count,value,edge,label,pass
1,1,0.1,nan,a,1
0,-2,-0.0,inf,b,1
1,3,1e-300,-inf,c d,0
"""

MIXED_JSON = """\
{
 "check": "a <= b",
 "columns": {
  "count": [
   1,
   -2,
   3
  ],
  "edge": [
   NaN,
   Infinity,
   -Infinity
  ],
  "flag": [
   true,
   false,
   true
  ],
  "label": [
   "a",
   "b",
   "c d"
  ],
  "pass": [
   true,
   true,
   false
  ],
  "value": [
   0.1,
   -0.0,
   1e-300
  ]
 },
 "extras": {
  "inf": Infinity,
  "nan": NaN,
  "neg_zero": -0.0,
  "note": "text",
  "np_bool": false,
  "np_float": 2.5,
  "np_int": -3,
  "py_bool": true,
  "py_int": 7,
  "tenth": 0.1,
  "tiny": 1e-300
 },
 "n_rows": 3,
 "n_violations": 1,
 "passed": false
}
"""

OUTPUT_CSV = """\
x,re,im
-0.5,2.6666666666666665,0.0
0.5,0.0,0.0
1.5,-2.6666666666666665,0.0
"""

SUMMARY_CSV = """\
# check: operator output on the declared window (informational)
# output_norm_p2: 3.7712361663282534
# output_points: 3
# step: 1.0

"""

SUMMARY_JSON = """\
{
 "check": "operator output on the declared window (informational)",
 "columns": {},
 "extras": {
  "output_norm_p2": 3.7712361663282534,
  "output_points": 3,
  "step": 1.0
 },
 "n_rows": 0,
 "n_violations": 0,
 "passed": true
}
"""


def read_bytes(path):
    with open(path, newline="") as fh:
        return fh.read()


def test_mixed_report_bytes(tmp_path):
    rep = BoundReport(
        "a <= b",
        {"flag": np.array([True, False, True]),
         "count": np.array([1, -2, 3]),
         "value": np.array([0.1, -0.0, 1e-300]),
         "edge": np.array([np.nan, np.inf, -np.inf]),
         "label": np.array(["a", "b", "c d"]),
         "pass": [True, True, False]},
        {"py_bool": True, "np_bool": np.bool_(False), "py_int": 7, "np_int": np.int64(-3),
         "tenth": 0.1, "neg_zero": -0.0, "tiny": 1e-300, "nan": float("nan"),
         "inf": float("inf"), "np_float": np.float64(2.5), "note": "text"},
    )
    write_report(rep, tmp_path, "mixed")
    assert read_bytes(tmp_path / "mixed.csv") == MIXED_CSV
    assert read_bytes(tmp_path / "mixed.json") == MIXED_JSON


def test_operator_output_and_empty_summary_bytes(tmp_path):
    # Two nodes at 0 and 1 with value 1 and the midpoints -0.5, 0.5, 1.5:
    # each output is a sum of two exact reciprocals on a flat graph.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"origin": 0.0, "step": 1.0, "count": 2},
        "input": {"kind": "constant", "params": {"value": 1.0}},
        "window": {"center": 0.5, "radius": 1.1},
    }))
    out = tmp_path / "out"
    assert main(["eval-operator", "--config", str(config), "--out-dir", str(out)]) == 0
    assert read_bytes(out / "operator_output.csv") == OUTPUT_CSV
    assert read_bytes(out / "operator_summary.csv") == SUMMARY_CSV
    assert read_bytes(out / "operator_summary.json") == SUMMARY_JSON
