"""Auto-generated fuzz regression (653bc07991).

Emitted by the shrinker from a diverging fuzz case
(seed=121751464000, profile config hash af49d0ff9601f6f2).

Divergences observed at emission time:
* [lazy-vb] oracle: 1 violations, first: [core 0 txn=fuzz] register-final: committed=281466386776119 reg=5 replayed=55

The embedded case re-runs differentially on ('lazy-vb',) and the test
fails while any divergence reproduces.
"""

import json

from repro.fuzz.diff import run_case
from repro.fuzz.gen import FuzzCase

BACKENDS = ('lazy-vb',)

CASE = json.loads(r"""
{
 "config": {
  "commutative": false,
  "init_max": 64,
  "kind_weights": [
   [
    "rmw",
    30
   ],
   [
    "load",
    10
   ],
   [
    "br",
    25
   ],
   [
    "cmpbcc",
    15
   ],
   [
    "op",
    10
   ],
   [
    "paccum",
    5
   ],
   [
    "store",
    5
   ]
  ],
  "max_genes": 10,
  "min_genes": 2,
  "op_weights": [
   [
    "add",
    40
   ],
   [
    "sub",
    30
   ],
   [
    "mul",
    20
   ],
   [
    "div",
    10
   ]
  ],
  "private_words": 8,
  "shared_slots": 6,
  "size_weights": [
   [
    8,
    55
   ],
   [
    4,
    20
   ],
   [
    2,
    15
   ],
   [
    1,
    10
   ]
  ],
  "slot_stride": 8,
  "txns_per_thread": 4,
  "work_between": 4,
  "zipf_skew": 1.4
 },
 "layout": {
  "private_base": 65536,
  "private_stride": 512,
  "shared_base": 4096,
  "slot_stride": 8
 },
 "nthreads": 4,
 "origin": "shrunk",
 "seed": 121751464000,
 "threads": [
  [
   [
    [
     "load",
     6,
     0,
     0,
     8
    ],
    [
     "store",
     6,
     0,
     4,
     4
    ],
    [
     "load",
     5,
     0,
     4,
     4
    ]
   ]
  ],
  [],
  [],
  [
   [
    [
     "op",
     "sub",
     1,
     2,
     "i",
     3
    ],
    [
     "rmw",
     0,
     -2,
     3,
     2,
     4
    ]
   ]
  ]
 ]
}
""")


def test_fuzz_regression_653bc07991():
    outcome = run_case(FuzzCase.from_dict(CASE), backends=BACKENDS)
    assert outcome.ok, "\n".join(str(d) for d in outcome.divergences)
