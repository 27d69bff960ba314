"""Auto-generated fuzz regression (fd8e6b9b29).

Emitted by the shrinker from a diverging fuzz case
(seed=1, profile config hash 1f3894a769f91d6b).

Divergences observed at emission time:
* [datm] stats: begins=41 != commits=4 + aborts=38

The embedded case re-runs differentially on ('datm',) and the test
fails while any divergence reproduces.
"""

import json

from repro.fuzz.diff import run_case
from repro.fuzz.gen import FuzzCase

BACKENDS = ('datm',)

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
    "nrmw",
    8
   ],
   [
    "load",
    12
   ],
   [
    "store",
    8
   ],
   [
    "storei",
    4
   ],
   [
    "op",
    12
   ],
   [
    "movi",
    6
   ],
   [
    "br",
    8
   ],
   [
    "cmpbcc",
    4
   ],
   [
    "pstore",
    3
   ],
   [
    "paccum",
    3
   ],
   [
    "work",
    2
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
  "shared_slots": 12,
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
  "zipf_skew": 1.1
 },
 "layout": {
  "private_base": 65536,
  "private_stride": 512,
  "shared_base": 4096,
  "slot_stride": 8
 },
 "nthreads": 4,
 "origin": "shrunk",
 "seed": 1,
 "threads": [
  [],
  [
   [
    [
     "rmw",
     2,
     -4,
     6,
     8,
     0
    ]
   ],
   [
    [
     "rmw",
     4,
     -4,
     4,
     8,
     0
    ]
   ]
  ],
  [
   [
    [
     "storei",
     -3,
     0,
     0,
     2
    ]
   ]
  ],
  [
   [
    [
     "rmw",
     6,
     -1,
     3,
     8,
     0
    ],
    [
     "rmw",
     0,
     -3,
     2,
     8,
     0
    ],
    [
     "cmpbcc",
     "GE",
     6,
     22,
     1
    ]
   ]
  ]
 ]
}
""")


def test_fuzz_regression_fd8e6b9b29():
    outcome = run_case(FuzzCase.from_dict(CASE), backends=BACKENDS)
    assert outcome.ok, "\n".join(str(d) for d in outcome.divergences)
