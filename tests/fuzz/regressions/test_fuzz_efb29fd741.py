"""Auto-generated fuzz regression (efb29fd741).

Emitted by the shrinker from a diverging fuzz case
(seed=139410902003, profile config hash af49d0ff9601f6f2).

Divergences observed at emission time:
* [retcon] oracle: 2 violations, first: [core 2 txn=fuzz] register-repair: reg=5 repaired=71776119061217336 replayed=56 sym=[0x1000.8]+4
* [hybrid-retcon] oracle: 2 violations, first: [core 2 txn=fuzz] register-repair: reg=5 repaired=71776119061217336 replayed=56 sym=[0x1000.8]+4

The embedded case re-runs differentially on ('retcon', 'hybrid-retcon') and the test
fails while any divergence reproduces.
"""

import json

from repro.fuzz.diff import run_case
from repro.fuzz.gen import FuzzCase

BACKENDS = ('retcon', 'hybrid-retcon')

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
 "seed": 139410902003,
 "threads": [
  [],
  [],
  [
   [
    [
     "br",
     "GE",
     6,
     8,
     2
    ]
   ],
   [
    [
     "paccum",
     0,
     5,
     4
    ],
    [
     "store",
     5,
     0,
     0,
     4
    ],
    [
     "rmw",
     0,
     4,
     5,
     4,
     0
    ]
   ]
  ],
  [
   [
    [
     "rmw",
     0,
     -1,
     1,
     1,
     6
    ]
   ]
  ]
 ]
}
""")


def test_fuzz_regression_efb29fd741():
    outcome = run_case(FuzzCase.from_dict(CASE), backends=BACKENDS)
    assert outcome.ok, "\n".join(str(d) for d in outcome.divergences)
