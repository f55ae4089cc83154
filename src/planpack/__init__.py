"""Online deadline packet scheduling with exact golden-ratio arithmetic.

Library layout:

- :mod:`planpack.golden` : arithmetic over Q[phi], tie-broken weights,
  integer weight scaling
- :mod:`planpack.model` : packets, instances, validation, file I/O
- :mod:`planpack.generators` : deterministic instance families
- :mod:`planpack.plan` : the plan (max-weight feasible subset) engine
- :mod:`planpack.schedulers` : the plan-following online scheduler and
  the greedy baseline, plus the replayable run loop
- :mod:`planpack.offline` : exact offline optimum and brute-force oracle
- :mod:`planpack.trace_io` : run-trace files, read in the units of the
  run's instance
- :mod:`planpack.verifier` : event-by-event replay of the amortized
  accounting (timetable, backup plan, potential) in exact arithmetic
- :mod:`planpack.cli` : command-line front end
"""
