"""Developer tooling shipped with the library.

:mod:`repro.tools.gates` runs the two paired performance gates (streaming
ledger overhead, multi-batch sweep gain); :mod:`repro.tools.sweep_smoke`
checks that parallel, serial and cached sweeps are byte-identical.
"""
