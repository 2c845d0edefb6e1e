"""Core modules of the SCOPe reproduction.

- :mod:`repro.core.cost_model` — Azure tier cost/latency parameters and the one
  cost formula (:func:`~repro.core.cost_model.cost_terms`).
- :mod:`repro.core.optassign` — tier + compression assignment: candidate frame,
  greedy core and capacity repair, in pandas.
- :mod:`repro.core.matching` — Hungarian matching for the equal-size special case.
- :mod:`repro.core.ilp` — exact branch-and-bound ILPs (test oracles).
- :mod:`repro.core.gpart` — G-PART greedy partition merging.
- :mod:`repro.core.datapart` — ordered-partition DP and its FPTAS.
- :mod:`repro.core.compredict` — compression-performance predictor.
- :mod:`repro.core.pipeline` — the unified SCOPe pipeline and policy variants.
"""
