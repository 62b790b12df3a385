"""The two-body pass and the many-body executor (:mod:`repro.graph.pairwise`)."""
