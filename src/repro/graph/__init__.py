"""The pairwise force pass as a Stage list (:mod:`repro.graph.pairwise`)."""
