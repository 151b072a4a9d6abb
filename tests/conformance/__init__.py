"""Differential conformance suite: every route to a maximum k-plex.

One graph corpus (:mod:`tests.conformance.corpus`) is driven through
every way the repo answers an MKP instance — in-process ``qmkp`` per
kernel tier and cache mode, ``qmkp solve``, ``qmkp watch --check``, a
supervised service job, and a job through the HTTP/SSE gateway — and
each answer is held to the same checks: its size is the
``branch_search`` optimum, ``is_kplex`` certifies it, and a qMKP route
run with the default seed reproduces the in-process default's subset,
gate units and oracle calls.  A route that can be deleted with this
suite still green was redundant.
"""
