"""The paper's literal plan-space algorithm over a materialized memo —
the oracle the implicit engine is tested against.

Production numbers plans with :mod:`repro.planspace.implicit`, which
never builds the physical memo.  These modules are the paper's Section 3
as written, over an optimized (or hand-built) ``Memo``:

1. :mod:`.links` — the preparatory step: extract all physical operators
   and materialize, per operator and child slot, the list of child
   alternatives whose physical properties qualify.
2. :mod:`.counting` — compute ``N(v)`` for every operator bottom-up and
   the space total ``N``.
3. :mod:`.unranking` — the bijection between ``0..N-1`` and plans (both
   directions: unrank and rank).
4. :mod:`.sampling` / :mod:`.enumeration` — uniform sampling and
   exhaustive generation built on unranking.

:class:`.space.PlanSpace` is the facade.  :mod:`.participation` and
:mod:`.diff` are the linked-space versions of the diagnostics
:mod:`repro.planspace.participation` / :mod:`repro.planspace.diff` compute
over the implicit tables; :mod:`.export` dumps the structures as JSON;
:mod:`.paper_example` rebuilds the paper's Figure 2/3 memo, which only
this engine can read.
"""
