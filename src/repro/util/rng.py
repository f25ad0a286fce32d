"""Deterministic random-number helpers.

All randomness in the library flows through explicitly seeded
:class:`random.Random` instances so that every experiment is reproducible
bit-for-bit.  Nothing in the package ever touches the global ``random``
module state.

The plan-sampling RNG contract
------------------------------
Plan samplers promise: *the same seed over the same plan space yields the
same rank stream, no matter which engine unranks it.*  Concretely:

1. every sampler seeds through :func:`make_rng` (an existing ``Random``
   passes through unchanged, so callers may share one stream across
   calls);
2. ranks are drawn exclusively via ``rng.randrange(N)`` — one call per
   sample, in sample order — except unique draws: dense ones
   (``unique=True`` with ``4n >= N``) use ``rng.sample(range(N), n)``,
   sparse ones rejection-sample ``randrange`` until ``n`` distinct ranks
   accumulate and return them *sorted*, not in draw order;
3. the drawing logic lives in exactly one place,
   :class:`repro.planspace.sampling.RankSampler`; the implicit engine's
   ``ImplicitPlanSampler`` and the materialized oracle's sampler (under
   ``tests/``) both subclass it and add only their ``unrank``.

Every route draws through the implicit engine; the materialized one is
the paper-literal oracle it is tested against.  Because the two agree
on ``N`` and on the rank -> plan bijection (asserted by the equivalence
property suite), a seed uniquely identifies a set of *plans*, end-to-end
through ``Session.iterate_plans`` and the ``sample``/``validate`` CLI
commands, and the reference reproduces any of those draws.

The stratified stream
---------------------
:class:`repro.sampledopt.strata.StratifiedSampler` is a *distinct*
deterministic stream, not an instance of the contract above: each
``sample_ranks(n)`` call visits the plan-shape strata in rank order and
draws every allocated rank via ``rng.randrange(lo, hi)``.  The same seed
over the same space and strata yields the same ranks — but never the
plain samplers' ranks (stratification constrains which ranks can be
drawn).  Code that must reproduce materialized experiments bit-for-bit
uses the plain samplers; stratification is for variance reduction and
search coverage.
"""

from __future__ import annotations

import random

__all__ = ["make_rng", "spawn_rng"]

Seed = int | str | tuple | random.Random | None


def make_rng(seed: Seed) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``seed`` may be an existing ``Random`` (returned unchanged, so call
    sites can accept either form), ``None`` (fresh generator with a fixed
    default seed — the library is deterministic *by default*), or any
    int/str/tuple, the latter stringified for stream derivation.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        seed = 0
    if isinstance(seed, tuple):
        seed = "/".join(repr(part) for part in seed)
    return random.Random(seed)


def spawn_rng(rng: random.Random, stream: str) -> random.Random:
    """Derive an independent child generator from ``rng`` for ``stream``.

    Used when one seed must drive several logically separate random
    streams (e.g. one per table in the data generator) without the draws
    of one stream perturbing another.
    """
    return random.Random(f"{rng.getrandbits(64)}/{stream}")
