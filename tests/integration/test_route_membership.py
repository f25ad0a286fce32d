"""Every production route serves a plan of the query's own space.

The execution-free half of the paper's Section 4 oracle: ranking is a
bijection, so a served plan is a member of the query's space exactly
when it has a rank — and unranking that rank must give the plan back,
byte for byte.  No route may serve a plan cheaper than the exact optimum
under the static cost model.

Routes: exact ``optimize``, a plan-tier cache hit, a template-tier replay
(a literal variant of a cached statement), ``optimize(feedback=True)``
after one ``execute(feedback=True)``, the sampled optimizer (stratified
and uniform) and ``OPTION (USEPLAN n)``, whose rank must round-trip to
``n``.

The heuristic tier is left out: its memo holds one greedy join order
whose enforcer choices are not always candidates of the query's space
(on star6, ``rank()`` raises "operator 10.4 is not a valid
candidate"), so its membership is not structural yet (ROADMAP item 6).
"""

import pytest

from repro.api import Session
from repro.executor.executor import PlanExecutor
from repro.serving import PlanCache
from repro.storage.datagen import generate_tpch
from repro.workloads.synthetic import star_query
from repro.workloads.tpch_queries import tpch_query

#: relative slack for comparing float costs of the same plan
_COST_RTOL = 1e-9


class _RecordingExecutor(PlanExecutor):
    last = None

    def execute(self, plan, **kwargs):
        self.last = plan
        return super().execute(plan, **kwargs)


#: statement pairs ``(sql, literal variant)`` per case
CASES = {
    "Q3": ("'BUILDING'", "'MACHINERY'"),
    "Q5": ("'ASIA'", "'EUROPE'"),
    "star5": ("t0.val > 1", "t0.val > 3"),
}


@pytest.fixture(scope="module")
def statements():
    """``{case: (database, sql, literal variant)}``."""
    tpch = generate_tpch(seed=0)
    star = star_query(5, rows=5, seed=0)
    texts = {
        "Q3": (tpch, tpch_query("Q3").sql),
        "Q5": (tpch, tpch_query("Q5").sql),
        "star5": (star.database, star.sql + " AND t0.val > 1"),
    }
    return {
        case: (database, sql, sql.replace(*CASES[case]))
        for case, (database, sql) in texts.items()
    }


def _served(database, sql, variant):
    """``{route: (statement, plan served)}`` for one statement."""
    session = Session(database)
    served = {"exact": (sql, session.optimize(sql).best_plan)}

    cached = Session(database, plan_cache=PlanCache())
    cached.optimize(sql)
    hit = cached.optimize(sql)
    assert hit.cache.tier == "plan"
    served["plan-tier hit"] = (sql, hit.best_plan)
    replay = cached.optimize(variant)
    assert replay.cache.tier == "template"
    served["template-tier replay"] = (variant, replay.best_plan)

    session.execute(sql, feedback=True)
    recosted = session.optimize(sql, feedback=True)
    assert recosted.estimator.feedback_hits
    served["feedback"] = (sql, recosted.best_plan)

    for stratified in (True, False):
        sampled = session.optimize(
            sql, method="sampled", samples=64, seed=1, stratified=stratified
        )
        route = "sampled " + ("stratified" if stratified else "uniform")
        served[route] = (sql, sampled.best_plan)
    return served


@pytest.mark.parametrize("case", CASES)
def test_every_route_serves_a_ranked_member(statements, case):
    database, sql, variant = statements[case]
    session = Session(database)
    spaces = {text: session.plan_space(text) for text in (sql, variant)}
    exact = {text: session.optimize(text) for text in (sql, variant)}

    served = _served(database, sql, variant)
    session.executor = recorder = _RecordingExecutor(database)
    useplan = 12_345 % spaces[sql].count()
    session.execute(f"{sql} OPTION (USEPLAN {useplan})")
    served["USEPLAN n"] = (sql, recorder.last)

    for route, (text, plan) in served.items():
        space, optimum = spaces[text], exact[text]
        rank = space.rank(plan)
        member = space.unrank(rank)
        assert member.render() == plan.render(), (case, route, rank)
        cost = optimum.cost_model.plan_cost(member)
        assert optimum.best_cost <= cost * (1 + _COST_RTOL), (case, route, rank)
    assert spaces[sql].rank(served["USEPLAN n"][1]) == useplan
