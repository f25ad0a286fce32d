"""Quickstart: count, enumerate, sample, and force execution plans.

Runs the full pipeline of the paper on TPC-H Q3 against the bundled micro
database:

1. open the plan space (no physical memo is built);
2. count the space exactly (Section 3.2);
3. unrank plan number 8 and rank it back (Section 3.3);
4. draw a uniform sample (Section 1's testing mechanism);
5. execute a specific plan with ``OPTION (USEPLAN 8)`` (Section 4).

Run:  python examples/quickstart.py
"""

from repro import Session
from repro.optimizer import OptimizerOptions
from repro.workloads import tpch_query


def main() -> None:
    session = Session.tpch(
        seed=0, options=OptimizerOptions(allow_cross_products=False)
    )
    sql = tpch_query("Q3").sql
    print("Query:\n", sql)

    # 1-2. Open the plan space and count.
    space = session.plan_space(sql)
    total = space.count()
    print(f"\nThe optimizer's search space holds N = {total:,} execution plans.")

    # 3. Unranking: plan number 8, and back again.
    plan = space.unrank(8)
    print("\nPlan number 8:")
    print(plan.render())
    print("rank(unrank(8)) =", space.rank(plan))

    # 4. Uniform sampling.
    sample = space.sample(5, seed=42)
    print("\nFive uniformly sampled plans (by shape):")
    for sampled in sample:
        ops = " -> ".join(node.op.name for node in sampled.iter_nodes())
        print("  ", ops)

    # 5. The SQL extension: execute exactly plan 8.
    result = session.execute(f"{sql.strip()} OPTION (USEPLAN 8)")
    print(f"\nOPTION (USEPLAN 8) returned {len(result.rows)} rows:")
    print(result.render(limit=5))

    # The optimizer's own choice returns the same answer.
    default = session.execute(sql)
    print(f"\nOptimizer's plan returned {len(default.rows)} rows — same result.")


if __name__ == "__main__":
    main()
