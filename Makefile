.PHONY: check check-slow

# Tier-1 tests + the count, engine, serving, sampling, plan-testing,
# explain-analyze and feedback smokes (see scripts/ci.sh).  Performance
# is measured by benchmarks/perf, not here.
check:
	bash scripts/ci.sh

# Everything above plus the -m slow equivalence sweeps.
check-slow:
	CI_SLOW=1 bash scripts/ci.sh
