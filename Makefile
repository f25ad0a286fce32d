.PHONY: check check-slow bench

# Tier-1 tests + the implicit-count and sampled-optimize perf smokes
# (see scripts/ci.sh).
check:
	bash scripts/ci.sh

# Everything above plus the -m slow equivalence sweeps.
check-slow:
	CI_SLOW=1 bash scripts/ci.sh

# Regenerate the perf-trajectory files in place (--merge keeps cells a
# restricted run does not touch, e.g. the minutes-long materialized
# clique12 rows recorded with --full).
bench:
	PYTHONPATH=src python benchmarks/bench_exploration_scaling.py --merge
	PYTHONPATH=src python benchmarks/bench_planspace.py --merge
	PYTHONPATH=src python benchmarks/bench_sampledopt.py --merge
	PYTHONPATH=src python benchmarks/bench_robustness.py --merge
	PYTHONPATH=src python benchmarks/bench_observability.py --merge
	PYTHONPATH=src python benchmarks/bench_feedback.py --merge
	PYTHONPATH=src python benchmarks/bench_serving.py --merge
