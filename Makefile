# Convenience targets for the bitmap-filter reproduction.

PYTHON ?= python

.PHONY: install test bench chaos differential serve-smoke fleet-smoke multisite-smoke profile figures experiments examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fault-injection acceptance run: headline metrics under injected faults.
# Works without `make install` by putting src/ on the path.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_resilience.py -m faults -s

# Fleet and multi-site equivalence proofs (live daemons must match the
# offline replay byte for byte) and the serve-throughput floor.
differential:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential/ -m differential
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_serve_throughput.py -s

# Online serving end-to-end smoke: boot the daemon, replay a trace with
# --verify (online == offline verdicts), scrape /metrics, clean SIGTERM.
serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

# Fleet end-to-end smoke: consistent-hash routing, healthy fleet ==
# offline replay, and policy-consistent failover under a node SIGKILL.
fleet-smoke:
	PYTHONPATH=src $(PYTHON) scripts/fleet_smoke.py

# Multi-site scenario smoke: a 3-site fat-tree scenario offline (preset and
# TOML file) and replayed against a live one-daemon-per-site fleet with
# --verify (online == offline verdicts incl. the roaming handoff).
multisite-smoke:
	PYTHONPATH=src $(PYTHON) scripts/multisite_smoke.py

# Profile fig5 with live telemetry: stage breakdown + metric exports.
profile:
	PYTHONPATH=src $(PYTHON) -m repro stats --experiment fig5 --profile --every 20

# Regenerate every paper table/figure report on stdout.
experiments:
	$(PYTHON) -m repro all

# Dump every figure's data series as CSV under figures/.
figures:
	$(PYTHON) -m repro export --out figures

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache figures
	find . -name __pycache__ -type d -exec rm -rf {} +
