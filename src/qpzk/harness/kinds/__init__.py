"""One module per experiment kind, each with the kind's `run(config,
record)`; `qpzk.harness.experiments.run_experiment` imports the one a run
needs."""
