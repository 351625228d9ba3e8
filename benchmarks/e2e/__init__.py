"""End-to-end benchmark spine: four closed-loop workloads over the whole
sim-step journey, with a per-layer table measured from outside.

``python -m benchmarks.e2e run`` prints every metric;
``python -m benchmarks.e2e selfcheck`` runs the suite twice and compares.
See README.md in this directory for what each workload isolates and how
each estimator was chosen.
"""
