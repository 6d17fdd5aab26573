"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
``perfbench/README.md`` for the workloads, the metric definitions and the
map from each per-layer metric to the end-to-end metric it should move.
"""
