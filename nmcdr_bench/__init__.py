"""NMCDR benchmark: workloads, open-loop load generator, tracing shims."""
