"""Workload definitions: each module builds one round of seeded jobs."""
