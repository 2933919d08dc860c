"""Pipeline assembly and resumable, checkpointed output."""

from .extract import extraction_pipeline
from .checkpoint import run_with_checkpoints, completed_partitions
