"""Persistence: JSON round-trips for datasets, configs and fitted models."""

from .tracecsv import (
    dataset_from_trace_csv,
    export_samples_csv,
    read_trace_csv,
    write_trace_csv,
)
from .serialization import (
    config_from_dict,
    config_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    fitted_digest,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    state_sha256,
    verify_model,
)

__all__ = [
    "dataset_to_dict",
    "dataset_from_dict",
    "save_dataset",
    "load_dataset",
    "config_to_dict",
    "config_from_dict",
    "save_model",
    "load_model",
    "verify_model",
    "fitted_digest",
    "state_sha256",
    "write_trace_csv",
    "read_trace_csv",
    "dataset_from_trace_csv",
    "export_samples_csv",
]
