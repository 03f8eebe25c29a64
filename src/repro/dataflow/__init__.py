"""Dataflow specification and analytical cost models.

The three dataflow components of paper Sec. II-A:

* tiling   -- :mod:`repro.dataflow.tiling`
* schedule -- :mod:`repro.dataflow.scheduling`
* mapping  -- :mod:`repro.dataflow.mapping`

plus the memory-access counters over single (:mod:`repro.dataflow.cost`) and
fused (:mod:`repro.dataflow.fusion_nest`) loop nests.
"""

from .tiling import UNTILED, Tiling, TilingError, full_tiling, unit_tiling
from .scheduling import (
    Schedule,
    ScheduleError,
    all_schedules,
    input_stationary,
    output_stationary,
    stationary_schedule,
)
from .spec import Dataflow, NRAClass
from .cost import (
    MemoryAccessReport,
    PartialSumConvention,
    TensorAccess,
    fits_buffer,
    memory_access,
)
from .fusion_nest import (
    FusedAccessReport,
    FusedChain,
    FusedDataflow,
    FusionError,
    fused_memory_access,
)
from .serialize import (
    SerializationError,
    dataflow_from_dict,
    dataflow_to_dict,
    fused_dataflow_from_dict,
    fused_dataflow_to_dict,
    report_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    tiling_from_dict,
    tiling_to_dict,
)
from .mapping import (
    ArrayShape,
    FusedMappingKind,
    MappingError,
    SpatialMapping,
    best_array_utilization,
    classify_intermediate_tile,
)

__all__ = [
    "SerializationError",
    "dataflow_from_dict",
    "dataflow_to_dict",
    "fused_dataflow_from_dict",
    "fused_dataflow_to_dict",
    "report_to_dict",
    "schedule_from_dict",
    "schedule_to_dict",
    "tiling_from_dict",
    "tiling_to_dict",
    "UNTILED",
    "Tiling",
    "TilingError",
    "full_tiling",
    "unit_tiling",
    "Schedule",
    "ScheduleError",
    "all_schedules",
    "input_stationary",
    "output_stationary",
    "stationary_schedule",
    "Dataflow",
    "NRAClass",
    "MemoryAccessReport",
    "PartialSumConvention",
    "TensorAccess",
    "fits_buffer",
    "memory_access",
    "FusedAccessReport",
    "FusedChain",
    "FusedDataflow",
    "FusionError",
    "fused_memory_access",
    "ArrayShape",
    "FusedMappingKind",
    "MappingError",
    "SpatialMapping",
    "best_array_utilization",
    "classify_intermediate_tile",
]
