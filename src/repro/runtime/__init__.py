"""Ground-truth runtime: 1F1B schedule, event simulator, executor."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "allocator": ("BLOCK_BYTES", "CachingAllocator", "replay_transients"),
    "executor": ("ExecutionResult", "Executor", "FRAMEWORK_OVERHEAD"),
    "memory_trace": (
        "StageMemoryTimeline", "all_stage_timelines", "stage_memory_timeline",
    ),
    "schedule": (
        "BACKWARD", "FORWARD", "GPIPE", "ONE_F_ONE_B", "SCHEDULE_STYLES",
        "Task", "full_schedule", "max_in_flight", "stage_schedule",
    ),
    "simulator": ("SimulationResult", "TaskRecord", "simulate_pipeline"),
})
