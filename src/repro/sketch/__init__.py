"""Sketch substrate: count sketch, count-min, baselines and top-k tracking."""

from repro.sketch.augmented import AugmentedSketch
from repro.sketch.base import ValueSketch
from repro.sketch.cold_filter import ColdFilterSketch
from repro.sketch.count_min import CountMinSketch
from repro.sketch.count_sketch import CountSketch
from repro.sketch.decay import DecayedSketch, decay_from_half_life
from repro.sketch.hierarchical import HierarchicalCountSketch
from repro.sketch.planner import CapacityPlan, plan
from repro.sketch.serialization import load_sketch, save_sketch
from repro.sketch.storage import DEFAULT_QUANTUM, CounterStore, resolve_storage
from repro.sketch.topk import TopKTracker, scan_top_keys

__all__ = [
    "AugmentedSketch",
    "CapacityPlan",
    "ColdFilterSketch",
    "CountMinSketch",
    "CountSketch",
    "CounterStore",
    "DEFAULT_QUANTUM",
    "DecayedSketch",
    "HierarchicalCountSketch",
    "TopKTracker",
    "ValueSketch",
    "decay_from_half_life",
    "load_sketch",
    "plan",
    "resolve_storage",
    "save_sketch",
    "scan_top_keys",
]
