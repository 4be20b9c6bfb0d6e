//! Typed identifiers for simulator entities.
//!
//! Each id is a thin `u32`/`u64` wrapper; the macro keeps the definitions in
//! one place and guarantees all ids get the same trait surface.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u64);

        impl $name {
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }
    };
}

define_id!(
    /// A physical GPU in the simulated node.
    GpuId,
    "gpu"
);
define_id!(
    /// An MPS client (one per concurrently scheduled process).
    ClientId,
    "client"
);
define_id!(
    /// A workflow: an ordered sequence of tasks with data dependencies.
    WorkflowId,
    "wf"
);
define_id!(
    /// A workflow task: one benchmark run (many kernels).
    TaskId,
    "task"
);
define_id!(
    /// A single kernel launch within a task.
    KernelId,
    "kernel"
);

/// Monotonic id allocator used by builders that need fresh ids.
#[derive(Debug, Default, Clone)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out the next raw id, starting from zero.
    pub fn next_raw(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    pub fn next_task(&mut self) -> TaskId {
        TaskId::new(self.next_raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(GpuId::new(3).to_string(), "gpu3");
        assert_eq!(ClientId::new(0).to_string(), "client0");
        assert_eq!(WorkflowId::new(7).to_string(), "wf7");
        assert_eq!(TaskId::new(12).to_string(), "task12");
        assert_eq!(KernelId::new(9).to_string(), "kernel9");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(TaskId::new(1));
        set.insert(TaskId::new(1));
        set.insert(TaskId::new(2));
        assert_eq!(set.len(), 2);
        assert!(TaskId::new(1) < TaskId::new(2));
    }

    #[test]
    fn allocator_hands_out_unique_ids() {
        let mut alloc = IdAllocator::new();
        let a = alloc.next_task();
        let b = alloc.next_task();
        let c = alloc.next_raw();
        assert_ne!(a, b);
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(c, 2);
    }

    #[test]
    fn ids_serde_round_trip() {
        let id = TaskId::new(42);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "42");
        let back: TaskId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
