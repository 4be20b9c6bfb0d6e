//! Baseline schedulers for ablation.
//!
//! * [`fifo_plan`] — naive MPS packing: groups are formed in queue order up
//!   to a fixed cardinality, ignoring profiles entirely. This is "just use
//!   MPS" without interference awareness — the comparator that shows why
//!   the paper's profile-driven grouping matters.
//! * [`single_group_plan`] — everything in one concurrent group with
//!   default partitions (maximum oversubscription).

use crate::planner::{PlanGroup, SchedulePlan};
use mpshare_types::Fraction;

/// Groups workflows in queue order, `cap` at a time, with default (100 %)
/// partitions. No interference prediction, no right-sizing.
pub fn fifo_plan(n_workflows: usize, cap: usize) -> SchedulePlan {
    let cap = cap.max(1);
    let groups = (0..n_workflows)
        .collect::<Vec<_>>()
        .chunks(cap)
        .map(|chunk| PlanGroup {
            workflow_indices: chunk.to_vec(),
            partitions: vec![Fraction::ONE; chunk.len()],
        })
        .collect();
    SchedulePlan { groups }
}

/// Everything in one MPS group with default partitions.
pub fn single_group_plan(n_workflows: usize) -> SchedulePlan {
    fifo_plan(n_workflows, n_workflows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_groups_in_queue_order() {
        let plan = fifo_plan(5, 2);
        assert_eq!(plan.groups.len(), 3);
        assert_eq!(plan.groups[0].workflow_indices, vec![0, 1]);
        assert_eq!(plan.groups[1].workflow_indices, vec![2, 3]);
        assert_eq!(plan.groups[2].workflow_indices, vec![4]);
        assert_eq!(plan.workflow_count(), 5);
    }

    #[test]
    fn fifo_partitions_are_uniform_full() {
        let plan = fifo_plan(3, 3);
        for g in &plan.groups {
            assert!(g.partitions.iter().all(|p| *p == Fraction::ONE));
        }
    }

    #[test]
    fn single_group_holds_everything() {
        let plan = single_group_plan(7);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.max_cardinality(), 7);
    }

    #[test]
    fn zero_cap_is_clamped() {
        let plan = fifo_plan(2, 0);
        assert_eq!(plan.groups.len(), 2);
    }
}
