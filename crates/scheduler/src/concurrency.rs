//! The concurrency hint.
//!
//! The paper's earlier work (reference \[28\]) introduced a *concurrency hint*
//! that dynamically adjusts the task granularity of partitionable analytical
//! operations such as scans: under low concurrency a query is split into many
//! tasks to use the whole machine, under high concurrency each query is split
//! into few (down to one) tasks to avoid unnecessary scheduling overhead.

/// Computes how many tasks a partitionable operation should be split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyHint {
    /// Number of hardware contexts in the machine.
    pub total_contexts: usize,
}

impl ConcurrencyHint {
    /// Creates a hint for a machine with `total_contexts` hardware contexts.
    pub fn new(total_contexts: usize) -> Self {
        assert!(total_contexts > 0, "a machine needs at least one hardware context");
        ConcurrencyHint { total_contexts }
    }

    /// Suggested number of tasks for one partitionable operation when
    /// `active_statements` statements are concurrently active.
    ///
    /// With one client the whole machine is used; with more clients than
    /// contexts every operation becomes a single task.
    pub fn suggested_tasks(&self, active_statements: usize) -> usize {
        if active_statements == 0 {
            return self.total_contexts;
        }
        (self.total_contexts / active_statements).max(1)
    }

    /// Suggested number of tasks, rounded *up* to a multiple of `partitions`
    /// so that each task's range falls wholly inside one partition
    /// (Section 5.2: "we round up the number of tasks to a multiple of the
    /// partitions").
    pub fn suggested_tasks_for_partitions(
        &self,
        active_statements: usize,
        partitions: usize,
    ) -> usize {
        let partitions = partitions.max(1);
        let base = self.suggested_tasks(active_statements);
        base.div_ceil(partitions) * partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_concurrency_uses_the_whole_machine() {
        let hint = ConcurrencyHint::new(120);
        assert_eq!(hint.suggested_tasks(1), 120);
        assert_eq!(hint.suggested_tasks(0), 120);
    }

    #[test]
    fn high_concurrency_degenerates_to_one_task() {
        let hint = ConcurrencyHint::new(120);
        assert_eq!(hint.suggested_tasks(120), 1);
        assert_eq!(hint.suggested_tasks(1024), 1);
    }

    #[test]
    fn intermediate_concurrency_divides_the_machine() {
        let hint = ConcurrencyHint::new(120);
        assert_eq!(hint.suggested_tasks(4), 30);
        assert_eq!(hint.suggested_tasks(64), 1);
    }

    #[test]
    fn partitioned_operations_round_up_to_a_multiple_of_parts() {
        let hint = ConcurrencyHint::new(120);
        // 1024 clients on a 32-part column: still one task per part.
        assert_eq!(hint.suggested_tasks_for_partitions(1024, 32), 32);
        // 4 clients, 8 parts: 30 tasks round up to 32.
        assert_eq!(hint.suggested_tasks_for_partitions(4, 8), 32);
        // Unpartitioned columns are unaffected.
        assert_eq!(hint.suggested_tasks_for_partitions(4, 1), 30);
    }

    #[test]
    #[should_panic(expected = "at least one hardware context")]
    fn zero_contexts_is_rejected() {
        ConcurrencyHint::new(0);
    }
}
