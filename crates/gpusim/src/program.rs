//! Client programs: what one MPS client executes.
//!
//! A [`ClientProgram`] is the unit the engine schedules — it corresponds to
//! one OS process connected to the MPS server (or one time-slicing
//! participant). A program is an ordered sequence of [`TaskProgram`]s
//! (workflow tasks, e.g. "LAMMPS 4x"); each task is an ordered sequence of
//! kernels separated by host gaps and owns a device-memory footprint that is
//! allocated when the task starts and freed when it ends.

use crate::device::DeviceSpec;
use crate::kernel::KernelSpec;
use mpshare_types::{Error, MemBytes, Result, Seconds, TaskId};
use serde::{Deserialize, Serialize};

/// One workflow task: a named batch of kernels with a memory footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskProgram {
    /// Identifier used to report per-task completion times.
    pub id: TaskId,
    /// Human-readable label (benchmark name + problem size), for reports.
    pub label: String,
    /// Maximum resident device memory of this task. Allocated at task
    /// start; the task blocks until it fits.
    pub memory: MemBytes,
    /// Kernels in launch order.
    pub kernels: Vec<KernelSpec>,
    /// Host-side setup time before the first kernel launches (input
    /// reading, MPI setup, H2D transfers).
    pub setup: Seconds,
}

impl TaskProgram {
    pub fn new(id: TaskId, label: impl Into<String>, memory: MemBytes) -> Self {
        TaskProgram {
            id,
            label: label.into(),
            memory,
            kernels: Vec::new(),
            setup: Seconds::ZERO,
        }
    }

    pub fn with_setup(mut self, setup: Seconds) -> Self {
        self.setup = setup;
        self
    }

    pub fn push_kernel(&mut self, kernel: KernelSpec) -> &mut Self {
        self.kernels.push(kernel);
        self
    }

    /// Appends `count` copies of `kernel`.
    pub fn repeat_kernel(&mut self, kernel: KernelSpec, count: usize) -> &mut Self {
        self.kernels.extend(std::iter::repeat_n(kernel, count));
        self
    }

    /// Total GPU-busy time of the task when run solo at full partition.
    pub fn solo_busy_time(&self) -> Seconds {
        self.kernels.iter().map(|k| k.solo_duration).sum()
    }

    /// Total wall-clock time of the task when run solo at full partition,
    /// including setup and host gaps.
    pub fn solo_wall_time(&self) -> Seconds {
        self.setup
            + self
                .kernels
                .iter()
                .map(|k| k.solo_duration + k.host_gap)
                .sum()
    }

    /// Validates the task against a device: every kernel must be able to
    /// run and the footprint must fit in device memory at all.
    pub fn validate(&self, device: &DeviceSpec) -> Result<()> {
        if self.kernels.is_empty() {
            return Err(Error::InvalidConfig(format!(
                "task {} ({}) has no kernels",
                self.id, self.label
            )));
        }
        if self.memory > device.memory_capacity {
            return Err(Error::InvalidConfig(format!(
                "task {} ({}) needs {} but device has {}",
                self.id, self.label, self.memory, device.memory_capacity
            )));
        }
        for k in &self.kernels {
            k.validate(device)?;
        }
        Ok(())
    }
}

/// The full program of one client process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientProgram {
    /// Human-readable label (workflow description), for reports.
    pub label: String,
    /// Tasks in execution order; task `n+1` starts only after task `n`
    /// completes (workflow data dependencies).
    pub tasks: Vec<TaskProgram>,
    /// Simulated time at which the client process arrives.
    pub arrival: Seconds,
}

impl ClientProgram {
    pub fn new(label: impl Into<String>) -> Self {
        ClientProgram {
            label: label.into(),
            tasks: Vec::new(),
            arrival: Seconds::ZERO,
        }
    }

    pub fn push_task(&mut self, task: TaskProgram) -> &mut Self {
        self.tasks.push(task);
        self
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Peak memory over the client's lifetime (tasks run one at a time, so
    /// this is the max, not the sum).
    pub fn peak_memory(&self) -> MemBytes {
        self.tasks
            .iter()
            .map(|t| t.memory)
            .max()
            .unwrap_or(MemBytes::ZERO)
    }

    /// Sum of solo wall-clock times of all tasks — what sequential
    /// execution of this client alone would take.
    pub fn solo_wall_time(&self) -> Seconds {
        self.tasks.iter().map(|t| t.solo_wall_time()).sum()
    }

    pub fn validate(&self, device: &DeviceSpec) -> Result<()> {
        if self.tasks.is_empty() {
            return Err(Error::InvalidConfig(format!(
                "client program {:?} has no tasks",
                self.label
            )));
        }
        for t in &self.tasks {
            t.validate(device)?;
        }
        Ok(())
    }
}

/// A client roster validated once against a specific device.
///
/// Program validation walks every kernel (occupancy limits, coefficient
/// sanity), which is the dominant cost of engine construction for large
/// rosters — and it is pure: the verdict depends only on the programs and
/// the device, both immutable. A steady-state driver that re-runs the
/// same roster (benchmark replay, scenario sweeps, the recycled-scratch
/// loop) should validate once, then construct engines with
/// [`crate::engine::Engine::new`] and take the roster back from the
/// [`crate::engine::EngineRun`] of each run — no re-validation, no per-run
/// clone.
#[derive(Debug, Clone)]
pub struct ValidatedPrograms {
    programs: Vec<ClientProgram>,
    device: DeviceSpec,
}

impl ValidatedPrograms {
    /// Validates every program against `device` and seals the roster.
    pub fn new(device: &DeviceSpec, programs: Vec<ClientProgram>) -> Result<Self> {
        let device = device.clone().validated()?;
        for p in &programs {
            p.validate(&device)?;
        }
        Ok(ValidatedPrograms { programs, device })
    }

    /// Reseals a roster the engine already validated at construction time
    /// (every `Engine` holds programs validated against its device).
    pub(crate) fn sealed(device: DeviceSpec, programs: Vec<ClientProgram>) -> Self {
        ValidatedPrograms { programs, device }
    }

    /// The device the roster was validated against.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    pub fn len(&self) -> usize {
        self.programs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    pub(crate) fn into_parts(self) -> (DeviceSpec, Vec<ClientProgram>) {
        (self.device, self.programs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchConfig;
    use mpshare_types::Fraction;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn kernel(dur: f64, gap: f64) -> KernelSpec {
        KernelSpec::from_launch(&dev(), LaunchConfig::dense(216, 1024), Seconds::new(dur))
            .with_host_gap(Seconds::new(gap))
            .with_sm_demand(Fraction::new(0.5))
    }

    fn task(id: u64, n_kernels: usize) -> TaskProgram {
        let mut t = TaskProgram::new(
            TaskId::new(id),
            format!("task-{id}"),
            MemBytes::from_mib(512),
        )
        .with_setup(Seconds::new(1.0));
        t.repeat_kernel(kernel(2.0, 0.5), n_kernels);
        t
    }

    #[test]
    fn solo_times_add_up() {
        let t = task(0, 3);
        assert_eq!(t.solo_busy_time().value(), 6.0);
        assert_eq!(t.solo_wall_time().value(), 1.0 + 3.0 * 2.5);
    }

    #[test]
    fn client_peak_memory_is_max_not_sum() {
        let mut c = ClientProgram::new("wf");
        let mut t1 = task(0, 1);
        t1.memory = MemBytes::from_mib(100);
        let mut t2 = task(1, 1);
        t2.memory = MemBytes::from_mib(700);
        c.push_task(t1).push_task(t2);
        assert_eq!(c.peak_memory(), MemBytes::from_mib(700));
    }

    #[test]
    fn client_solo_wall_time_sums_tasks() {
        let mut c = ClientProgram::new("wf");
        c.push_task(task(0, 2)).push_task(task(1, 2));
        assert_eq!(c.solo_wall_time().value(), 2.0 * (1.0 + 2.0 * 2.5));
    }

    #[test]
    fn validation_rejects_empty_and_oversized() {
        let d = dev();
        assert!(ClientProgram::new("empty").validate(&d).is_err());

        let mut t = task(0, 1);
        t.memory = MemBytes::from_gib(100);
        assert!(t.validate(&d).is_err());

        let t_empty = TaskProgram::new(TaskId::new(9), "no-kernels", MemBytes::ZERO);
        assert!(t_empty.validate(&d).is_err());

        let mut c = ClientProgram::new("ok");
        c.push_task(task(0, 1));
        c.validate(&d).unwrap();
    }

    #[test]
    fn repeat_kernel_appends_copies() {
        let t = task(0, 5);
        assert_eq!(t.kernels.len(), 5);
    }
}
