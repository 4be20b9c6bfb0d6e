//! Workflows and the paper's Table III combinations.
//!
//! A workflow is an ordered list of tasks (benchmark runs) with data
//! dependencies between consecutive tasks — the unit the scheduler
//! co-schedules. The paper evaluates ten specific combinations of two to
//! four workflows (Table III); [`table3_combinations`] reproduces them
//! verbatim.

use crate::builder::build_task;
use crate::catalog::benchmark;
use crate::spec::{BenchmarkKind, ProblemSize};
use crate::synthetic::SyntheticSpec;
use mpshare_gpusim::{ClientProgram, DeviceSpec, TaskProgram, MAX_EVENTS};
use mpshare_types::{IdAllocator, Result, TaskId};
use serde::{Deserialize, Serialize};

/// What a workflow task actually runs: one of the paper's seven calibrated
/// benchmarks, or a user-supplied analytic workload (so downstream users
/// can schedule *their* codes through the same pipeline after profiling
/// them with [`SyntheticSpec`] parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskSource {
    /// One of the calibrated paper benchmarks at a problem size.
    Benchmark {
        kind: BenchmarkKind,
        size: ProblemSize,
    },
    /// A user-defined analytic workload.
    Custom { name: String, spec: SyntheticSpec },
}

impl TaskSource {
    /// Builds one task instance.
    pub fn build(&self, device: &DeviceSpec, id: TaskId) -> Result<TaskProgram> {
        match self {
            TaskSource::Benchmark { kind, size } => {
                build_task(device, &benchmark(*kind), *size, id)
            }
            TaskSource::Custom { name, spec } => {
                let mut task = spec.to_task(device, id)?;
                task.label = name.clone();
                Ok(task)
            }
        }
    }

    /// Display label, e.g. `"Kripke 4x"` or `"my-cfd-solver"`.
    pub fn label(&self) -> String {
        match self {
            TaskSource::Benchmark { kind, size } => format!("{kind} {size}"),
            TaskSource::Custom { name, .. } => name.clone(),
        }
    }
}

/// One entry of a workflow: a task source repeated `iterations` times as
/// sequential tasks.
///
/// JSON forms (both accepted; the flat ones are emitted):
/// `{"kind": "Kripke", "size": 2.0, "iterations": 10}` for benchmarks,
/// `{"name": "my-solver", "spec": {…}, "iterations": 3}` for custom
/// workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "TaskOnDisk", into = "TaskOnDisk")]
pub struct WorkflowTask {
    pub source: TaskSource,
    pub iterations: usize,
}

/// Serialization surrogate keeping the queue-spec JSON flat and stable.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
enum TaskOnDisk {
    Benchmark {
        kind: BenchmarkKind,
        size: ProblemSize,
        iterations: usize,
    },
    Custom {
        name: String,
        spec: SyntheticSpec,
        iterations: usize,
    },
}

impl From<TaskOnDisk> for WorkflowTask {
    fn from(disk: TaskOnDisk) -> Self {
        match disk {
            TaskOnDisk::Benchmark {
                kind,
                size,
                iterations,
            } => WorkflowTask::new(kind, size, iterations),
            TaskOnDisk::Custom {
                name,
                spec,
                iterations,
            } => WorkflowTask::custom(name, spec, iterations),
        }
    }
}

impl From<WorkflowTask> for TaskOnDisk {
    fn from(task: WorkflowTask) -> Self {
        match task.source {
            TaskSource::Benchmark { kind, size } => TaskOnDisk::Benchmark {
                kind,
                size,
                iterations: task.iterations,
            },
            TaskSource::Custom { name, spec } => TaskOnDisk::Custom {
                name,
                spec,
                iterations: task.iterations,
            },
        }
    }
}

impl WorkflowTask {
    /// A calibrated-benchmark entry.
    pub fn new(kind: BenchmarkKind, size: ProblemSize, iterations: usize) -> Self {
        WorkflowTask {
            source: TaskSource::Benchmark { kind, size },
            iterations,
        }
    }

    /// A user-defined workload entry.
    pub fn custom(name: impl Into<String>, spec: SyntheticSpec, iterations: usize) -> Self {
        WorkflowTask {
            source: TaskSource::Custom {
                name: name.into(),
                spec,
            },
            iterations,
        }
    }
}

/// A workflow specification: the tasks one client process executes in
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    pub entries: Vec<WorkflowTask>,
}

impl WorkflowSpec {
    pub fn new(entries: Vec<WorkflowTask>) -> Self {
        WorkflowSpec { entries }
    }

    /// Validates a deserialized workflow before it reaches the profiler
    /// or the engine. `#[serde(transparent)]` problem sizes and plain
    /// floats bypass the constructors' range asserts at parse time, so a
    /// queue loader calls this to reject zero/negative sizes, zero
    /// iteration counts, non-finite values, and workflows of more kernels
    /// than [`MAX_EVENTS`] (every kernel is at least one engine event, so
    /// such a workflow could never finish) with an error naming the
    /// offending field. `ctx` prefixes the error, e.g. `"workflows[2]"`.
    pub fn validate_fields(&self, ctx: &str) -> Result<()> {
        if self.entries.is_empty() {
            return Err(mpshare_types::Error::InvalidConfig(format!(
                "{ctx}: entries must not be empty"
            )));
        }
        // Lower bound on the workflow's kernel count: a catalog task runs
        // at least one kernel.
        let mut kernels: u64 = 0;
        for (i, entry) in self.entries.iter().enumerate() {
            let ectx = format!("{ctx}.entries[{i}]");
            if entry.iterations == 0 {
                return Err(mpshare_types::Error::InvalidConfig(format!(
                    "{ectx}: iterations must be at least 1"
                )));
            }
            match &entry.source {
                TaskSource::Benchmark { size, .. } => {
                    let factor = size.factor();
                    if !ProblemSize::is_valid_factor(factor) {
                        return Err(mpshare_types::Error::InvalidConfig(format!(
                            "{ectx}.size: must be a finite factor in [1, {}], got {factor}",
                            ProblemSize::MAX.factor()
                        )));
                    }
                }
                TaskSource::Custom { name, spec } => {
                    if name.is_empty() {
                        return Err(mpshare_types::Error::InvalidConfig(format!(
                            "{ectx}: name must not be empty"
                        )));
                    }
                    spec.validate_fields(&ectx)?;
                }
            }
            let per_task = match &entry.source {
                TaskSource::Benchmark { .. } => 1,
                TaskSource::Custom { spec, .. } => spec.kernels as u64,
            };
            kernels = u64::try_from(entry.iterations)
                .ok()
                .and_then(|iterations| iterations.checked_mul(per_task))
                .and_then(|entry_kernels| entry_kernels.checked_add(kernels))
                .filter(|&total| total <= MAX_EVENTS)
                .ok_or_else(|| {
                    mpshare_types::Error::InvalidConfig(format!(
                        "{ectx}.iterations: the workflow would run more than {MAX_EVENTS} \
                         kernels, the engine's event budget, so it could never finish \
                         (got {} iterations)",
                        entry.iterations
                    ))
                })?;
        }
        Ok(())
    }

    /// A workflow of `iterations` runs of a single benchmark.
    pub fn uniform(kind: BenchmarkKind, size: ProblemSize, iterations: usize) -> Self {
        WorkflowSpec::new(vec![WorkflowTask::new(kind, size, iterations)])
    }

    /// Total number of tasks in the workflow.
    pub fn task_count(&self) -> usize {
        self.entries.iter().map(|e| e.iterations).sum()
    }

    /// Human-readable label, e.g. `"Kripke 4x ×11 + WarpX 2x ×8"`.
    pub fn label(&self) -> String {
        self.entries
            .iter()
            .map(|e| format!("{} ×{}", e.source.label(), e.iterations))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Materializes the workflow as a client program for the simulator.
    pub fn to_client_program(
        &self,
        device: &DeviceSpec,
        ids: &mut IdAllocator,
    ) -> Result<ClientProgram> {
        let mut program = ClientProgram::new(self.label());
        for entry in &self.entries {
            for _ in 0..entry.iterations {
                program.push_task(entry.source.build(device, ids.next_task())?);
            }
        }
        Ok(program)
    }
}

/// One of the paper's Table III workflow combinations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Combination {
    /// The paper's combination number (1–10).
    pub number: usize,
    pub workflows: Vec<WorkflowSpec>,
}

impl Combination {
    /// Total tasks across all workflows.
    pub fn task_count(&self) -> usize {
        self.workflows.iter().map(|w| w.task_count()).sum()
    }
}

/// The paper's Table III, verbatim: ten combinations of workflows.
///
/// ```
/// use mpshare_workloads::table3_combinations;
///
/// let combos = table3_combinations();
/// assert_eq!(combos.len(), 10);
/// // Combination 8 is the 700-task AthenaPK/Cholla-Gravity quartet.
/// assert_eq!(combos[7].workflows.len(), 4);
/// assert_eq!(combos[7].task_count(), 700);
/// ```
pub fn table3_combinations() -> Vec<Combination> {
    use BenchmarkKind::*;
    use ProblemSize as S;
    let wf = WorkflowSpec::uniform;
    vec![
        Combination {
            number: 1,
            workflows: vec![wf(AthenaPk, S::X4, 5), wf(Lammps, S::X4, 3)],
        },
        Combination {
            number: 2,
            workflows: vec![
                wf(BerkeleyGwEpsilon, S::X1, 1),
                wf(AthenaPk, S::X8, 1),
                wf(AthenaPk, S::X4, 14),
            ],
        },
        Combination {
            number: 3,
            workflows: vec![wf(Kripke, S::X4, 11), wf(WarpX, S::X2, 8)],
        },
        Combination {
            number: 4,
            workflows: vec![wf(Kripke, S::X4, 13), wf(WarpX, S::X4, 2)],
        },
        Combination {
            number: 5,
            workflows: vec![wf(BerkeleyGwEpsilon, S::X1, 1), wf(ChollaMhd, S::X4, 2)],
        },
        Combination {
            number: 6,
            workflows: vec![wf(ChollaGravity, S::X4, 4), wf(Kripke, S::X2, 48)],
        },
        Combination {
            number: 7,
            workflows: vec![wf(ChollaMhd, S::X4, 2), wf(Lammps, S::X4, 8)],
        },
        Combination {
            number: 8,
            workflows: vec![
                wf(AthenaPk, S::X1, 300),
                wf(ChollaGravity, S::X1, 50),
                wf(AthenaPk, S::X1, 300),
                wf(ChollaGravity, S::X1, 50),
            ],
        },
        Combination {
            number: 9,
            workflows: vec![wf(AthenaPk, S::X1, 300), wf(ChollaGravity, S::X1, 50)],
        },
        Combination {
            number: 10,
            workflows: vec![
                wf(ChollaMhd, S::X4, 1),
                wf(Lammps, S::X4, 4),
                wf(ChollaMhd, S::X4, 1),
                wf(Lammps, S::X4, 4),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_gpusim::DeviceSpec;

    #[test]
    fn table3_has_ten_combinations_with_paper_shapes() {
        let combos = table3_combinations();
        assert_eq!(combos.len(), 10);
        assert_eq!(combos[0].workflows.len(), 2);
        assert_eq!(combos[1].workflows.len(), 3);
        assert_eq!(combos[7].workflows.len(), 4);
        assert_eq!(combos[9].workflows.len(), 4);
        // Combination numbers are 1..=10 in order.
        for (i, c) in combos.iter().enumerate() {
            assert_eq!(c.number, i + 1);
        }
    }

    #[test]
    fn task_counts_match_iteration_sums() {
        let combos = table3_combinations();
        assert_eq!(combos[0].task_count(), 5 + 3);
        assert_eq!(combos[1].task_count(), 1 + 1 + 14);
        assert_eq!(combos[8].task_count(), 350);
        assert_eq!(combos[7].task_count(), 700);
    }

    #[test]
    fn workflow_label_is_descriptive() {
        let w = WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X4, 11);
        assert_eq!(w.label(), "Kripke 4x ×11");
        let combo = &table3_combinations()[1];
        assert!(combo.workflows[0].label().contains("BerkeleyGW-Epsilon"));
    }

    #[test]
    fn to_client_program_materializes_all_tasks() {
        let device = DeviceSpec::a100x();
        let mut ids = IdAllocator::new();
        let w = WorkflowSpec::new(vec![
            WorkflowTask::new(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
            WorkflowTask::new(BenchmarkKind::Kripke, ProblemSize::X1, 3),
        ]);
        let p = w.to_client_program(&device, &mut ids).unwrap();
        assert_eq!(p.task_count(), 5);
        assert!(p.tasks[0].label.contains("AthenaPK"));
        assert!(p.tasks[4].label.contains("Kripke"));
        // Task ids are unique.
        let mut ids_seen: Vec<u64> = p.tasks.iter().map(|t| t.id.raw()).collect();
        ids_seen.dedup();
        assert_eq!(ids_seen.len(), 5);
    }

    #[test]
    fn workflow_task_json_stays_flat_and_accepts_both_kinds() {
        // Benchmark entries keep the original flat JSON shape.
        let w: WorkflowTask =
            serde_json::from_str(r#"{"kind": "Kripke", "size": 2.0, "iterations": 10}"#).unwrap();
        assert_eq!(
            w,
            WorkflowTask::new(BenchmarkKind::Kripke, ProblemSize::X2, 10)
        );
        let json = serde_json::to_string(&w).unwrap();
        assert!(json.contains("\"kind\""), "{json}");
        let back: WorkflowTask = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);

        // Custom entries round-trip too.
        use crate::synthetic::SyntheticSpec;
        let c = WorkflowTask::custom("my-solver", SyntheticSpec::light(), 3);
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("my-solver"));
        let back: WorkflowTask = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn workflows_past_the_event_budget_are_rejected() {
        use crate::synthetic::SyntheticSpec;
        // The engine's event budget (`MAX_EVENTS`), written out so the
        // test pins its value.
        let budget = 50_000_000;
        let kripke =
            |iterations| WorkflowTask::new(BenchmarkKind::Kripke, ProblemSize::X1, iterations);
        let custom = |kernels, iterations| {
            let spec = SyntheticSpec {
                kernels,
                ..SyntheticSpec::light()
            };
            WorkflowTask::custom("solver", spec, iterations)
        };
        let error = |entries: Vec<WorkflowTask>| {
            WorkflowSpec::new(entries)
                .validate_fields("workflows[0]")
                .unwrap_err()
                .to_string()
        };
        let at_budget = WorkflowSpec::new(vec![kripke(budget - 1), custom(1, 1)]);
        assert!(at_budget.validate_fields("workflows[0]").is_ok());

        let e = error(vec![kripke(4_000_000_000)]);
        assert!(e.contains("workflows[0].entries[0].iterations"), "{e}");
        let e = error(vec![kripke(usize::MAX)]);
        assert!(e.contains("workflows[0].entries[0].iterations"), "{e}");
        let e = error(vec![custom(4_000_000_000, 1)]);
        assert!(e.contains("workflows[0].entries[0].kernels"), "{e}");
        // 1 000 kernels × 100 000 iterations, and a sum across entries.
        let e = error(vec![custom(1_000, 100_000)]);
        assert!(e.contains("workflows[0].entries[0].iterations"), "{e}");
        let e = error(vec![kripke(budget), custom(1, 1)]);
        assert!(e.contains("workflows[0].entries[1].iterations"), "{e}");
        let e = error(vec![custom(2, usize::MAX)]);
        assert!(e.contains("workflows[0].entries[0].iterations"), "{e}");
    }

    #[test]
    fn custom_sources_build_through_the_same_pipeline() {
        use crate::synthetic::SyntheticSpec;
        let device = DeviceSpec::a100x();
        let mut ids = IdAllocator::new();
        let w = WorkflowSpec::new(vec![
            WorkflowTask::custom("my-cfd-solver", SyntheticSpec::light(), 2),
            WorkflowTask::new(BenchmarkKind::Kripke, ProblemSize::X1, 1),
        ]);
        assert_eq!(w.label(), "my-cfd-solver ×2 + Kripke 1x ×1");
        let p = w.to_client_program(&device, &mut ids).unwrap();
        assert_eq!(p.task_count(), 3);
        assert_eq!(p.tasks[0].label, "my-cfd-solver");
        assert!(p.tasks[2].label.contains("Kripke"));
    }
}
