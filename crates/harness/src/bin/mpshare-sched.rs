//! `mpshare-sched` — schedule a workflow queue from a JSON spec.
//!
//! This is the downstream-facing tool: given a queue description, it runs
//! the offline profiling pass, plans an interference- and
//! granularity-aware collocation, executes the plan on the simulator, and
//! reports the gains over sequential scheduling.
//!
//! ```text
//! mpshare-sched queue.json [--priority throughput|energy|product]
//!                          [--strategy greedy|bestfit|auto|exhaustive]
//!                          [--gpus N] [--trace PREFIX] [--json] [--serial]
//! ```
//!
//! Planning and evaluation fan out across worker threads by default;
//! `--serial` (or `MPSHARE_SERIAL=1`) forces single-threaded execution
//! with bit-identical results.
//!
//! Queue spec format (see `configs/example_queue.json`):
//! ```json
//! {
//!   "workflows": [
//!     { "entries": [ { "kind": "Kripke", "size": 2.0, "iterations": 10 } ] },
//!     { "entries": [ { "kind": "AthenaPk", "size": 4.0, "iterations": 3 },
//!                    { "kind": "Lammps",   "size": 4.0, "iterations": 1 } ] }
//!   ],
//!   "dependencies": [[0, 1]]
//! }
//! ```

use mpshare_core::{
    advise, distribute_plan, plan_with_dependencies, validate_dependencies, workflow_profile,
    Dependency, Executor, ExecutorConfig, MetricPriority, NodeExecutor, Planner, PlannerStrategy,
};
use mpshare_gpusim::DeviceSpec;
use mpshare_obs::perfetto::chrome_trace;
use mpshare_profiler::ProfileStore;
use mpshare_types::IdAllocator;
use mpshare_workloads::WorkflowSpec;
use serde::Deserialize;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Deserialize)]
struct QueueSpec {
    workflows: Vec<WorkflowSpec>,
    /// Optional inter-workflow dependencies: `[before, after]` index pairs.
    #[serde(default)]
    dependencies: Vec<[usize; 2]>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mpshare-sched QUEUE.json [--priority throughput|energy|product] \
         [--strategy greedy|bestfit|auto|exhaustive] [--gpus N] [--trace PREFIX] \
         [--advise] [--json] [--serial]"
    );
    std::process::exit(2);
}

struct Args {
    queue_path: PathBuf,
    priority: MetricPriority,
    strategy: PlannerStrategy,
    gpus: usize,
    trace_prefix: Option<PathBuf>,
    json: bool,
    advise: bool,
    gantt: bool,
    store_path: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut queue_path = None;
    let mut priority = MetricPriority::balanced_product();
    let mut strategy = PlannerStrategy::Auto;
    let mut gpus = 1usize;
    let mut trace_prefix = None;
    let mut json = false;
    let mut want_advice = false;
    let mut want_gantt = false;
    let mut store_path = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--priority" => {
                priority = match it.next().as_deref() {
                    Some("throughput") => MetricPriority::Throughput,
                    Some("energy") => MetricPriority::Energy,
                    Some("product") => MetricPriority::balanced_product(),
                    _ => usage(),
                }
            }
            "--strategy" => {
                strategy = match it.next().as_deref() {
                    Some("greedy") => PlannerStrategy::Greedy,
                    Some("bestfit") => PlannerStrategy::BestFit,
                    Some("auto") => PlannerStrategy::Auto,
                    Some("exhaustive") => PlannerStrategy::Exhaustive,
                    _ => usage(),
                }
            }
            "--gpus" => {
                gpus = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if gpus == 0 {
                    eprintln!("error: --gpus must be at least 1, got 0");
                    std::process::exit(2);
                }
            }
            "--trace" => trace_prefix = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--json" => json = true,
            "--serial" => mpshare_par::set_serial(true),
            "--advise" => want_advice = true,
            "--gantt" => want_gantt = true,
            "--store" => store_path = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "-h" | "--help" => usage(),
            other if queue_path.is_none() => queue_path = Some(PathBuf::from(other)),
            _ => usage(),
        }
    }
    Args {
        queue_path: queue_path.unwrap_or_else(|| usage()),
        priority,
        strategy,
        gpus,
        trace_prefix,
        json,
        advise: want_advice,
        gantt: want_gantt,
        store_path,
    }
}

fn run(args: Args) -> Result<(), String> {
    let body = std::fs::read_to_string(&args.queue_path)
        .map_err(|e| format!("cannot read {}: {e}", args.queue_path.display()))?;
    let spec: QueueSpec =
        serde_json::from_str(&body).map_err(|e| format!("invalid queue spec: {e}"))?;
    if spec.workflows.is_empty() {
        return Err("queue is empty".into());
    }
    for (i, w) in spec.workflows.iter().enumerate() {
        w.validate_fields(&format!("workflows[{i}]"))
            .map_err(|e| e.to_string())?;
    }
    for (i, &[before, after]) in spec.dependencies.iter().enumerate() {
        let n = spec.workflows.len();
        if before >= n || after >= n {
            return Err(format!(
                "dependencies[{i}]: workflow index out of range (queue has {n} workflows)"
            ));
        }
    }

    let device = DeviceSpec::a100x();

    // Offline profiling, with an optional persistent cache: rerunning the
    // scheduler against the same cluster skips the profiling runs.
    let mut store = match &args.store_path {
        Some(path) if path.exists() => {
            let s = ProfileStore::load(path).map_err(|e| e.to_string())?;
            eprintln!("loaded {} cached profiles from {}", s.len(), path.display());
            s
        }
        _ => ProfileStore::new(),
    };
    let runs = store
        .profile_workflows(&device, &spec.workflows)
        .map_err(|e| e.to_string())?;
    eprintln!("profiled {runs} distinct (benchmark, size) pairs");
    if let Some(path) = &args.store_path {
        store.save(path).map_err(|e| e.to_string())?;
        eprintln!("saved profile cache to {}", path.display());
    }
    let profiles: Vec<_> = spec
        .workflows
        .iter()
        .map(|w| workflow_profile(&store, w).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;

    if args.advise {
        eprintln!("advice (paper §VI recommendations):");
        for item in advise(&device, &profiles) {
            eprintln!("  - {item}");
        }
    }

    // Plan (respecting any declared inter-workflow dependencies).
    let planner = Planner::new(device.clone(), args.priority);
    let deps: Vec<Dependency> = spec
        .dependencies
        .iter()
        .map(|&[b, a]| Dependency::new(b, a))
        .collect();
    let plan = if deps.is_empty() {
        planner
            .plan(&profiles, args.strategy)
            .map_err(|e| e.to_string())?
    } else {
        let plan = plan_with_dependencies(&planner, &profiles, &deps, args.strategy)
            .map_err(|e| e.to_string())?;
        validate_dependencies(&plan, &deps).map_err(|e| e.to_string())?;
        plan
    };

    // Execute + evaluate (single GPU or node).
    let config = ExecutorConfig::new(device.clone());
    let (metrics, group_summary) = if args.gpus <= 1 {
        let executor = Executor::new(config.clone());
        let report = executor
            .evaluate_plan(&spec.workflows, &plan)
            .map_err(|e| e.to_string())?;
        (report.metrics, describe_groups(&plan, &profiles))
    } else {
        let devices = vec![device.clone(); args.gpus];
        let node =
            distribute_plan(&device, &devices, &plan, &profiles).map_err(|e| e.to_string())?;
        let exec = NodeExecutor::new(config.clone(), devices).map_err(|e| e.to_string())?;
        let metrics = exec
            .evaluate(&spec.workflows, &profiles, &node)
            .map_err(|e| e.to_string())?;
        let mut desc = String::new();
        for (g, gpu_plan) in node.per_gpu.iter().enumerate() {
            desc.push_str(&format!("gpu{g}:\n"));
            desc.push_str(&describe_groups(gpu_plan, &profiles));
        }
        (metrics, desc)
    };

    // Optional Gantt rendering of each group's actual overlap.
    if args.gantt {
        let executor = Executor::new(config.clone());
        let mut ids = mpshare_types::IdAllocator::new();
        for (i, group) in plan.groups.iter().enumerate() {
            let result = executor
                .run_group_raw(&spec.workflows, group, &mut ids)
                .map_err(|e| e.to_string())?;
            println!("group {} timeline:", i + 1);
            print!("{}", mpshare_harness::render_gantt(&result, 100));
        }
    }

    // Optional trace export (one file per group, single-GPU only).
    if let Some(prefix) = &args.trace_prefix {
        let executor = Executor::new(config);
        let mut ids = IdAllocator::new();
        for (i, group) in plan.groups.iter().enumerate() {
            let result = executor
                .run_group_raw(&spec.workflows, group, &mut ids)
                .map_err(|e| e.to_string())?;
            let path = prefix.with_extension(format!("group{i}.trace.json"));
            std::fs::write(&path, chrome_trace(&result)).map_err(|e| e.to_string())?;
            eprintln!("wrote {}", path.display());
        }
    }

    if args.json {
        let out = serde_json::json!({
            "plan": plan,
            "metrics": metrics,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    } else {
        println!("plan:\n{group_summary}");
        println!(
            "throughput gain: {:.3}x\nenergy-efficiency gain: {:.3}x\nT*E product: {:.3}",
            metrics.throughput_gain,
            metrics.energy_efficiency_gain,
            metrics.throughput_gain * metrics.energy_efficiency_gain
        );
    }
    Ok(())
}

fn describe_groups(
    plan: &mpshare_core::SchedulePlan,
    profiles: &[mpshare_core::WorkflowProfile],
) -> String {
    let mut out = String::new();
    for (i, g) in plan.groups.iter().enumerate() {
        let members: Vec<String> = g
            .workflow_indices
            .iter()
            .zip(&g.partitions)
            .map(|(&w, p)| format!("{} @{:.0}%", profiles[w].label, p.value() * 100.0))
            .collect();
        out.push_str(&format!("  group {}: {}\n", i + 1, members.join("  |  ")));
    }
    out
}

fn main() -> ExitCode {
    match run(parse_args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
