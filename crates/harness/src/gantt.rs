//! ASCII Gantt rendering of simulator runs.
//!
//! One row per client; each workflow task paints a run of characters
//! proportional to its duration (letters cycle per task so adjacent tasks
//! are distinguishable, `·` marks idle/host time). Gives a terminal-sized
//! picture of how a collocation group actually overlapped.

use mpshare_gpusim::RunResult;
use std::fmt::Write as _;

/// Renders a Gantt chart of `result` scaled to `width` columns.
pub fn render_gantt(result: &RunResult, width: usize) -> String {
    let width = width.clamp(20, 400);
    let makespan = result.makespan.value();
    if makespan <= 0.0 || result.clients.is_empty() {
        return String::from("(empty run)\n");
    }
    let col = |t: f64| ((t / makespan) * width as f64).round() as usize;

    let label_width = result
        .clients
        .iter()
        .map(|c| c.label.chars().count().min(28))
        .max()
        .unwrap_or(0);

    let mut out = String::new();
    for client in &result.clients {
        let mut row = vec!['·'; width];
        let mut cursor = client.started;
        for (index, completion) in client.completions.iter().enumerate() {
            let start = col(cursor.value());
            let end = col(completion.at.value()).max(start + 1).min(width);
            let glyph = (b'A' + (index % 26) as u8) as char;
            for cell in row.iter_mut().take(end).skip(start) {
                *cell = glyph;
            }
            cursor = completion.at;
        }
        let mut label: String = client.label.chars().take(28).collect();
        if client.label.chars().count() > 28 {
            label.push('…');
        }
        let _ = writeln!(
            out,
            "{label:<label_width$} |{}|",
            row.into_iter().collect::<String>()
        );
    }
    // Time axis.
    let axis = format!("0s{:>width$}", format!("{makespan:.1}s"), width = width - 2);
    let _ = writeln!(out, "{:<label_width$}  {axis}", "");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_gpusim::DeviceSpec;
    use mpshare_mps::{GpuRunner, GpuSharing};
    use mpshare_types::IdAllocator;
    use mpshare_workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};

    fn sample_run() -> RunResult {
        let device = DeviceSpec::a100x();
        let mut ids = IdAllocator::new();
        let programs = vec![
            WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 3)
                .to_client_program(&device, &mut ids)
                .unwrap(),
            WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X1, 2)
                .to_client_program(&device, &mut ids)
                .unwrap(),
        ];
        GpuRunner::new(device)
            .run(&GpuSharing::mps_default(2), programs)
            .unwrap()
    }

    #[test]
    fn gantt_has_one_row_per_client_plus_axis() {
        let result = sample_run();
        let chart = render_gantt(&result, 60);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('|'));
        assert!(lines[2].contains("0s"));
    }

    #[test]
    fn adjacent_tasks_use_distinct_glyphs() {
        let result = sample_run();
        let chart = render_gantt(&result, 80);
        let first_row = chart.lines().next().unwrap();
        // Three Kripke tasks -> glyphs A, B, C all present.
        assert!(first_row.contains('A'));
        assert!(first_row.contains('B'));
        assert!(first_row.contains('C'));
    }

    #[test]
    fn width_is_clamped() {
        let result = sample_run();
        let narrow = render_gantt(&result, 1);
        // Clamp floor is 20 columns between the pipes.
        let bar = narrow.lines().next().unwrap();
        let inner = bar.split('|').nth(1).unwrap();
        assert_eq!(inner.chars().count(), 20);
    }

    #[test]
    fn empty_run_renders_placeholder() {
        let result = RunResult {
            telemetry: mpshare_gpusim::Telemetry::new(),
            clients: vec![],
            makespan: mpshare_types::Seconds::ZERO,
            total_energy: mpshare_types::Energy::ZERO,
            tasks_completed: 0,
            tasks_failed: 0,
            events: mpshare_gpusim::EventLog::default(),
            failures: vec![],
            wasted_progress: mpshare_types::Seconds::ZERO,
            wasted_energy: mpshare_types::Energy::ZERO,
        };
        assert_eq!(render_gantt(&result, 60), "(empty run)\n");
    }
}
