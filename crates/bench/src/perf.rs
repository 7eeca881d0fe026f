//! `repro perf`: wall-clock A/B harness for the runner optimisations.
//!
//! Times the Table III and Fig. 4 sweeps across the {serial, parallel} ×
//! {heap, calendar} × {scan, indexed} × {route scan, route cached} ×
//! {exec serial, exec sharded} axes by flipping the `SOC_BENCH_THREADS`,
//! `SOC_SIM_QUEUE`, `SOC_CACHE`, `SOC_ROUTE` and `SOC_SIM_EXEC`
//! environment variables (all re-read per sweep / per queue/cache/router/
//! driver construction precisely so one process can compare them), and
//! cross-checks that all configurations produce **bitwise identical**
//! reports — the optimisations must never change simulation results. The
//! exec axis is the intra-run sharded driver: unlike the `mode` axis
//! (which parallelises *across* sweep cells), `exec=sharded` parallelises
//! *inside* a single run by executing shard event windows on worker
//! threads.
//!
//! The result is appended to the `bench_history/` store (one record per
//! run, stamped with git rev + rustc — see [`crate::history`]) through the
//! shared `soc_sim::json` writer.

use crate::{fig4, sweep, table3, Scale};
use soc_sim::RunReport;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed sweep execution.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Which sweep ran (`table3` / `fig4`).
    pub sweep: &'static str,
    /// `serial` or `parallel`.
    pub mode: &'static str,
    /// `heap` or `calendar`.
    pub queue: &'static str,
    /// `scan` or `indexed` record caches.
    pub cache: &'static str,
    /// `scan` or `cached` next-hop routing.
    pub route: &'static str,
    /// `serial` or `sharded` windowed-executor driver.
    pub exec: &'static str,
    /// Worker threads the sweep engine used.
    pub threads: usize,
    /// Wall-clock milliseconds.
    pub wall_ms: u128,
    /// Per-cell wall times (ms) from the run that achieved `wall_ms` —
    /// `sum(cells)/max(cells)` bounds the sweep's parallel speedup.
    pub cell_ms: Vec<u128>,
}

/// Everything `repro perf` measured.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Scale label (`smoke` / `full` / `bench`).
    pub scale: &'static str,
    /// Master seed used for every cell.
    pub seed: u64,
    /// Threads the parallel mode used (honest: 1 on a 1-core host).
    pub parallel_threads: usize,
    /// All timed runs.
    pub rows: Vec<PerfRow>,
    /// Did every configuration produce bitwise-identical reports?
    pub deterministic: bool,
}

/// Set (or clear) an environment knob for the duration of the returned
/// guard, restoring the previous value on drop. The knobs are re-read per
/// sweep / per construction precisely so one process can compare
/// configurations; callers must not overlap guards for the same key.
pub(crate) fn env_guard(key: &'static str, value: Option<String>) -> impl Drop {
    struct Restore {
        key: &'static str,
        prev: Option<String>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.prev.take() {
                Some(v) => std::env::set_var(self.key, v),
                None => std::env::remove_var(self.key),
            }
        }
    }
    let prev = std::env::var(key).ok();
    match value {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    Restore { key, prev }
}

/// One grid configuration.
#[derive(Clone, Copy, Debug)]
struct Config {
    mode: &'static str,
    threads: usize,
    queue: &'static str,
    cache: &'static str,
    route: &'static str,
    exec: &'static str,
}

/// Time one configuration once; returns the two rows plus the concatenated
/// fingerprints of every report produced.
fn run_config(scale: Scale, seed: u64, cfg: Config) -> (Vec<PerfRow>, String) {
    let _t = env_guard("SOC_BENCH_THREADS", Some(cfg.threads.to_string()));
    let _q = env_guard("SOC_SIM_QUEUE", Some(cfg.queue.to_string()));
    let _c = env_guard("SOC_CACHE", Some(cfg.cache.to_string()));
    let _r = env_guard("SOC_ROUTE", Some(cfg.route.to_string()));
    let _e = env_guard("SOC_SIM_EXEC", Some(cfg.exec.to_string()));
    // Wall times must stay honest (and comparable with pre-profiler
    // history records): grid timing always runs with the profiler off,
    // whatever the ambient environment says. Attribution has its own
    // dedicated cell — see `profile_attribution`.
    let _p = env_guard("SOC_PROFILE", Some("off".to_string()));
    let mut rows = Vec::new();
    let mut prints = String::new();

    let start = Instant::now();
    let t3 = table3(scale, seed);
    rows.push(PerfRow {
        sweep: "table3",
        mode: cfg.mode,
        queue: cfg.queue,
        cache: cfg.cache,
        route: cfg.route,
        exec: cfg.exec,
        threads: cfg.threads,
        wall_ms: start.elapsed().as_millis(),
        cell_ms: t3.iter().map(|r| r.wall_ms).collect(),
    });
    for r in &t3 {
        let _ = writeln!(prints, "{}", r.fingerprint());
    }

    let start = Instant::now();
    let f4 = fig4(scale, seed);
    rows.push(PerfRow {
        sweep: "fig4",
        mode: cfg.mode,
        queue: cfg.queue,
        cache: cfg.cache,
        route: cfg.route,
        exec: cfg.exec,
        threads: cfg.threads,
        wall_ms: start.elapsed().as_millis(),
        cell_ms: f4
            .iter()
            .flat_map(|(_, g)| g.iter().map(|r| r.wall_ms))
            .collect(),
    });
    for (_, group) in &f4 {
        for r in group {
            let _ = writeln!(prints, "{}", r.fingerprint());
        }
    }
    (rows, prints)
}

/// Run the comparison grid, `reps` times interleaved; each row keeps its
/// best (minimum) wall time, the standard noise-robust estimator for
/// shared runners.
///
/// The grid is the serial/parallel × heap/calendar square at the default
/// indexed cache and cached routing, plus scan-cache counterpoints on the
/// two serial corners and a scan-route counterpoint on the fully
/// optimised serial corner — enough to isolate each axis (queue, cache,
/// route, threads) without paying for the full cube on every CI run.
/// Every base configuration is then timed under **both** executor
/// drivers (`exec=serial` and `exec=sharded`), doubling the grid to 14
/// rows, so the intra-run sharding speedup is measured at every corner
/// rather than only on the optimised one.
pub fn perf_compare(scale: Scale, scale_label: &'static str, seed: u64, reps: usize) -> PerfReport {
    let parallel_threads = sweep::thread_count();
    let base: [Config; 7] = [
        Config {
            mode: "serial",
            threads: 1,
            queue: "heap",
            cache: "scan",
            route: "cached",
            exec: "serial",
        },
        Config {
            mode: "serial",
            threads: 1,
            queue: "heap",
            cache: "indexed",
            route: "cached",
            exec: "serial",
        },
        Config {
            mode: "serial",
            threads: 1,
            queue: "calendar",
            cache: "scan",
            route: "cached",
            exec: "serial",
        },
        Config {
            mode: "serial",
            threads: 1,
            queue: "calendar",
            cache: "indexed",
            route: "scan",
            exec: "serial",
        },
        Config {
            mode: "serial",
            threads: 1,
            queue: "calendar",
            cache: "indexed",
            route: "cached",
            exec: "serial",
        },
        Config {
            mode: "parallel",
            threads: parallel_threads,
            queue: "calendar",
            cache: "scan",
            route: "cached",
            exec: "serial",
        },
        Config {
            mode: "parallel",
            threads: parallel_threads,
            queue: "calendar",
            cache: "indexed",
            route: "cached",
            exec: "serial",
        },
    ];
    let grid: Vec<Config> = base
        .iter()
        .flat_map(|c| {
            ["serial", "sharded"]
                .into_iter()
                .map(|exec| Config { exec, ..*c })
        })
        .collect();
    let mut rows: Vec<PerfRow> = Vec::new();
    let mut fingerprints: Vec<String> = Vec::new();
    for rep in 0..reps.max(1) {
        // Interleaving the grid across reps (instead of repeating each
        // config back-to-back) spreads slow-machine phases fairly.
        for &cfg in &grid {
            eprintln!(
                "perf: rep {rep}: timing {}+{}+{}+route-{}+exec-{} (threads={}) ...",
                cfg.mode, cfg.queue, cfg.cache, cfg.route, cfg.exec, cfg.threads
            );
            let (timed, fp) = run_config(scale, seed, cfg);
            fingerprints.push(fp);
            for t in timed {
                match rows.iter_mut().find(|r| {
                    r.sweep == t.sweep
                        && r.mode == t.mode
                        && r.queue == t.queue
                        && r.cache == t.cache
                        && r.route == t.route
                        && r.exec == t.exec
                }) {
                    Some(r) => {
                        if t.wall_ms < r.wall_ms {
                            r.wall_ms = t.wall_ms;
                            r.cell_ms = t.cell_ms;
                        }
                    }
                    None => rows.push(t),
                }
            }
        }
    }
    let deterministic = fingerprints.windows(2).all(|w| w[0] == w[1]);
    PerfReport {
        scale: scale_label,
        seed,
        parallel_threads,
        rows,
        deterministic,
    }
}

/// Per-phase attribution run: the largest Table III cell (most nodes,
/// λ=0.5, HID-CAN) once with `SOC_PROFILE=on`, rendered as the profiler's
/// attribution table. Runs *outside* the timed grid so the timing rows
/// stay profiler-free; returns `None` only if the runner produced no
/// summary (impossible unless the knob plumbing broke — surfaced rather
/// than panicking so `repro perf` degrades readably).
pub fn profile_attribution(scale: Scale, seed: u64) -> Option<String> {
    use crate::ProtocolChoice;
    let _p = env_guard("SOC_PROFILE", Some("on".to_string()));
    let nodes = *scale.table3_nodes.last().expect("table3 node grid");
    let report = scale
        .scenario(ProtocolChoice::Hid)
        .nodes(nodes)
        .lambda(0.5)
        .seed(seed)
        .run();
    attribution_table(&format!("HID-CAN n={nodes} λ=0.5 seed={seed}"), &report)
}

/// The profiler's per-phase attribution table for `report` under a
/// `what` heading; `None` when the run carried no profile (`SOC_PROFILE`
/// off).
pub fn attribution_table(what: &str, report: &RunReport) -> Option<String> {
    let profile = report.profile.as_ref()?;
    let mut out = format!(
        "== phase attribution: {what} (SOC_PROFILE=on, wall {} ms) ==\n",
        report.wall_ms
    );
    out.push_str(&profile.render());
    Some(out)
}

impl PerfReport {
    #[allow(clippy::too_many_arguments)]
    fn wall(
        &self,
        sweep: &str,
        mode: &str,
        queue: &str,
        cache: &str,
        route: &str,
        exec: &str,
    ) -> Option<u128> {
        self.rows
            .iter()
            .find(|r| {
                r.sweep == sweep
                    && r.mode == mode
                    && r.queue == queue
                    && r.cache == cache
                    && r.route == route
                    && r.exec == exec
            })
            .map(|r| r.wall_ms)
    }

    /// `baseline / optimised` for one sweep (≥ 1 means the fully optimised
    /// configuration — parallel, calendar queue, indexed caches, cached
    /// routing — is faster than serial+heap+scan). Both sides run the
    /// serial executor so the axis stays comparable with history records
    /// that predate `SOC_SIM_EXEC`.
    pub fn speedup(&self, sweep: &str) -> Option<f64> {
        let base = self.wall(sweep, "serial", "heap", "scan", "cached", "serial")?;
        let opt = self.wall(sweep, "parallel", "calendar", "indexed", "cached", "serial")?;
        Some(base as f64 / (opt.max(1)) as f64)
    }

    /// Cache-axis speedup in isolation (serial, calendar queue, cached
    /// routing): `scan / indexed`.
    pub fn cache_speedup(&self, sweep: &str) -> Option<f64> {
        let scan = self.wall(sweep, "serial", "calendar", "scan", "cached", "serial")?;
        let indexed = self.wall(sweep, "serial", "calendar", "indexed", "cached", "serial")?;
        Some(scan as f64 / (indexed.max(1)) as f64)
    }

    /// Route-axis speedup in isolation (serial, calendar queue, indexed
    /// caches): `route scan / route cached`.
    pub fn route_speedup(&self, sweep: &str) -> Option<f64> {
        let scan = self.wall(sweep, "serial", "calendar", "indexed", "scan", "serial")?;
        let cached = self.wall(sweep, "serial", "calendar", "indexed", "cached", "serial")?;
        Some(scan as f64 / (cached.max(1)) as f64)
    }

    /// Exec-axis speedup in isolation: the sharded driver vs the serial
    /// driver on the otherwise fully optimised **serial-mode** corner
    /// (1 sweep thread, calendar queue, indexed caches, cached routing).
    /// Measured in serial mode so intra-run worker threads do not contend
    /// with the sweep engine's own cell-level threads.
    pub fn exec_speedup(&self, sweep: &str) -> Option<f64> {
        let serial = self.wall(sweep, "serial", "calendar", "indexed", "cached", "serial")?;
        let sharded = self.wall(sweep, "serial", "calendar", "indexed", "cached", "sharded")?;
        Some(serial as f64 / (sharded.max(1)) as f64)
    }

    /// Human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::from("sweep\tmode\tqueue\tcache\troute\texec\tthreads\twall_ms\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.sweep, r.mode, r.queue, r.cache, r.route, r.exec, r.threads, r.wall_ms
            );
        }
        for sweep in ["table3", "fig4"] {
            if let Some(s) = self.speedup(sweep) {
                let _ = writeln!(
                    out,
                    "# {sweep}: parallel+calendar+indexed is {s:.2}x vs serial+heap+scan"
                );
            }
            if let Some(s) = self.cache_speedup(sweep) {
                let _ = writeln!(
                    out,
                    "# {sweep}: indexed cache alone is {s:.2}x vs scan (serial+calendar)"
                );
            }
            if let Some(s) = self.route_speedup(sweep) {
                let _ = writeln!(
                    out,
                    "# {sweep}: cached routing alone is {s:.2}x vs scan (serial+calendar+indexed)"
                );
            }
            if let Some(s) = self.exec_speedup(sweep) {
                let _ = writeln!(
                    out,
                    "# {sweep}: sharded executor alone is {s:.2}x vs serial exec (serial+calendar+indexed+cached)"
                );
            }
        }
        let _ = writeln!(
            out,
            "# reports bitwise-identical across all configs: {}",
            self.deterministic
        );
        out
    }

    /// Serialize through the shared hand-rolled JSON writer
    /// (`soc_sim::json`; no serde offline) — stable key order.
    pub fn to_json(&self) -> String {
        use soc_sim::json::{array, Obj};
        let rows = array(self.rows.iter().map(|r| {
            Obj::new()
                .str("sweep", r.sweep)
                .str("mode", r.mode)
                .str("queue", r.queue)
                .str("cache", r.cache)
                .str("route", r.route)
                .str("exec", r.exec)
                .u64("threads", r.threads as u64)
                .u64("wall_ms", r.wall_ms as u64)
                .raw("cell_ms", &array(r.cell_ms.iter().map(|c| c.to_string())))
                .finish()
        }));
        let speedup = |v: Option<f64>| {
            v.map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "null".into())
        };
        let mut out = Obj::new()
            .str("bench", "sweep+queue+cache+route perf grid")
            .str("scale", self.scale)
            .u64("seed", self.seed)
            .u64("parallel_threads", self.parallel_threads as u64)
            .bool("deterministic", self.deterministic)
            .raw(
                "speedup_table3_optimised_vs_serial_heap_scan",
                &speedup(self.speedup("table3")),
            )
            .raw(
                "speedup_fig4_optimised_vs_serial_heap_scan",
                &speedup(self.speedup("fig4")),
            )
            .raw(
                "speedup_table3_indexed_cache_vs_scan",
                &speedup(self.cache_speedup("table3")),
            )
            .raw(
                "speedup_fig4_indexed_cache_vs_scan",
                &speedup(self.cache_speedup("fig4")),
            )
            .raw(
                "speedup_table3_cached_route_vs_scan",
                &speedup(self.route_speedup("table3")),
            )
            .raw(
                "speedup_fig4_cached_route_vs_scan",
                &speedup(self.route_speedup("fig4")),
            )
            .raw(
                "speedup_table3_sharded_exec_vs_serial",
                &speedup(self.exec_speedup("table3")),
            )
            .raw(
                "speedup_fig4_sharded_exec_vs_serial",
                &speedup(self.exec_speedup("fig4")),
            )
            .raw("rows", &rows)
            .finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_types::knobs;

    #[test]
    fn json_shape_is_sane() {
        let rep = PerfReport {
            scale: "bench",
            seed: 1,
            parallel_threads: 4,
            rows: vec![
                PerfRow {
                    sweep: "table3",
                    mode: "serial",
                    queue: "heap",
                    cache: "scan",
                    route: "cached",
                    exec: "serial",
                    threads: 1,
                    wall_ms: 100,
                    cell_ms: vec![20, 30, 50],
                },
                PerfRow {
                    sweep: "table3",
                    mode: "serial",
                    queue: "calendar",
                    cache: "scan",
                    route: "cached",
                    exec: "serial",
                    threads: 1,
                    wall_ms: 80,
                    cell_ms: vec![15, 25, 40],
                },
                PerfRow {
                    sweep: "table3",
                    mode: "serial",
                    queue: "calendar",
                    cache: "indexed",
                    route: "scan",
                    exec: "serial",
                    threads: 1,
                    wall_ms: 60,
                    cell_ms: vec![12, 18, 30],
                },
                PerfRow {
                    sweep: "table3",
                    mode: "serial",
                    queue: "calendar",
                    cache: "indexed",
                    route: "cached",
                    exec: "serial",
                    threads: 1,
                    wall_ms: 40,
                    cell_ms: vec![8, 12, 20],
                },
                PerfRow {
                    sweep: "table3",
                    mode: "serial",
                    queue: "calendar",
                    cache: "indexed",
                    route: "cached",
                    exec: "sharded",
                    threads: 1,
                    wall_ms: 16,
                    cell_ms: vec![4, 5, 7],
                },
                PerfRow {
                    sweep: "table3",
                    mode: "parallel",
                    queue: "calendar",
                    cache: "indexed",
                    route: "cached",
                    exec: "serial",
                    threads: 4,
                    wall_ms: 25,
                    cell_ms: vec![8, 12, 20],
                },
            ],
            deterministic: true,
        };
        assert_eq!(rep.speedup("table3"), Some(4.0));
        assert_eq!(rep.cache_speedup("table3"), Some(2.0));
        assert_eq!(rep.route_speedup("table3"), Some(1.5));
        assert_eq!(rep.exec_speedup("table3"), Some(2.5));
        let j = rep.to_json();
        assert!(j.contains("\"deterministic\":true"));
        assert!(j.contains("\"cache\":\"indexed\""));
        assert!(j.contains("\"route\":\"cached\""));
        assert!(j.contains("\"exec\":\"sharded\""));
        assert!(j.contains("\"wall_ms\":25"));
        assert!(j.contains("\"cell_ms\":[20,30,50]"));
        assert!(j.contains("\"speedup_table3_indexed_cache_vs_scan\":2.000"));
        assert!(j.contains("\"speedup_table3_cached_route_vs_scan\":1.500"));
        assert!(j.contains("\"speedup_table3_sharded_exec_vs_serial\":2.500"));
        assert!(j.contains("\"speedup_fig4_sharded_exec_vs_serial\":null"));
        assert!(j.trim_end().ends_with('}'));
        let t = rep.render();
        assert!(t.contains("4.00x"));
        assert!(t.contains("2.00x"));
        assert!(t.contains("1.50x"));
        assert!(t.contains("2.50x"));
    }

    #[test]
    fn env_guard_restores() {
        std::env::set_var("SOC_PERF_GUARD_TEST", "orig");
        {
            let _g = env_guard("SOC_PERF_GUARD_TEST", Some("temp".into()));
            assert_eq!(knobs::raw("SOC_PERF_GUARD_TEST").unwrap(), "temp");
        }
        assert_eq!(knobs::raw("SOC_PERF_GUARD_TEST").unwrap(), "orig");
        std::env::remove_var("SOC_PERF_GUARD_TEST");
    }
}
