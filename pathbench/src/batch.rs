//! The batch workloads (`table1`, `shared-callees`): each program is
//! compiled with `Session::compile` and checked on the calling thread
//! with `Session::check` (path-slice reducer, one job).

use crate::gen::BatchProgram;
use crate::layers::{self, Layers};
use crate::machine::{self, Speed};
use crate::report::{median, Report};
use blastlite::{CheckerConfig, DriverConfig, Reducer, Session};
use std::time::Instant;

/// One unit of measured work, raw, with when it ran.
struct Unit {
    start: Instant,
    end: Instant,
    wall_s: f64,
    cpu_s: f64,
    cluster_ms: Vec<f64>,
}

/// One pass over every program with fresh sessions, so no pass inherits
/// a warm `By` memo from the one before: the compile unit, then one
/// check unit per program.
struct Pass {
    setup: Unit,
    checks: Vec<Unit>,
    layers: Option<Layers>,
}

/// A pass with machine-normalized timings, `(scaled, raw)`.
struct Scaled {
    setup_s: (f64, f64),
    verify_s: (f64, f64),
    cpu_s: (f64, f64),
    cluster_ms: Vec<(f64, f64)>,
}

impl Pass {
    fn scaled(&self, speed: &Speed) -> Scaled {
        let k = speed.scale(self.setup.start, self.setup.end);
        let mut s = Scaled {
            setup_s: (self.setup.wall_s * k, self.setup.wall_s),
            verify_s: (0.0, 0.0),
            cpu_s: (0.0, 0.0),
            cluster_ms: Vec::new(),
        };
        for u in &self.checks {
            let k = speed.scale(u.start, u.end);
            s.verify_s = (s.verify_s.0 + u.wall_s * k, s.verify_s.1 + u.wall_s);
            s.cpu_s = (s.cpu_s.0 + u.cpu_s * k, s.cpu_s.1 + u.cpu_s);
            s.cluster_ms
                .extend(u.cluster_ms.iter().map(|&ms| (ms * k, ms)));
        }
        s
    }
}

fn config() -> CheckerConfig {
    CheckerConfig {
        reducer: Reducer::path_slice(),
        ..CheckerConfig::default()
    }
}

/// Compares one program's verdicts with its oracle: exactly the planted
/// `m{b}_read` clusters are `BUG`, every other cluster is `SAFE`.
pub fn judge(p: &BatchProgram, report: &blastlite::DriverReport, out: &mut Report) {
    let mut bugs = Vec::new();
    for c in &report.clusters {
        let o = &c.cluster.report.outcome;
        let name = &c.cluster.func_name;
        out.attempted += 1;
        if o.is_bug() {
            bugs.push(name.clone());
        } else if !o.is_safe() {
            out.failed += 1;
            out.error(format!(
                "{}: cluster {name} ended {}",
                p.name,
                o.kind_label()
            ));
        }
        let planted = p.bug_clusters.contains(name);
        if (planted && !o.is_bug()) || (!planted && !o.is_safe()) {
            out.wrong += 1;
        }
    }
    if bugs != p.bug_clusters {
        out.error(format!(
            "{}: BUG clusters {bugs:?}, oracle says {:?}",
            p.name, p.bug_clusters
        ));
    }
}

fn pass(programs: &[BatchProgram], traced: bool, speed: &mut Speed, out: &mut Report) -> Pass {
    speed.sample();
    obs::set_enabled(traced);
    obs::reset();
    let start = Instant::now();
    let sessions: Vec<Session> = programs
        .iter()
        .map(|p| Session::compile(&p.source, &p.name).expect("generated source compiles"))
        .collect();
    let end = Instant::now();
    speed.sample();
    let setup = Unit {
        start,
        end,
        wall_s: (end - start).as_secs_f64(),
        cpu_s: 0.0,
        cluster_ms: Vec::new(),
    };
    let mut checks = Vec::new();
    let driver = DriverConfig::sequential().with_jobs(1);
    for (p, s) in programs.iter().zip(&sessions) {
        let cpu0 = machine::process_cpu_s();
        let start = Instant::now();
        let report = s.check(config(), &driver);
        let end = Instant::now();
        let cpu_s = machine::process_cpu_s() - cpu0;
        speed.sample();
        checks.push(Unit {
            start,
            end,
            wall_s: (end - start).as_secs_f64(),
            cpu_s,
            cluster_ms: report
                .clusters
                .iter()
                .map(|c| c.cluster.report.wall.as_secs_f64() * 1e3)
                .collect(),
        });
        judge(p, &report, out);
    }
    let layers = traced.then(|| {
        let mut l = Layers::from_obs(obs::take_spans(), obs::counters());
        obs::set_enabled(false);
        l.front_end(programs.iter().map(|p| p.source.as_str()));
        l
    });
    obs::set_enabled(false);
    Pass {
        setup,
        checks,
        layers,
    }
}

/// Runs passes until `seconds` have elapsed (at least two), then
/// reports the end-to-end metrics, or with `trace` the per-layer ones.
pub fn run(programs: &[BatchProgram], seconds: f64, trace: bool) -> Report {
    let mut out = Report::default();
    let start = Instant::now();
    let mut speed = Speed::default();
    let mut passes = Vec::new();
    // A traced run starts with an untraced warm-up pass, then runs
    // traced and untraced passes in T T U U order, so tracing overhead
    // is measured across the same host drift and at least two traced
    // passes let the deterministic counters be compared.
    let min_passes = if trace { 5 } else { 2 };
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && matches!(passes.len() % 4, 1 | 2);
        let p = pass(programs, traced, &mut speed, &mut out);
        let raw: f64 = p.checks.iter().map(|u| u.wall_s).sum();
        eprintln!(
            "pathbench: pass {}: setup {:.6} s, verify {raw:.6} s (raw)",
            passes.len(),
            p.setup.wall_s
        );
        passes.push(p);
        if !out.errors.is_empty() {
            break;
        }
    }
    eprintln!("pathbench: kernel points {:.3?} ms", speed.points_ms());
    let scaled: Vec<Scaled> = passes.iter().map(|p| p.scaled(&speed)).collect();
    if trace {
        report_layers(&passes, &scaled, &speed, &mut out);
    } else {
        report_end_to_end(&scaled, &speed, &mut out);
    }
    out
}

fn medians(passes: &[Scaled], f: impl Fn(&Scaled) -> (f64, f64)) -> (f64, f64) {
    let s: Vec<f64> = passes.iter().map(|p| f(p).0).collect();
    let r: Vec<f64> = passes.iter().map(|p| f(p).1).collect();
    (median(&s), median(&r))
}

fn report_end_to_end(passes: &[Scaled], speed: &Speed, out: &mut Report) {
    let n = passes.len();
    let (v, r) = medians(passes, |p| p.setup_s);
    out.timing("setup_s", "s", v, r, n);
    let (v, r) = medians(passes, |p| p.verify_s);
    out.timing("verify_s", "s", v, r, n);
    let (v, r) = medians(passes, |p| p.cpu_s);
    out.timing("verify_cpu_s", "s", v, r, n);
    let items: Vec<(f64, f64)> = passes
        .iter()
        .flat_map(|p| p.cluster_ms.iter().copied())
        .collect();
    out.percentile("item_p50_ms", 0.5, &items);
    out.percentile("item_p90_ms", 0.9, &items);
    common_end_to_end(out);
    out.notes.push(format!(
        "bench.ref_ms {:.4} (median of {} kernel point(s))",
        speed.ref_ms(),
        speed.points_ms().len()
    ));
}

/// The end-to-end metrics every workload reports the same way. The
/// shares are over attempted items; errors that are not about an item's
/// verdict (a thin tail, a journal shortfall) fail the run but do not
/// move them.
pub fn common_end_to_end(out: &mut Report) {
    out.put("peak_rss_mb", "MiB", machine::peak_rss_mb(), 1);
    let attempted = out.attempted.max(1) as f64;
    out.put(
        "verdicts_correct",
        "share",
        1.0 - (out.wrong as f64 / attempted).min(1.0),
        out.attempted as usize,
    );
    out.put(
        "ok_share",
        "share",
        1.0 - out.failed as f64 / attempted,
        out.attempted as usize,
    );
}

fn report_layers(passes: &[Pass], scaled: &[Scaled], speed: &Speed, out: &mut Report) {
    let verify = |traced: bool| {
        let v: Vec<f64> = passes
            .iter()
            .zip(scaled)
            .skip(1)
            .filter(|(p, _)| p.layers.is_some() == traced)
            .map(|(_, s)| s.verify_s.0)
            .collect();
        median(&v)
    };
    let overhead = verify(true) / verify(false) - 1.0;
    let per_pass: Vec<(Layers, f64)> = passes
        .iter()
        .zip(scaled)
        .filter_map(|(p, s)| Some((p.layers.clone()?, s.verify_s.0 / s.verify_s.1)))
        .collect();
    layers::check_repeats(&per_pass, out);
    layers::report(&per_pass, None, overhead, speed.ref_ms(), out);
}
