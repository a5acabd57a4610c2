//! Per-layer numbers for the traced run.
//!
//! Inside the checker the benchmark reads only the `obs` spans and
//! counters the program already emits; the front end is timed from
//! outside, around the public `imp::parse`, `cfa::lower` and
//! `Analyses::build` calls. Every workload prints every per-layer
//! metric; a layer the workload does not exercise reads 0.

use crate::report::{median, Report};
use obs::{PhaseStat, SpanRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// Counters that must repeat exactly between two runs of the same
/// inputs: they count work, not time.
pub const DETERMINISTIC: [&str; 7] = [
    "lia.checks",
    "reach.states",
    "checker.rounds",
    "slice.edges_kept",
    "reach.post_cache_hits",
    "reach.post_cache_misses",
    "incr.verdict_reused",
];

/// What one traced unit of work (a batch pass, or the measured phase of
/// a serve episode) recorded.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub phases: BTreeMap<String, PhaseStat>,
    pub counters: BTreeMap<&'static str, u64>,
    pub parse_ms: f64,
    pub lower_ms: f64,
    pub build_ms: f64,
    /// Passes this record covers (per-pass figures divide by it).
    pub passes: f64,
}

/// Serve-only per-layer numbers, already normalized.
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    pub update_ms: f64,
    pub fn_hit_share: f64,
    pub queue_ms: f64,
    pub service_ms: f64,
    pub wire_ms: f64,
    pub other_ms: f64,
    pub verdict_hit_share: f64,
    pub analysis_hit_share: f64,
    pub replay_ms: f64,
    pub journal_recovered: f64,
    pub journal_rejected: f64,
    pub overloaded: f64,
    /// `reach` spans opened under warm (verdict-cache) requests.
    pub warm_reach_spans: f64,
    /// `(scaled, raw)` latencies per request class.
    pub cold: Vec<(f64, f64)>,
    pub warm: Vec<(f64, f64)>,
    pub edit: Vec<(f64, f64)>,
}

impl Layers {
    pub fn from_obs(spans: Vec<SpanRecord>, counters: BTreeMap<&'static str, u64>) -> Layers {
        Layers {
            phases: obs::phase_totals(&spans),
            counters,
            passes: 1.0,
            ..Layers::default()
        }
    }

    /// Times the front end on `sources` through its public calls.
    pub fn front_end<'s>(&mut self, sources: impl Iterator<Item = &'s str>) {
        for src in sources {
            let t = Instant::now();
            let ast = imp::parse(src).expect("benchmark source parses");
            self.parse_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let program = cfa::lower(&ast).expect("benchmark source lowers");
            cfa::validate(&program).expect("benchmark program validates");
            self.lower_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let analyses = dataflow::Analyses::build(&program);
            std::hint::black_box(&analyses);
            self.build_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64 / self.passes
    }

    fn self_ms(&self, phase: &str) -> f64 {
        self.phases.get(phase).map_or(0.0, |p| p.self_us as f64) / 1e3 / self.passes
    }

    fn total_ms(&self, phase: &str) -> f64 {
        self.phases.get(phase).map_or(0.0, |p| p.total_us as f64) / 1e3 / self.passes
    }
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fails the run unless every deterministic counter reads the same in
/// every record.
pub fn check_repeats(records: &[(Layers, f64)], out: &mut Report) {
    let Some((first, _)) = records.first() else {
        return;
    };
    let total = |l: &Layers, name: &str| l.counters.get(name).copied().unwrap_or(0);
    for (other, _) in &records[1..] {
        for name in DETERMINISTIC {
            let (a, b) = (total(first, name), total(other, name));
            if a != b {
                out.error(format!(
                    "deterministic counter {name} did not repeat: {a} then {b}"
                ));
            }
        }
    }
    out.notes.push(format!(
        "deterministic counters compared across {} traced record(s): {}",
        records.len(),
        DETERMINISTIC
            .iter()
            .map(|n| format!("{n}={}", total(first, n)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let zero: Vec<&str> = first
        .counters
        .iter()
        .filter(|(_, &v)| v == 0)
        .map(|(&k, _)| k)
        .collect();
    out.notes.push(format!(
        "counters reading zero in the traced window: {}",
        zero.join(" ")
    ));
}

/// Prints every per-layer metric. `records` are traced units with the
/// machine scale of each; timings are medians over them.
pub fn report(
    records: &[(Layers, f64)],
    serve: Option<&ServeLayers>,
    overhead_share: f64,
    ref_ms: f64,
    out: &mut Report,
) {
    let n = records.len();
    let ms = |f: &dyn Fn(&Layers) -> f64| {
        median(&records.iter().map(|(l, k)| f(l) * k).collect::<Vec<_>>())
    };
    let count =
        |f: &dyn Fn(&Layers) -> f64| median(&records.iter().map(|(l, _)| f(l)).collect::<Vec<_>>());
    out.put("imp.parse_ms", "ms", ms(&|l| l.parse_ms / l.passes), n);
    out.put("cfa.lower_ms", "ms", ms(&|l| l.lower_ms / l.passes), n);
    out.put("dataflow.build_ms", "ms", ms(&|l| l.build_ms / l.passes), n);
    out.put(
        "dataflow.by_memo_hit_share",
        "share",
        count(&|l| {
            let h = l.counter("by.memo_hits");
            share(h, h + l.counter("by.memo_misses"))
        }),
        n,
    );
    let s = serve.cloned().unwrap_or_default();
    out.put("incr.update_ms", "ms", s.update_ms, n);
    out.put("incr.fn_hit_share", "share", s.fn_hit_share, n);
    out.put(
        "incr.verdict_reused",
        "count",
        count(&|l| l.counter("incr.verdict_reused")),
        n,
    );
    out.put(
        "incr.cert_rejected",
        "count",
        count(&|l| l.counter("incr.cert_rejected")),
        n,
    );
    out.put(
        "blastlite.check_ms",
        "ms",
        ms(&|l| l.total_ms("attempt")),
        n,
    );
    out.put("blastlite.reach_ms", "ms", ms(&|l| l.self_ms("reach")), n);
    out.put(
        "blastlite.reach_share",
        "share",
        count(&|l| share(l.self_ms("reach"), l.total_ms("attempt"))),
        n,
    );
    out.put(
        "blastlite.reach_states",
        "count",
        count(&|l| l.counter("reach.states")),
        n,
    );
    out.put(
        "blastlite.post_cache_hit_share",
        "share",
        count(&|l| {
            let h = l.counter("reach.post_cache_hits");
            share(h, h + l.counter("reach.post_cache_misses"))
        }),
        n,
    );
    out.put(
        "blastlite.post_cache_hits",
        "count",
        count(&|l| l.counter("reach.post_cache_hits")),
        n,
    );
    out.put(
        "blastlite.post_cache_misses",
        "count",
        count(&|l| l.counter("reach.post_cache_misses")),
        n,
    );
    out.put(
        "blastlite.rounds",
        "count",
        count(&|l| l.counter("checker.rounds")),
        n,
    );
    out.put("blastlite.refine_ms", "ms", ms(&|l| l.self_ms("refine")), n);
    out.put("slicer.slice_ms", "ms", ms(&|l| l.self_ms("slice")), n);
    out.put(
        "slicer.kept_share",
        "share",
        count(&|l| {
            let k = l.counter("slice.edges_kept");
            share(k, k + l.counter("slice.edges_dropped"))
        }),
        n,
    );
    out.put(
        "slicer.edges_kept",
        "count",
        count(&|l| l.counter("slice.edges_kept")),
        n,
    );
    out.put("semantics.encode_ms", "ms", ms(&|l| l.self_ms("encode")), n);
    out.put(
        "lia.checks",
        "count",
        count(&|l| l.counter("lia.checks")),
        n,
    );
    out.put("lia.solve_ms", "ms", ms(&|l| l.self_ms("solve")), n);
    out.put(
        "lia.checks_per_state",
        "ratio",
        count(&|l| share(l.counter("lia.checks"), l.counter("reach.states"))),
        n,
    );
    out.put("certify.report_ms", "ms", ms(&|l| l.total_ms("certify")), n);
    out.put("server.queue_ms", "ms", s.queue_ms, n);
    out.put("server.service_ms", "ms", s.service_ms, n);
    out.put("server.wire_ms", "ms", s.wire_ms, n);
    out.put("server.other_ms", "ms", s.other_ms, n);
    out.put("server.verdict_hit_share", "share", s.verdict_hit_share, n);
    out.put(
        "server.analysis_hit_share",
        "share",
        s.analysis_hit_share,
        n,
    );
    out.put("server.replay_ms", "ms", s.replay_ms, n);
    out.put("server.journal_recovered", "count", s.journal_recovered, n);
    out.put("server.journal_rejected", "count", s.journal_rejected, n);
    out.put("server.overloaded", "count", s.overloaded, n);
    out.put("server.warm_reach_spans", "count", s.warm_reach_spans, n);
    for (name, v) in [
        ("serve.cold_p50_ms", &s.cold),
        ("serve.warm_p50_ms", &s.warm),
        ("serve.edit_p50_ms", &s.edit),
    ] {
        if serve.is_some() {
            out.percentile(name, 0.5, v);
        } else {
            out.put(name, "ms", 0.0, 0);
        }
    }
    out.put("obs.overhead_share", "share", overhead_share, n);
    out.put("bench.ref_ms", "ms", ref_ms, n);
}
