//! Input generation. Every program the benchmark checks is built here
//! from the workload seed; the checker only ever sees source text.

use std::fmt::Write as _;
use workloads::{Scale, WorkloadSpec};

/// SplitMix64: the benchmark's own seed expander, so input generation
/// does not depend on which RNG the repository's crates use.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The six Table 1 specs with module counts multiplied by `factor`
/// (relative to `Scale::Small`) and generator seeds drawn from `seed`.
/// Planted bugs keep their module indices, so `expected_bugs` is the
/// same for every seed.
pub fn table1_specs(seed: u64, factor: usize) -> Vec<WorkloadSpec> {
    workloads::suite(Scale::Small)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            spec.modules *= factor;
            spec.seed = mix(seed ^ mix(spec.seed + i as u64));
            spec
        })
        .collect()
}

/// A generated batch program with its bug oracle.
#[derive(Debug, Clone)]
pub struct BatchProgram {
    /// Table 1 row name.
    pub name: String,
    /// IMP source text.
    pub source: String,
    /// The clusters that must come back `BUG`, in cluster order; every
    /// other cluster must be `SAFE`.
    pub bug_clusters: Vec<String>,
}

/// The bug oracle: `expected_bugs()` planted bugs, one in each buggy
/// module's read routine.
fn bug_clusters(spec: &WorkloadSpec) -> Vec<String> {
    let mut b: Vec<usize> = spec.buggy_modules.clone();
    b.sort_unstable();
    b.iter().map(|m| format!("m{m}_read")).collect()
}

/// The `table1` workload's programs.
pub fn table1(seed: u64, factor: usize) -> Vec<BatchProgram> {
    table1_specs(seed, factor)
        .iter()
        .map(|spec| BatchProgram {
            name: spec.name.clone(),
            source: workloads::gen::generate(spec).source,
            bug_clusters: bug_clusters(spec),
        })
        .collect()
}

/// The `shared-callees` workload's programs: the `table1` programs with
/// every `m{i}_driver` also calling each helper of the chains of the
/// `k - 1` modules after it (cyclically), so every helper has `k` call
/// sites.
pub fn shared_callees(seed: u64, factor: usize, k: usize) -> Vec<BatchProgram> {
    table1_specs(seed, factor)
        .iter()
        .map(|spec| BatchProgram {
            name: spec.name.clone(),
            source: share_callees(spec, &workloads::gen::generate(spec).source, k),
            bug_clusters: bug_clusters(spec),
        })
        .collect()
}

/// Rewrites generated source so that every helper `m{j}_h{h}` has at
/// least `k` call sites: its chain caller (or its own driver, for
/// `h0`) plus one in each of the `k - 1` drivers before it, cyclically
/// (so in a program with fewer than `k` modules a driver also calls its
/// own chain a second time). The inserted calls
/// only thread a driver-local value through arithmetic helpers and
/// scratch buffers, so no module's handle protocol changes and the bug
/// oracle is the one of the unrewritten program.
pub fn share_callees(spec: &WorkloadSpec, source: &str, k: usize) -> String {
    let n = spec.modules;
    let mut out = String::with_capacity(source.len() * 2);
    let mut driver: Option<usize> = None;
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        if let Some(rest) = line.strip_prefix("fn m") {
            driver = rest
                .strip_suffix("_driver() {")
                .and_then(|i| i.parse::<usize>().ok());
            continue;
        }
        let Some(i) = driver else { continue };
        if line.trim_start().starts_with(&format!("r = m{i}_h0(")) {
            for d in 1..k {
                let j = (i + d) % n;
                for h in 0..spec.helpers_per_module {
                    let _ = writeln!(out, "    r = m{j}_h{h}(r + {});", d + h);
                }
            }
            driver = None;
        }
    }
    out
}

/// Call sites per function name, counted on call edges of the lowered
/// program.
pub fn call_sites(program: &cfa::Program) -> std::collections::BTreeMap<String, usize> {
    let mut sites = std::collections::BTreeMap::new();
    for c in program.cfas() {
        for e in c.edges() {
            if let cfa::Op::Call(f) = e.op {
                *sites
                    .entry(program.cfa(f).name().to_owned())
                    .or_insert(0usize) += 1;
            }
        }
    }
    sites
}

/// One leaf of an edit dispatcher (the shape of `serve_bench --drill
/// edit`): `version >= 100` appends a constant store, so an edit
/// changes the function's edge count without touching the alias
/// fingerprint. Every fifth leaf has a reachable bug.
fn edit_leaf(family: usize, i: usize, version: u64) -> String {
    let extra = if version >= 100 {
        format!("a = {version}; ")
    } else {
        String::new()
    };
    let guard = if i.is_multiple_of(5) {
        format!("a == {version}")
    } else {
        "a < 0".to_owned()
    };
    format!(
        "fn d{family}_f{i}() {{ local a; a = {version}; {extra}if ({guard}) {{ error(); }} }}\n"
    )
}

/// An edit dispatcher: leaves behind an `else`-nested `if` chain, so
/// each leaf's dependency set is `{main, leaf}` and a one-leaf edit
/// invalidates exactly one cluster.
pub fn edit_program(family: usize, versions: &[u64]) -> String {
    let mut src = String::from("global s;\n");
    for (i, &v) in versions.iter().enumerate() {
        src.push_str(&edit_leaf(family, i, v));
    }
    src.push_str("fn main() { s = nondet(); ");
    for i in 0..versions.len() {
        let _ = write!(src, "if (s == {i}) {{ d{family}_f{i}(); }} else {{ ");
    }
    src.push_str("s = 0; ");
    for _ in 0..versions.len() {
        src.push_str("} ");
    }
    src.push_str("}\n");
    src
}

/// Shapes of the serve workload's cold programs.
pub const COLD_SHAPES: u64 = 4;

/// A distinct mid-size program for one cold submission: one of
/// [`COLD_SHAPES`] three-module programs with one planted bug (in
/// `m1_read`), its protocol-irrelevant accumulator global renamed by
/// `tag`. The rename changes the program's declarations, so the daemon
/// compiles it cold rather than as an edit of an earlier one, while
/// the check's effort stays that of its shape; a pass that sends each
/// shape once therefore does the same work at every seed.
pub fn cold_program(shape: u64, tag: u64) -> String {
    let spec = WorkloadSpec {
        name: "cold".into(),
        seed: 0xC01D + shape % COLD_SHAPES,
        modules: 3,
        helpers_per_module: 3,
        loop_bound: 30,
        driver_loops: 1,
        wrapper_depth: 1,
        buggy_modules: vec![1],
        multi_site_modules: 1,
    };
    workloads::gen::generate(&spec)
        .source
        .replace("acc", &format!("acc_{tag:x}"))
}
