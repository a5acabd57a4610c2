//! `pathbench`: the repository benchmark. One command runs a named
//! workload at a seed, checks every verdict, and prints the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. See `README.md`.

pub mod batch;
pub mod gen;
pub mod layers;
pub mod machine;
pub mod report;
pub mod serve;

use report::Report;

/// Module multiplier of `table1` over `Scale::Small` (120 clusters).
pub const TABLE1_FACTOR: usize = 2;
/// Module multiplier of `shared-callees`.
pub const SHARED_FACTOR: usize = 1;
/// Call sites per helper in `shared-callees`.
pub const SHARED_K: usize = 3;

/// The workloads `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["table1", "shared-callees", "serve-edit"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// Runs one workload and returns its report.
pub fn run(args: &Args, cpus: Option<machine::Cpus>) -> Report {
    let mut out = match args.workload.as_str() {
        "table1" => batch::run(
            &gen::table1(args.seed, TABLE1_FACTOR),
            args.seconds,
            args.trace,
        ),
        "shared-callees" => batch::run(
            &gen::shared_callees(args.seed, SHARED_FACTOR, SHARED_K),
            args.seconds,
            args.trace,
        ),
        _ => serve::run(
            args.seed,
            args.seconds,
            args.trace,
            cpus.and_then(|c| c.other),
        ),
    };
    if args.trace {
        design_notes(&args.workload, &mut out);
    }
    out
}

/// Prints whether the traced run shows the properties the batch
/// workloads were designed for (see `README.md`). These are notes for a
/// reviewer, not failures: a change to the checker may move them on
/// purpose, as deleting the post cache would on `shared-callees`.
fn design_notes(workload: &str, out: &mut Report) {
    let get = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let reach = get("blastlite.reach_share");
    let hits = get("blastlite.post_cache_hit_share");
    let props = match workload {
        "table1" => vec![
            (
                "reach self time is at least 90% of check time",
                reach >= 0.9,
            ),
            ("the post cache never hits", hits == 0.0),
        ],
        "shared-callees" => vec![("the post cache hits", hits > 0.0)],
        _ => Vec::new(),
    };
    for (what, holds) in props {
        out.notes.push(format!(
            "design: {what}: {}",
            if holds { "holds" } else { "DOES NOT HOLD" }
        ));
    }
}
