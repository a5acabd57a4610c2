//! The `shared-callees` generator and the batch oracle.

use blastlite::{CheckOutcome, CheckerConfig, DriverConfig, Session};
use pathbench::gen;
use pathbench::report::Report;

#[test]
fn every_helper_has_k_call_sites() {
    let k = pathbench::SHARED_K;
    let specs = gen::table1_specs(7, pathbench::SHARED_FACTOR);
    let programs = gen::shared_callees(7, pathbench::SHARED_FACTOR, k);
    for (spec, p) in specs.iter().zip(&programs) {
        let program = cfa::lower(&imp::parse(&p.source).expect("parses")).expect("lowers");
        cfa::validate(&program).expect("validates");
        let sites = gen::call_sites(&program);
        for m in 0..spec.modules {
            for h in 0..spec.helpers_per_module {
                let name = format!("m{m}_h{h}");
                let n = sites.get(&name).copied().unwrap_or(0);
                assert!(
                    n >= k,
                    "{}: {name} has {n} call site(s), want >= {k}",
                    p.name
                );
            }
        }
    }
}

#[test]
fn generation_is_a_function_of_the_seed() {
    let a = gen::shared_callees(3, 1, 3);
    let b = gen::shared_callees(3, 1, 3);
    let c = gen::shared_callees(4, 1, 3);
    assert!(a.iter().zip(&b).all(|(x, y)| x.source == y.source));
    assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source));
    assert_eq!(
        a.iter().map(|p| &p.bug_clusters).collect::<Vec<_>>(),
        c.iter().map(|p| &p.bug_clusters).collect::<Vec<_>>(),
        "the planted bugs do not depend on the seed"
    );
}

/// One test owns the process-wide `obs` switch, so no other test's
/// checks leak into the counters it reads.
#[test]
fn oracle_catches_a_flipped_verdict_and_the_post_cache_hits() {
    let programs = gen::shared_callees(5, 1, pathbench::SHARED_K);
    let p = programs
        .iter()
        .find(|p| p.name == "wuftpd")
        .expect("wuftpd is in the suite");
    let session = Session::compile(&p.source, &p.name).expect("compiles");
    obs::set_enabled(true);
    obs::reset();
    let mut report = session.check(CheckerConfig::default(), &DriverConfig::sequential());
    let hits = obs::counters()["reach.post_cache_hits"];
    obs::set_enabled(false);
    assert!(hits > 0, "shared callees must hit the post cache");

    let mut honest = Report::default();
    pathbench::batch::judge(p, &report, &mut honest);
    assert!(honest.errors.is_empty(), "{:?}", honest.errors);
    assert_eq!(honest.wrong, 0);

    let bug = report
        .clusters
        .iter_mut()
        .find(|c| c.cluster.report.outcome.is_bug())
        .expect("wuftpd has planted bugs");
    bug.cluster.report.outcome = CheckOutcome::Safe;
    let mut flipped = Report::default();
    pathbench::batch::judge(p, &report, &mut flipped);
    assert_eq!(flipped.errors.len(), 1, "{:?}", flipped.errors);
    assert_eq!(flipped.wrong, 1, "one flipped cluster is one wrong item");
}

#[test]
fn command_line_is_checked() {
    let parse = |s: &str| {
        pathbench::Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    };
    let a = parse("--workload table1 --seed 9 --seconds 12 --trace 1").expect("valid");
    assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
    assert!(parse("--workload fabric --seed 1").is_err());
    assert!(parse("--workload table1 --trace 2").is_err());
    assert!(parse("--workload table1 --seconds -1").is_err());
    assert!(parse("--workload table1 --seed").is_err());
}
