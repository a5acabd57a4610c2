use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match pathbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pathbench: {e}");
            eprintln!("usage: pathbench --workload <table1|shared-callees|serve-edit> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(64);
        }
    };
    let cpus = pathbench::machine::pin_work_cpu();
    match cpus {
        Some(c) => eprintln!(
            "pathbench: measured work on CPU {}, clients on {:?}",
            c.work, c.other
        ),
        None => eprintln!("pathbench: could not pin to one CPU; running unpinned"),
    }
    let report = pathbench::run(&args, cpus);
    report.print();
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
