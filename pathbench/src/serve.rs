//! The `serve-edit` workload: a journaled in-process `server::Server`
//! with one worker, driven over loopback by closed-loop connections
//! that start each slot of their scripts together.
//!
//! Set-up primes a journal with the warm pool (untimed), then restarts
//! the daemon on it several times; each restart replays the journal
//! through the certificate gate, and `setup_s` is the median restart
//! time to the first ready `ping`. Each measured pass then sends, per
//! connection, a fixed script of three request classes:
//!
//! * `cold` — a distinct mid-size program never seen before;
//! * `warm` — an exact repeat of a journaled program (verdict cache);
//! * `edit` — a one-leaf edit of the connection's dispatcher, which the
//!   daemon routes through `Session::update`, the reuse gate and a
//!   seeded re-check.
//!
//! After each pass, outside its timed window, every response is
//! compared, modulo the effort columns, with an in-process
//! `Session::compile` + `check` + `render_verdicts` of the same source,
//! and with the verdicts the generator planted.

use crate::gen::{self, mix};
use crate::layers::{self, Layers, ServeLayers};
use crate::machine::{self, Speed};
use crate::report::{median, Report};
use blastlite::{render_verdicts, CheckerConfig, DriverConfig, Reducer, Session};
use server::{wire, Client, Server, ServerConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Closed-loop connections.
const CONNECTIONS: usize = 2;
/// Leaves per edit dispatcher.
const LEAVES: usize = 48;
/// Programs journaled by the priming phase (the warm pool).
const WARM_POOL: usize = 32;
/// Daemon starts timed for `setup_s`.
const RESTARTS: usize = 9;
/// Passes per episode in the traced run.
const TRACED_PASSES: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Warm,
    Edit,
}

/// One connection's requests in one pass. Half are warm repeats, the
/// default `--repeat-ratio 0.5` of `serve_bench`'s load runs; the other
/// half are one cold submission and six edits, the default schedule of
/// its edit drill (`--drill edit`: one cold check, then `--edits 6`).
/// Fresh requests take the even slots and a warm repeat follows each.
/// Both ratios are the repository's own load shapes, not measured user
/// traffic.
const SCRIPT: [Class; 14] = [
    Class::Cold,
    Class::Warm,
    Class::Edit,
    Class::Warm,
    Class::Edit,
    Class::Warm,
    Class::Edit,
    Class::Warm,
    Class::Edit,
    Class::Warm,
    Class::Edit,
    Class::Warm,
    Class::Edit,
    Class::Warm,
];

/// The planted verdicts: the names of the clusters that must be `BUG`.
#[derive(Debug, Clone)]
struct Expect {
    bugs: Vec<String>,
}

/// Ground truth for one source, from the in-process batch pipeline.
#[derive(Debug, Clone, PartialEq)]
struct Oracle {
    exit: i32,
    lines: Vec<String>,
}

/// Byte parity modulo effort (the edit drill's rule): a verdict line
/// keeps its name, site count and verdict class and drops the
/// refinement count and wall column; every other line stays verbatim.
pub fn strip_effort(s: &str) -> Vec<String> {
    s.lines()
        .map(|l| match l.find(" site(s)") {
            Some(p) => {
                let end = (p + " site(s)  ".len() + 18).min(l.len());
                l[..end].trim_end().to_owned()
            }
            None => l.to_owned(),
        })
        .collect()
}

fn config() -> CheckerConfig {
    CheckerConfig {
        reducer: Reducer::path_slice(),
        ..CheckerConfig::default()
    }
}

/// The in-process batch check of a whole program.
fn oracle(src: &str) -> Oracle {
    let session = Session::compile(src, "<request>").expect("benchmark source compiles");
    let report = session.check(config(), &DriverConfig::sequential());
    let (render, exit) = render_verdicts(session.program(), &report.into_cluster_reports());
    Oracle {
        exit,
        lines: strip_effort(&render),
    }
}

/// The in-process batch check of a dispatcher that differs from `prev`
/// only in the body of `leaf`. The generator makes leaves independent
/// (each writes only its own local, `main` reads only `s`), so every
/// other cluster's lines are those of `prev`'s full check; only the
/// edited cluster is checked again. This keeps the oracle for an edit
/// at one cluster's cost instead of the dispatcher's.
fn oracle_edit(prev: &Oracle, src: &str, leaf: &str) -> Oracle {
    let session = Session::compile(src, "<request>").expect("benchmark source compiles");
    let f = session.program().func_id(leaf).expect("edited leaf exists");
    let report = blastlite::run_clusters_seeded(
        session.analyses(),
        config(),
        &DriverConfig::sequential(),
        &[(f, Vec::new())],
    );
    let (render, _) = render_verdicts(session.program(), &report.into_cluster_reports());
    let fresh = strip_effort(&render);
    let mut lines = Vec::new();
    let mut in_leaf = false;
    for l in &prev.lines {
        if !l.starts_with(' ') {
            in_leaf = l.split_whitespace().next() == Some(leaf);
            if in_leaf {
                lines.extend(fresh.iter().cloned());
            }
        }
        if !in_leaf {
            lines.push(l.clone());
        }
    }
    Oracle {
        exit: exit_of(&lines),
        lines,
    }
}

/// The exit code `render_verdicts` gives a render: the worst verdict.
fn exit_of(lines: &[String]) -> i32 {
    lines
        .iter()
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split("site(s)").nth(1))
        .map(|v| match v.trim() {
            "SAFE" => 0,
            "BUG" => 1,
            v if v.starts_with("MISMATCH") => 3,
            _ => 2,
        })
        .max()
        .unwrap_or(0)
}

/// Removes the episode's journal directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one request returned.
#[derive(Debug)]
struct Outcome {
    class: Class,
    source: usize,
    latency_ms: f64,
    /// `None` once judged and dropped.
    response: Option<Result<wire::Response, String>>,
}

/// One pass's measurements.
struct Pass {
    start: Instant,
    end: Instant,
    /// Machine scale of the pass, set once every kernel point is taken.
    scale: f64,
    wall_s: f64,
    cpu_s: f64,
    outcomes: Vec<Outcome>,
}

/// The generated inputs of one episode, and the per-connection edit
/// state.
struct Inputs {
    seed: u64,
    sources: Vec<String>,
    expect: Vec<Expect>,
    warm_pool: Vec<usize>,
    versions: Vec<Vec<u64>>,
    edits: Vec<usize>,
    colds: Vec<u64>,
    warms: Vec<usize>,
    /// Each connection's dispatcher versions, base first.
    chains: Vec<Vec<usize>>,
    /// For an edited dispatcher: its predecessor and the edited leaf.
    edit_of: HashMap<usize, (usize, String)>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut inputs = Inputs {
            seed,
            sources: Vec::new(),
            expect: Vec::new(),
            warm_pool: Vec::new(),
            versions: (0..CONNECTIONS)
                .map(|c| {
                    (0..LEAVES as u64)
                        .map(|i| 1 + (mix(seed ^ c as u64 ^ i << 8) % 90))
                        .collect()
                })
                .collect(),
            edits: vec![0; CONNECTIONS],
            colds: vec![0; CONNECTIONS],
            warms: vec![0; CONNECTIONS],
            chains: Vec::new(),
            edit_of: HashMap::new(),
        };
        for i in 0..WARM_POOL as u64 {
            let idx = inputs.cold(i, i);
            inputs.warm_pool.push(idx);
        }
        for c in 0..CONNECTIONS {
            let src = gen::edit_program(c, &inputs.versions[c]);
            let idx = inputs.push(src, dispatcher_expect(c));
            inputs.chains.push(vec![idx]);
        }
        inputs
    }

    /// Whether a later request may still need source `i` or its oracle:
    /// the warm pool and the latest version of each dispatcher.
    fn is_live(&self, i: usize) -> bool {
        self.warm_pool.contains(&i) || self.chains.iter().any(|c| c.last() == Some(&i))
    }

    fn push(&mut self, src: String, expect: Expect) -> usize {
        self.sources.push(src);
        self.expect.push(expect);
        self.sources.len() - 1
    }

    /// A fresh cold program of `shape`, renamed by a tag drawn from
    /// the seed and `n`.
    fn cold(&mut self, shape: u64, n: u64) -> usize {
        let src = gen::cold_program(shape, mix(self.seed ^ mix(n)));
        self.push(
            src,
            Expect {
                bugs: vec!["m1_read".into()],
            },
        )
    }

    /// The next request of `class` on connection `conn`.
    fn next(&mut self, conn: usize, class: Class) -> usize {
        match class {
            Class::Cold => {
                // Each connection sends its own shape once a pass, so
                // every pass does the same work.
                self.colds[conn] += 1;
                let n = self.colds[conn];
                self.cold(conn as u64, (1 + conn as u64) << 40 | n)
            }
            Class::Warm => {
                // The connections take alternate entries and each cycles
                // through its half of the pool.
                let n = self.warms[conn];
                self.warms[conn] += 1;
                self.warm_pool[(conn + CONNECTIONS * n) % WARM_POOL]
            }
            Class::Edit => {
                let leaf = edit_order(self.edits[conn]);
                self.edits[conn] += 1;
                self.versions[conn][leaf] += 100;
                let src = gen::edit_program(conn, &self.versions[conn]);
                let prev = *self.chains[conn].last().expect("chain has a base");
                let idx = self.push(src, dispatcher_expect(conn));
                self.chains[conn].push(idx);
                self.edit_of.insert(idx, (prev, format!("d{conn}_f{leaf}")));
                idx
            }
        }
    }
}

/// The leaf a connection's `n`th edit changes. A leaf's re-check costs
/// more the deeper it sits in the dispatcher's `else`-chain, so each
/// pass's six edits pair shallow leaves with deep ones (their indices
/// always sum to 141) and every pass does the same work; eight passes
/// edit every leaf once.
fn edit_order(n: usize) -> usize {
    let r = (n / 6) % 8;
    [r, 47 - r, 16 + r, 31 - r, 32 + r, 15 - r][n % 6]
}

fn dispatcher_expect(family: usize) -> Expect {
    Expect {
        bugs: (0..LEAVES)
            .filter(|i| i.is_multiple_of(5))
            .map(|i| format!("d{family}_f{i}"))
            .collect(),
    }
}

fn request(client: &mut Client, id: String, source: &str) -> Result<wire::Response, String> {
    let mut r = wire::Request::new(source);
    r.id = id;
    client.request(&r)
}

/// The daemon under test. Journal records are synced only when the
/// journal flushes (shutdown, compaction), not every 8 appends: disk
/// sync latency on the benchmark host is noise from outside the
/// program, and it dominated the spread of `setup_s`.
fn start(dir: &Path) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        journal_dir: Some(dir.to_path_buf()),
        journal_fsync_every: usize::MAX,
        ..ServerConfig::default()
    })
    .expect("start the benchmark daemon on loopback")
}

fn wait_ready(server: &Server) -> Client {
    let mut client =
        Client::connect_retrying(server.local_addr(), 20).expect("connect to the daemon");
    loop {
        match client.ping("ready") {
            Ok((true, _, _)) => return client,
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("ping failed: {e}"),
        }
    }
}

/// A daemon set up for measurement, with its set-up timings.
struct Episode {
    _dir: WorkDir,
    server: Server,
    clients: Vec<Client>,
    /// Kernel points (shared by set-up and passes, in order).
    speed: Speed,
    /// Each daemon restart: start, end.
    setup: Vec<(Instant, Instant)>,
    start_ms: Vec<f64>,
    oracles: HashMap<usize, Oracle>,
    /// The CPU the client threads run on, away from the daemon's.
    client_cpu: Option<usize>,
}

fn episode(inputs: &Inputs, tag: &str, client_cpu: Option<usize>, out: &mut Report) -> Episode {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target"))
        .join(format!("pathbench-work-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = WorkDir(dir);

    // Priming (untimed): journal the warm pool.
    let mut oracles = HashMap::new();
    let server = start(&dir.0);
    let mut client = wait_ready(&server);
    for &i in &inputs.warm_pool {
        let r = request(&mut client, format!("prime-{i}"), &inputs.sources[i]);
        oracles.insert(i, oracle(&inputs.sources[i]));
        judge(inputs, &oracles, i, &r, out);
    }
    drop(client);
    server.shutdown();

    // Timed: restart on the primed journal.
    let mut setup = Vec::new();
    let mut speed = Speed::default();
    let mut start_ms = Vec::new();
    let mut live = None;
    for r in 0..RESTARTS {
        speed.sample();
        let t = Instant::now();
        let server = start(&dir.0);
        start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let client = wait_ready(&server);
        setup.push((t, Instant::now()));
        speed.sample();
        if r + 1 < RESTARTS {
            drop(client);
            server.shutdown();
        } else {
            live = Some((server, client));
        }
    }
    let (server, first) = live.expect("at least one restart");
    let stats = server.stats();
    let recovered = stats.journal.map_or(0, |j| j.recovered);
    if recovered != WARM_POOL as u64 {
        out.error(format!(
            "journal replay recovered {recovered} of {WARM_POOL} primed verdicts"
        ));
    }

    // Warm-up (untimed): check each dispatcher once, so every later
    // edit has stored verdicts to reuse.
    let mut clients = vec![first];
    while clients.len() < CONNECTIONS {
        clients.push(wait_ready(&server));
    }
    for (c, client) in clients.iter_mut().enumerate() {
        let i = inputs.chains[c][0];
        let r = request(client, format!("base-{c}"), &inputs.sources[i]);
        oracles.insert(i, oracle(&inputs.sources[i]));
        judge(inputs, &oracles, i, &r, out);
    }
    Episode {
        _dir: dir,
        server,
        clients,
        speed,
        setup,
        start_ms,
        oracles,
        client_cpu,
    }
}

/// Checks one response against the in-process oracle and the planted
/// verdicts. A request that fails or differs in any way is one wrong
/// item, however many of its clusters differ.
fn judge(
    inputs: &Inputs,
    oracles: &HashMap<usize, Oracle>,
    i: usize,
    response: &Result<wire::Response, String>,
    out: &mut Report,
) {
    out.attempted += 1;
    let (exit, render, clusters) = match response {
        Ok(wire::Response::Ok {
            exit,
            render,
            clusters,
            ..
        }) => (*exit, render, clusters),
        other => {
            out.failed += 1;
            out.wrong += 1;
            out.error(format!("request for source {i} failed: {other:?}"));
            return;
        }
    };
    let mut failed = false;
    let mut bugs = Vec::new();
    for c in clusters {
        match c.verdict.as_str() {
            "BUG" => bugs.push(c.func.clone()),
            "SAFE" => {}
            v => {
                failed = true;
                out.error(format!("source {i}: cluster {} ended {v}", c.func));
            }
        }
    }
    let mut wrong = failed;
    if failed {
        out.failed += 1;
    }
    if bugs != inputs.expect[i].bugs {
        wrong = true;
        out.error(format!(
            "source {i}: BUG clusters {bugs:?}, planted {:?}",
            inputs.expect[i].bugs
        ));
    }
    let got = Oracle {
        exit,
        lines: strip_effort(render),
    };
    if oracles.get(&i) != Some(&got) {
        wrong = true;
        out.error(format!(
            "source {i}: served verdicts differ from the in-process batch check"
        ));
    }
    out.wrong += u64::from(wrong);
}

fn pass(ep: &mut Episode, inputs: &mut Inputs, p: usize) -> Pass {
    // Generate the pass's sources before the clock starts.
    // Connection `c` runs the script rotated by `c` slots, so at every
    // slot one connection sends a fresh request and the other a warm one.
    let scripts: Vec<Vec<(Class, usize)>> = (0..CONNECTIONS)
        .map(|c| {
            SCRIPT
                .iter()
                .cycle()
                .skip(c)
                .take(SCRIPT.len())
                .map(|&class| (class, inputs.next(c, class)))
                .collect()
        })
        .collect();
    let sources = &inputs.sources;
    let client_cpu = ep.client_cpu;
    let slot_start = std::sync::Barrier::new(CONNECTIONS);
    let slot_start = &slot_start;
    ep.speed.sample();
    let cpu0 = machine::process_cpu_s();
    let start = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = ep
            .clients
            .iter_mut()
            .zip(&scripts)
            .enumerate()
            .map(|(c, (client, script))| {
                scope.spawn(move || {
                    if let Some(cpu) = client_cpu {
                        machine::pin(cpu);
                    }
                    script
                        .iter()
                        .enumerate()
                        .map(|(slot, &(class, i))| {
                            slot_start.wait();
                            let sent = Instant::now();
                            let response =
                                request(client, format!("p{p}-c{c}-{slot}"), &sources[i]);
                            Outcome {
                                class,
                                source: i,
                                latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                                response: Some(response),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = Instant::now();
    let cpu_s = machine::process_cpu_s() - cpu0;
    ep.speed.sample();
    Pass {
        start,
        end,
        scale: 1.0,
        wall_s: (end - start).as_secs_f64(),
        cpu_s,
        outcomes,
    }
}

/// Computes the oracle of source `i`, and first of the edits it
/// descends from.
fn ensure_oracle(oracles: &mut HashMap<usize, Oracle>, inputs: &Inputs, i: usize) {
    let mut todo = vec![i];
    while let Some(&j) = todo.last() {
        if oracles.contains_key(&j) {
            todo.pop();
            continue;
        }
        let o = match inputs.edit_of.get(&j) {
            Some((prev, leaf)) => match oracles.get(prev) {
                Some(p) => oracle_edit(p, &inputs.sources[j], leaf),
                None => {
                    todo.push(*prev);
                    continue;
                }
            },
            None => oracle(&inputs.sources[j]),
        };
        oracles.insert(j, o);
        todo.pop();
    }
}

/// Judges measured responses after the clock has stopped; returns how
/// long that took, in seconds.
fn judge_outcomes(
    ep: &mut Episode,
    inputs: &Inputs,
    outcomes: &[Outcome],
    out: &mut Report,
) -> f64 {
    let t = Instant::now();
    for o in outcomes {
        if let Some(r) = &o.response {
            ensure_oracle(&mut ep.oracles, inputs, o.source);
            judge(inputs, &ep.oracles, o.source, r, out);
        }
    }
    t.elapsed().as_secs_f64()
}

/// Runs the workload; see the module docs.
/// With `client_cpu`, the client threads run there and the daemon and
/// kernel stay on the CPU the process is pinned to.
pub fn run(seed: u64, seconds: f64, trace: bool, client_cpu: Option<usize>) -> Report {
    let mut out = Report::default();
    if trace {
        run_traced(seed, client_cpu, &mut out);
        return out;
    }
    let mut inputs = Inputs::new(seed);
    let mut ep = episode(&inputs, "e2e", client_cpu, &mut out);
    let mut passes = Vec::new();
    let (mut measured_s, mut judge_s) = (0.0, 0.0);
    while passes.len() < 2 || measured_s < seconds {
        let mut p = pass(&mut ep, &mut inputs, passes.len());
        measured_s += p.wall_s;
        eprintln!(
            "pathbench: pass {}: verify {:.6} s (raw)",
            passes.len(),
            p.wall_s
        );
        drop(obs::take_spans());
        // Judge each pass as soon as it ends, outside its timed window,
        // then drop its responses and every source and oracle no later
        // request needs. Held to the end, they made peak RSS grow with
        // the number of passes a run fits.
        judge_s += judge_outcomes(&mut ep, &inputs, &p.outcomes, &mut out);
        for o in &mut p.outcomes {
            o.response = None;
            if !inputs.is_live(o.source) {
                inputs.sources[o.source] = String::new();
            }
        }
        ep.oracles.retain(|&i, _| inputs.is_live(i));
        passes.push(p);
    }
    out.notes.push(format!(
        "oracle: {} response(s) judged in process in {judge_s:.2} s",
        passes.iter().map(|p| p.outcomes.len()).sum::<usize>()
    ));
    eprintln!("pathbench: kernel points {:.3?} ms", ep.speed.points_ms());
    for p in &mut passes {
        p.scale = ep.speed.scale(p.start, p.end);
    }
    ep.clients.clear();
    let setup = |f: &dyn Fn(f64, f64) -> f64| {
        let v: Vec<f64> = ep
            .setup
            .iter()
            .map(|&(a, b)| f((b - a).as_secs_f64(), ep.speed.scale(a, b)))
            .collect();
        median(&v)
    };
    out.timing(
        "setup_s",
        "s",
        setup(&|raw, k| raw * k),
        setup(&|raw, _| raw),
        ep.setup.len(),
    );
    let n = passes.len();
    let scaled = |f: &dyn Fn(&Pass) -> f64| {
        (
            median(&passes.iter().map(|p| f(p) * p.scale).collect::<Vec<_>>()),
            median(&passes.iter().map(f).collect::<Vec<_>>()),
        )
    };
    let (v, r) = scaled(&|p| p.wall_s);
    out.timing("verify_s", "s", v, r, n);
    let (v, r) = scaled(&|p| p.cpu_s);
    out.timing("verify_cpu_s", "s", v, r, n);
    // The items are the requests that run a check (cold submissions and
    // edits). Warm repeats take 2-60 ms depending on whether the worker
    // is busy with the other connection's check when they arrive, and
    // mixed in they put the median on the edge between request classes;
    // their latency is printed per class below.
    let items: Vec<(f64, f64)> = passes
        .iter()
        .flat_map(|p| {
            p.outcomes
                .iter()
                .filter(|o| o.class != Class::Warm)
                .map(|o| (o.latency_ms * p.scale, o.latency_ms))
        })
        .collect();
    out.percentile("item_p50_ms", 0.5, &items);
    out.percentile("item_p90_ms", 0.9, &items);
    crate::batch::common_end_to_end(&mut out);
    out.notes.push(format!(
        "bench.ref_ms {:.4} (median of {} kernel point(s))",
        ep.speed.ref_ms(),
        ep.speed.points_ms().len()
    ));
    for class in [Class::Cold, Class::Warm, Class::Edit] {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.outcomes
                    .iter()
                    .filter(move |o| o.class == class)
                    .map(|o| o.latency_ms * p.scale)
            })
            .collect();
        out.notes.push(format!(
            "class {class:?}: p50 {:.3} ms, p90 {:.3} ms (n={}, {} beyond p90)",
            crate::report::quantile(&v, 0.5),
            crate::report::quantile(&v, 0.9),
            v.len(),
            crate::report::beyond(v.len(), 0.9)
        ));
    }
    ep.server.shutdown();
    out
}

/// One traced or untraced episode of a fixed number of passes.
struct TracedEpisode {
    layers: Layers,
    serve: ServeLayers,
    verify: Vec<f64>,
    scale: f64,
    ref_ms: f64,
}

fn traced_episode(
    seed: u64,
    traced: bool,
    tag: &str,
    client_cpu: Option<usize>,
    out: &mut Report,
) -> TracedEpisode {
    let mut inputs = Inputs::new(seed);
    let mut ep = episode(&inputs, tag, client_cpu, out);
    let stats0 = ep.server.stats();
    obs::set_enabled(traced);
    obs::reset();
    let mut passes: Vec<Pass> = (0..TRACED_PASSES)
        .map(|p| pass(&mut ep, &mut inputs, p))
        .collect();
    for p in &mut passes {
        p.scale = ep.speed.scale(p.start, p.end);
    }
    let spans = obs::take_spans();
    let counters = obs::counters();
    let stats1 = ep.server.stats();
    obs::set_enabled(false);
    ep.clients.clear();
    for p in &passes {
        judge_outcomes(&mut ep, &inputs, &p.outcomes, out);
    }
    let scale = median(&passes.iter().map(|p| p.scale).collect::<Vec<_>>());
    let ref_ms = ep.speed.ref_ms();

    let mut serve = ServeLayers::default();
    let all: Vec<&Outcome> = passes.iter().flat_map(|p| &p.outcomes).collect();
    let mut queue = Vec::new();
    let mut service = Vec::new();
    let mut wire_ms = Vec::new();
    for o in &all {
        if let Some(Ok(wire::Response::Ok {
            wall_us, queue_us, ..
        })) = &o.response
        {
            queue.push(*queue_us as f64 / 1e3 * scale);
            service.push((*wall_us - queue_us) as f64 / 1e3 * scale);
            wire_ms.push((o.latency_ms - *wall_us as f64 / 1e3) * scale);
        }
        let v = (o.latency_ms * scale, o.latency_ms);
        match o.class {
            Class::Cold => serve.cold.push(v),
            Class::Warm => serve.warm.push(v),
            Class::Edit => serve.edit.push(v),
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    serve.queue_ms = mean(&queue);
    serve.service_ms = mean(&service);
    serve.wire_ms = mean(&wire_ms);
    let phases = obs::phase_totals(&spans);
    serve.other_ms = phases
        .get("request")
        .map_or(0.0, |p| p.self_us as f64 / 1e3 / p.count.max(1) as f64)
        * scale;
    serve.warm_reach_spans = warm_reach_spans(&spans, &passes) as f64;
    let hits = (stats1.verdicts.hits - stats0.verdicts.hits) as f64;
    let misses = (stats1.verdicts.misses - stats0.verdicts.misses) as f64;
    serve.verdict_hit_share = hits / (hits + misses).max(1.0);
    let hits = (stats1.cache.hits - stats0.cache.hits) as f64;
    let misses = (stats1.cache.misses - stats0.cache.misses) as f64;
    serve.analysis_hit_share = hits / (hits + misses).max(1.0);
    serve.replay_ms = median(&ep.start_ms) * scale;
    let j = stats1.journal.unwrap_or_default();
    serve.journal_recovered = j.recovered as f64;
    serve.journal_rejected = j.rejected as f64;
    serve.overloaded = stats1.overloaded as f64;
    ep.server.shutdown();

    // The incremental layer from outside: replay each connection's edit
    // chain through `Session::update`.
    let mut update_ms = Vec::new();
    let (mut hits, mut total) = (0usize, 0usize);
    for chain in &inputs.chains {
        let mut prev = Session::compile(&inputs.sources[chain[0]], "<edit>").expect("compiles");
        for &i in &chain[1..] {
            let t = Instant::now();
            let (next, up) = Session::update(&prev, &inputs.sources[i], "<edit>").expect("updates");
            update_ms.push(t.elapsed().as_secs_f64() * 1e3 * scale);
            hits += up.fn_hits;
            total += up.fn_hits + up.changed_functions.len();
            prev = next;
        }
    }
    serve.update_ms = median(&update_ms);
    serve.fn_hit_share = hits as f64 / total.max(1) as f64;

    let mut layers = Layers::from_obs(spans, counters);
    layers.passes = TRACED_PASSES as f64;
    let fresh: Vec<&str> = all
        .iter()
        .filter(|o| o.class != Class::Warm)
        .map(|o| inputs.sources[o.source].as_str())
        .collect();
    layers.front_end(fresh.into_iter());
    TracedEpisode {
        layers,
        serve,
        verify: passes.iter().map(|p| p.wall_s * p.scale).collect(),
        scale,
        ref_ms,
    }
}

/// `reach` spans under the `request` roots of warm requests.
fn warm_reach_spans(spans: &[obs::SpanRecord], passes: &[Pass]) -> usize {
    let warm_ids: std::collections::HashSet<String> = passes
        .iter()
        .flat_map(|pass| &pass.outcomes)
        .filter(|o| o.class == Class::Warm)
        .filter_map(|o| o.response.as_ref()?.as_ref().ok())
        .map(|r| format!("id {}", r.id()))
        .collect();
    let parent: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let warm_roots: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "request" && s.detail.as_ref().is_some_and(|d| warm_ids.contains(d)))
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == "reach")
        .filter(|s| {
            let mut cur = s.parent;
            while let Some(id) = cur {
                if warm_roots.contains(&id) {
                    return true;
                }
                cur = parent.get(&id).copied().flatten();
            }
            false
        })
        .count()
}

fn run_traced(seed: u64, client_cpu: Option<usize>, out: &mut Report) {
    // The untraced episode runs between the traced ones, so host drift
    // over the run does not read as tracing overhead.
    let a = traced_episode(seed, true, "a", client_cpu, out);
    let plain = traced_episode(seed, false, "plain", client_cpu, out);
    let b = traced_episode(seed, true, "b", client_cpu, out);
    let traced_verify: Vec<f64> = a.verify.iter().chain(&b.verify).copied().collect();
    let overhead = median(&traced_verify) / median(&plain.verify) - 1.0;
    let records = vec![(a.layers.clone(), a.scale), (b.layers.clone(), b.scale)];
    layers::check_repeats(&records, out);
    let warm_reach = a.serve.warm_reach_spans + b.serve.warm_reach_spans;
    if warm_reach > 0.0 {
        out.error(format!("warm requests opened {warm_reach} reach span(s)"));
    }
    let mut serve = a.serve.clone();
    serve.cold.extend(b.serve.cold.iter().copied());
    serve.warm.extend(b.serve.warm.iter().copied());
    serve.edit.extend(b.serve.edit.iter().copied());
    serve.warm_reach_spans = warm_reach;
    layers::report(
        &records,
        Some(&serve),
        overhead,
        median(&[a.ref_ms, b.ref_ms, plain.ref_ms]),
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_oracle_matches_a_full_check() {
        let v: Vec<u64> = (0..LEAVES as u64).map(|i| i + 1).collect();
        let base = oracle(&gen::edit_program(0, &v));
        assert_eq!(base.exit, 1);
        // A leaf with a planted bug and one without.
        for leaf in [5, 7] {
            let mut w = v.clone();
            w[leaf] += 100;
            let src = gen::edit_program(0, &w);
            assert_eq!(
                oracle_edit(&base, &src, &format!("d0_f{leaf}")),
                oracle(&src),
                "leaf {leaf}"
            );
        }
    }

    #[test]
    fn each_pass_edits_the_same_depth_and_eight_edit_every_leaf() {
        let edits = SCRIPT.iter().filter(|&&c| c == Class::Edit).count();
        assert_eq!((edits, LEAVES), (6, 48), "edit_order assumes both");
        let mut seen = vec![0; LEAVES];
        for pass in 0..8 {
            let leaves: Vec<usize> = (0..6).map(|i| edit_order(pass * 6 + i)).collect();
            assert_eq!(leaves.iter().sum::<usize>(), 141);
            for l in leaves {
                seen[l] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
    }

    #[test]
    fn strip_effort_keeps_the_verdict_and_drops_effort() {
        let a = "m0_read                     1 site(s)  SAFE                 2 refinement(s)  3.1ms\n    m0_open  x = 1";
        let b = "m0_read                     1 site(s)  SAFE                 5 refinement(s)  9ms\n    m0_open  x = 1";
        assert_eq!(strip_effort(a), strip_effort(b));
        assert_ne!(strip_effort(a), strip_effort(&a.replace("SAFE", "BUG ")));
        assert_eq!(exit_of(&strip_effort(a)), 0);
    }
}
