//! The two server workloads: seeded set-up, two closed-loop sessions
//! over TCP against `txtime_server::serve`, and the post-run oracles.

use std::io::{BufReader, BufWriter};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use txtime::core::{Command, Expr, StateValue};
use txtime::parser::parse_command;
use txtime::server::{serve, Client, Response, ServerConfig, ServerHandle, ServerReport};
use txtime::storage::{recovery, wal, BackendKind, Engine};

use crate::gen::{self, Req};
use crate::window::{self, Slice};
use crate::{configure, engine, policy, Fail, Workload, BACKEND, SESSIONS};

/// Prefix of the `serve_ingest` history the space metric is taken at, in
/// acked updates per relation (a fixed depth, so the figure does not
/// move with throughput).
const SPACE_DEPTH: usize = 512;

/// Requests per session after which the peak RSS is read: a fixed
/// amount of work, so the figure does not move with throughput.
const RSS_DEPTH: u64 = 4_096;

/// What one session saw.
#[derive(Default)]
pub struct Session {
    /// (completion, seconds after the window opened; latency in us) of
    /// each write and read sent after the warm-up.
    pub commits: Vec<(f64, f64)>,
    pub reads: Vec<(f64, f64)>,
    pub attempted: u64,
    pub errors: u64,
    pub wrong: u64,
    pub first_error: Option<String>,
    /// Acked write texts, in ack order.
    pub acked: Vec<String>,
    /// (read text, answer) pairs the post-run oracle re-checks.
    pub samples: Vec<(String, String)>,
    /// Peak RSS once this session had sent [`RSS_DEPTH`] requests.
    pub rss_at_depth: Option<f64>,
}

/// A served workload after shutdown.
pub struct ServeRun {
    /// (seconds, steal) of each set-up.
    pub setup_s: Vec<(f64, f64)>,
    pub sessions: Vec<Session>,
    pub report: ServerReport,
    pub journal: PathBuf,
    /// Peak RSS after a fixed number of requests (or, if a session never
    /// got that far, when the load stopped), before the oracles run.
    pub rss_mb: f64,
    /// `serve_asof`: space per live byte of the recovered history.
    pub space_ratio: Option<f64>,
    /// The measured window, cut into slices with the host's steal.
    pub slices: Vec<Slice>,
    gens: Vec<Gen>,
}

enum Gen {
    Ingest(gen::Ingest),
    Asof(gen::Asof, u64),
}

impl Gen {
    fn new(w: Workload, seed: u64, session: u64) -> Gen {
        match w {
            Workload::ServeIngest => Gen::Ingest(gen::Ingest::new(seed, session)),
            _ => Gen::Asof(gen::Asof::new(seed, session), gen::ASOF_SETUP_TX),
        }
    }

    fn next(&mut self) -> Req {
        match self {
            Gen::Ingest(g) => g.next(),
            Gen::Asof(g, latest) => g.next(*latest),
        }
    }

    fn acked(&mut self, tx: u64) {
        if let Gen::Asof(_, latest) = self {
            *latest = (*latest).max(tx);
        }
    }
}

/// Parses the `tx=N` of an `OK modified tx=N` ack.
fn ack_tx(detail: &str) -> Option<u64> {
    detail
        .lines()
        .next()?
        .split_whitespace()
        .find_map(|w| w.strip_prefix("tx="))?
        .parse()
        .ok()
}

fn cfg(journal: &Path) -> ServerConfig {
    ServerConfig {
        wal_path: Some(journal.to_path_buf()),
        group_commit: true,
        failpoint: None,
        ..ServerConfig::default()
    }
}

/// Writes `cmds` as a journal, fsynced.
pub fn write_journal(path: &Path, cmds: &[String]) -> Result<(), Fail> {
    let parsed = cmds
        .iter()
        .map(|c| parse_command(c.trim_end_matches(';')))
        .collect::<Result<Vec<Command>, _>>()?;
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    wal::append_commands(&mut out, &parsed)?;
    let file = out.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    Ok(())
}

/// Bytes stored across the catalog per byte of current state.
pub fn space_ratio(engine: &Engine) -> f64 {
    let names = engine.relations();
    let probes: Vec<(&str, txtime::core::TxSpec)> = names
        .iter()
        .map(|n| (*n, txtime::core::TxSpec::Current))
        .collect();
    let live: usize = engine
        .resolve_many(&probes)
        .into_iter()
        .flatten()
        .map(|s| s.size_bytes())
        .sum();
    engine.space_report().total_bytes() as f64 / live.max(1) as f64
}

/// One set-up: the workload's set-up commands written as a journal,
/// then the timed steps `txtime serve --wal` takes over it — recover,
/// serve the same file — leaving a server ready for the load. Returns
/// the handle, the set-up seconds, and (for `serve_asof`) the recovered
/// engine's space ratio, taken outside the timed part.
fn setup(w: Workload, seed: u64, journal: &Path) -> Result<(ServerHandle, f64, Option<f64>), Fail> {
    let _ = std::fs::remove_file(journal);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let cmds = match w {
        Workload::ServeIngest => (0..SESSIONS)
            .flat_map(|s| gen::Ingest::new(seed, s).setup())
            .collect(),
        _ => gen::asof_history(seed),
    };
    write_journal(journal, &cmds)?;
    let t = Instant::now();
    let rec = recovery::recover(journal, BACKEND, policy())?;
    if !rec.skipped.is_empty() {
        return Err(format!("recovery skipped lines: {:?}", rec.skipped).into());
    }
    let mut engine = rec.engine;
    configure(&mut engine, w.optimize());
    let mut secs = t.elapsed().as_secs_f64();
    let ratio = (w == Workload::ServeAsof).then(|| space_ratio(&engine));
    let t = Instant::now();
    let handle = serve(engine, listener, cfg(journal))?;
    secs += t.elapsed().as_secs_f64();
    Ok((handle, secs, ratio))
}

fn session_loop(
    addr: std::net::SocketAddr,
    gen: &mut Gen,
    warm: Instant,
    stop: &AtomicBool,
) -> Result<Session, Fail> {
    let mut client = Client::connect(addr)?;
    let mut s = Session::default();
    while !stop.load(Ordering::Relaxed) {
        let req = gen.next();
        let t = Instant::now();
        let resp = client.exec(&req.text)?;
        let done = Instant::now();
        let us = (done - t).as_secs_f64() * 1e6;
        let at = done.saturating_duration_since(warm).as_secs_f64();
        let record = t >= warm;
        s.attempted += 1;
        if s.attempted == RSS_DEPTH {
            s.rss_at_depth = Some(crate::report::peak_rss_mb());
        }
        match (&resp, req.write) {
            (Response::Ok(detail), true) => {
                if let Some(tx) = ack_tx(detail) {
                    gen.acked(tx);
                }
                s.acked.push(req.text);
                if record {
                    s.commits.push((at, us));
                }
            }
            (Response::Val(body), false) => {
                if req.expect.as_ref().is_some_and(|e| e != body) {
                    s.wrong += 1;
                    s.first_error
                        .get_or_insert(format!("wrong answer to {}: {body:.80}", req.text));
                }
                if req.sample {
                    s.samples.push((req.text, body.clone()));
                }
                if record {
                    s.reads.push((at, us));
                }
            }
            _ => {
                s.errors += 1;
                s.first_error
                    .get_or_insert(format!("{} -> {resp:?}", req.text));
            }
        }
    }
    let _ = client.request("QUIT");
    Ok(s)
}

/// Sets up `setups` times (reporting each), then drives two sessions
/// through `warmup` and a window of at least `seconds` (see
/// [`window::watch`]) and shuts the server down.
pub fn run(
    w: Workload,
    seed: u64,
    dir: &Path,
    setups: usize,
    warmup: Duration,
    seconds: f64,
) -> Result<ServeRun, Fail> {
    let journal = dir.join(format!("{}.wal", w.name()));
    let mut setup_s = Vec::new();
    let mut space = None;
    let mut handle = None;
    for i in 0..setups.max(1) {
        let before = crate::report::cpu_jiffies();
        let (h, secs, ratio) = setup(w, seed, &journal)?;
        setup_s.push((
            secs,
            window::steal_between(before, crate::report::cpu_jiffies()),
        ));
        space = ratio;
        if i + 1 < setups {
            h.shutdown();
            drop(h.wait());
        } else {
            handle = Some(h);
        }
    }
    let handle = handle.expect("at least one set-up ran");
    let addr = handle.addr();
    let mut gens: Vec<Gen> = (0..SESSIONS).map(|s| Gen::new(w, seed, s)).collect();
    let warm = Instant::now() + warmup;
    let stop = AtomicBool::new(false);
    let (results, slices) = std::thread::scope(|scope| {
        let stop = &stop;
        let threads: Vec<_> = gens
            .iter_mut()
            .map(|g| scope.spawn(move || session_loop(addr, g, warm, stop)))
            .collect();
        let slices = window::watch(warm, seconds, stop);
        let results: Vec<Result<Session, Fail>> = threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|_| Err("session panicked".into())))
            .collect();
        (results, slices)
    });
    let rss_end = crate::report::peak_rss_mb();
    handle.shutdown();
    let report = handle.wait();
    let sessions = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let rss_mb = sessions
        .iter()
        .map(|s| s.rss_at_depth)
        .collect::<Option<Vec<f64>>>()
        .map_or(rss_end, |v| v.into_iter().fold(0.0, f64::max));
    Ok(ServeRun {
        setup_s,
        sessions,
        report,
        journal,
        rss_mb,
        space_ratio: space,
        slices,
        gens,
    })
}

/// The rollback relation a command writes, if any.
fn target(cmd: &Command) -> Option<&str> {
    match cmd {
        Command::DefineRelation(i, _)
        | Command::ModifyState(i, _)
        | Command::DeleteRelation(i)
        | Command::EvolveScheme(i, _) => Some(i),
        Command::Display(_) => None,
    }
}

/// `serve_ingest`'s post-run oracle: each relation's version count and
/// current state equal the acked writes, and the journal holds exactly
/// the acked commands. Returns the mismatches found.
pub fn check_ingest(run: &ServeRun, seed: u64) -> Result<Vec<String>, Fail> {
    let mut bad = Vec::new();
    let engine = &run.report.engine;
    let entries = wal::read_journal(BufReader::new(std::fs::File::open(&run.journal)?))?;
    let journal: Vec<Command> = entries
        .into_iter()
        .filter_map(|e| match e {
            wal::WalEntry::Command(c) => Some(c),
            wal::WalEntry::Corrupt { line, reason } => {
                bad.push(format!("journal line {line} corrupt: {reason}"));
                None
            }
        })
        .collect();
    let mut expected_total = 0;
    for (s, (sess, g)) in run.sessions.iter().zip(&run.gens).enumerate() {
        let Gen::Ingest(model) = g else {
            continue;
        };
        let rel = model.rel.as_str();
        let versions = engine.version_count(rel).unwrap_or(0);
        if versions != 1 + sess.acked.len() {
            bad.push(format!(
                "{rel}: {versions} versions, expected {}",
                1 + sess.acked.len()
            ));
        }
        match engine.eval(&Expr::current(rel)) {
            Ok(state) if state == model.state() => {}
            Ok(_) => bad.push(format!(
                "{rel}: current state differs from the acked writes"
            )),
            Err(e) => bad.push(format!("{rel}: {e}")),
        }
        let mut expected = Vec::new();
        for text in gen::Ingest::new(seed, s as u64)
            .setup()
            .iter()
            .chain(&sess.acked)
        {
            expected.push(parse_command(text.trim_end_matches(';'))?);
        }
        expected_total += expected.len();
        let logged: Vec<&Command> = journal.iter().filter(|c| target(c) == Some(rel)).collect();
        if logged.len() != expected.len() || logged.iter().zip(&expected).any(|(a, b)| *a != b) {
            bad.push(format!(
                "{rel}: journal holds {} commands that differ from the {} acked",
                logged.len(),
                expected.len()
            ));
        }
    }
    if journal.len() != expected_total {
        bad.push(format!(
            "journal holds {} commands, {} acked",
            journal.len(),
            expected_total
        ));
    }
    Ok(bad)
}

/// Space per live byte after a fixed prefix of the `serve_ingest`
/// history: the set-up plus the first acked updates of each relation.
pub fn ingest_space(run: &ServeRun, seed: u64) -> Result<f64, Fail> {
    let mut eng = engine(1);
    for (s, sess) in run.sessions.iter().enumerate() {
        for text in gen::Ingest::new(seed, s as u64)
            .setup()
            .iter()
            .chain(sess.acked.iter().take(SPACE_DEPTH))
        {
            eng.execute(&parse_command(text.trim_end_matches(';'))?)?;
        }
    }
    Ok(space_ratio(&eng))
}

/// `serve_asof`'s post-run oracle: every sampled answer equals the
/// final history's answer at optimize 0 on the full-copy backend.
/// Returns (answers checked, mismatches).
pub fn check_asof(run: &ServeRun) -> Result<(u64, Vec<String>), Fail> {
    // The oracle replays at optimize 0 as well. Every other thread has
    // been joined, so switching the variable here races with nothing.
    std::env::set_var("TXTIME_OPTIMIZE", "0");
    let rec = recovery::recover(&run.journal, BackendKind::FullCopy, policy());
    std::env::set_var("TXTIME_OPTIMIZE", "2");
    let rec = rec?;
    let mut bad = Vec::new();
    if !rec.skipped.is_empty() {
        bad.push(format!("journal has corrupt lines: {:?}", rec.skipped));
    }
    if rec.engine.tx() != run.report.engine.tx() {
        bad.push(format!(
            "journal replays to tx {}, server stopped at tx {}",
            rec.engine.tx(),
            run.report.engine.tx()
        ));
    }
    let mut oracle = rec.engine;
    configure(&mut oracle, 0);
    let mut checked = 0;
    for (text, body) in run.sessions.iter().flat_map(|s| &s.samples) {
        let Command::Display(expr) = parse_command(text.trim_end_matches(';'))? else {
            return Err(format!("sampled a non-read: {text}").into());
        };
        checked += 1;
        let want = oracle.eval(&expr).map(|s: StateValue| s.to_string());
        if want.as_deref().ok() != Some(body.as_str()) {
            bad.push(format!("{text}: served {body:.60}, oracle {want:.60?}"));
        }
    }
    Ok((checked, bad))
}
