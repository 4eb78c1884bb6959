//! The traced run: the workload's request stream replayed in-process,
//! one request at a time, through the calls the server makes — parse →
//! check → (explain) → execute/eval → WAL append → fsync → linter
//! commit — with a span around each call. The spans are written out at
//! the end; the per-layer metrics are their self times plus the
//! counters the crates expose.
//!
//! The run has four phases: a short untraced server run (the client-
//! observed medians and the server gauges), the replay without spans
//! (the baseline for the tracing overhead), the replay with spans, and a
//! probe pass that times `explain` and ρ resolution for the same reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use txtime::analyze::Linter;
use txtime::core::{Command, CommandSpans, Expr, StateValue, TxSpec};
use txtime::parser::{parse_command_spanned, parse_sentence_spanned};
use txtime::storage::OpKind;
use txtime::storage::{recovery, wal, Engine};

use crate::report::{median, Latency, Metrics};
use crate::{configure, engine, gen, policy, script, serve, Fail, Outcome, Workload, BACKEND};

/// Operators whose counters the traced run reports: the ones the
/// layer map names.
const EXEC_OPS: [OpKind; 5] = [
    OpKind::Select,
    OpKind::Join,
    OpKind::Union,
    OpKind::Difference,
    OpKind::Propagate,
];

/// Requests replayed per server workload (fixed, so counts repeat).
const INGEST_REPLAY: usize = 3_000;
const ASOF_REPLAY: usize = 2_000;

struct Span {
    req: u32,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder; does nothing when off.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, req: u32, parent: Option<usize>, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed();
        self.spans.push(Span {
            req,
            parent,
            name,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end = self.t0.elapsed();
        }
    }

    fn span<R>(
        &mut self,
        req: u32,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(req, parent, name);
        let r = f();
        self.close(id);
        r
    }
}

/// The ρ/ρ̂ leaves of a read, as `Engine::resolve_many` probes.
fn rho_leaves<'e>(expr: &'e Expr, out: &mut Vec<(&'e str, TxSpec)>) {
    match expr {
        Expr::Rollback(i, spec) | Expr::HRollback(i, spec) => out.push((i, *spec)),
        Expr::SnapshotConst(_) | Expr::HistoricalConst(_) => {}
        Expr::Union(a, b)
        | Expr::Difference(a, b)
        | Expr::Product(a, b)
        | Expr::HUnion(a, b)
        | Expr::HDifference(a, b)
        | Expr::HProduct(a, b)
        | Expr::Join(_, a, b)
        | Expr::HJoin(_, a, b) => {
            rho_leaves(a, out);
            rho_leaves(b, out);
        }
        Expr::Project(_, e)
        | Expr::Select(_, e)
        | Expr::HProject(_, e)
        | Expr::HSelect(_, e)
        | Expr::Delta(_, _, e) => rho_leaves(e, out),
    }
}

enum Answer {
    Tx(u64),
    State(StateValue),
    /// A read in the probe pass, which times the probes instead of eval.
    Probed,
}

/// What a replay pass does with a read, and whether it records spans.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No spans: the baseline for the tracing overhead, and the counters.
    Plain,
    /// Spans around the server's calls.
    Traced,
    /// Spans around `explain` and `resolve_many` in place of `eval`. The
    /// probes warm the materialization cache and refresh the planner, so
    /// they run in a pass of their own and never ahead of a timed eval.
    Probe,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Probe => "probe",
        }
    }
}

/// One engine, linter and journal driven in the server's order.
struct Replayer {
    engine: Engine,
    linter: Linter,
    journal: std::fs::File,
    line: Vec<u8>,
    fsync: bool,
    probe: bool,
    tracer: Tracer,
}

impl Replayer {
    fn new(engine: Engine, linter: Linter, journal: &Path, fsync: bool) -> Result<Replayer, Fail> {
        Ok(Replayer {
            engine,
            linter,
            journal: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(journal)?,
            line: Vec::new(),
            fsync,
            probe: false,
            tracer: Tracer {
                on: false,
                t0: Instant::now(),
                spans: Vec::new(),
            },
        })
    }

    fn request(&mut self, id: u32, text: &str) -> Result<Answer, String> {
        let root = self.tracer.open(id, None, "request");
        let parsed = self.tracer.span(id, root, "parser.parse", || {
            parse_command_spanned(text.trim().trim_end_matches(';'))
        });
        let r = match parsed {
            Ok((cmd, spans)) => self.pipeline(id, root, &cmd, Some(&spans)),
            Err(e) => Err(format!("parse: {e}")),
        };
        self.tracer.close(root);
        r
    }

    /// check → execute/eval → WAL → fsync → commit. In the probe pass a
    /// read runs (explain →) ρ resolution in place of eval.
    fn pipeline(
        &mut self,
        id: u32,
        root: Option<usize>,
        cmd: &Command,
        spans: Option<&CommandSpans>,
    ) -> Result<Answer, String> {
        let t = &mut self.tracer;
        let diags = t.span(id, root, "analyze.check", || self.linter.check(cmd, spans));
        if let Some(d) = diags.first() {
            return Err(format!("check: {d}"));
        }
        if cmd.is_mutation() {
            t.span(id, root, "storage.apply", || self.engine.execute(cmd))
                .map_err(|e| format!("exec: {e}"))?;
            let (line, journal) = (&mut self.line, &mut self.journal);
            t.span(id, root, "storage.wal_append", || {
                line.clear();
                wal::append_command(line, cmd).and_then(|()| journal.write_all(line))
            })
            .map_err(|e| format!("wal: {e}"))?;
            if self.fsync {
                t.span(id, root, "storage.fsync", || journal.sync_all())
                    .map_err(|e| format!("fsync: {e}"))?;
            }
            t.span(id, root, "analyze.commit", || self.linter.commit(cmd, None));
            return Ok(Answer::Tx(self.engine.tx().0));
        }
        let Command::Display(expr) = cmd else {
            return Err("unsupported non-mutating command".to_string());
        };
        if self.probe {
            if self.engine.optimize_level() >= 2 {
                t.span(id, root, "optimizer.plan", || self.engine.explain(expr));
            }
            let mut leaves = Vec::new();
            rho_leaves(expr, &mut leaves);
            let resolved = t.span(id, root, "storage.rollback", || {
                self.engine.resolve_many(&leaves)
            });
            return match resolved.into_iter().find_map(Result::err) {
                Some(e) => Err(format!("rollback: {e}")),
                None => Ok(Answer::Probed),
            };
        }
        t.span(id, root, "storage.eval", || self.engine.eval(expr))
            .map(Answer::State)
            .map_err(|e| format!("exec: {e}"))
    }
}

/// What one replay pass produced.
struct Pass {
    replayer: Replayer,
    secs: f64,
    requests: usize,
    failed: u64,
    first_error: Option<String>,
    /// Optimizer counters at the start of the replayed stream.
    opt_before: (u64, u64),
}

fn note_failure(pass: &mut Pass, e: String) {
    pass.failed += 1;
    pass.first_error.get_or_insert(e);
}

/// The workload's starting state, driven through a fresh replayer.
fn start(w: Workload, seed: u64, journal: &Path) -> Result<Replayer, Fail> {
    let _ = std::fs::remove_file(journal);
    match w {
        Workload::ServeIngest => {
            let mut r = Replayer::new(engine(1), Linter::new(), journal, true)?;
            for s in 0..crate::SESSIONS {
                for cmd in gen::Ingest::new(seed, s).setup() {
                    r.request(0, &cmd)?;
                }
            }
            Ok(r)
        }
        Workload::ServeAsof => {
            let history = gen::asof_history(seed);
            serve::write_journal(journal, &history)?;
            let mut engine = recovery::recover(journal, BACKEND, policy())?.engine;
            configure(&mut engine, 2);
            let mut linter = Linter::new();
            for text in &history {
                let cmd = txtime::parser::parse_command(text.trim_end_matches(';'))?;
                linter.check_and_commit(&cmd, None);
            }
            Replayer::new(engine, linter, journal, true)
        }
        Workload::ScriptReplay => Replayer::new(engine(1), Linter::new(), journal, false),
    }
}

/// Builds the workload's starting state, then replays its stream: the
/// two sessions' requests alternately, or the whole script.
fn replay(w: Workload, seed: u64, dir: &Path, mode: Mode) -> Result<Pass, Fail> {
    let replayer = start(w, seed, &dir.join(format!("replay-{}.wal", mode.name())))?;
    let opt = replayer.engine.optimizer_stats();
    replayer.engine.reset_exec_stats();
    replayer.engine.reset_cache_stats();
    replayer.engine.reset_memo_stats();
    let mut pass = Pass {
        replayer,
        secs: 0.0,
        requests: 0,
        failed: 0,
        first_error: None,
        opt_before: (opt.searches, opt.plan_cache_hits),
    };
    pass.replayer.tracer.on = mode != Mode::Plain;
    pass.replayer.probe = mode == Mode::Probe;
    pass.replayer.tracer.t0 = Instant::now();
    // The script's answers are checked after the timed pass.
    let mut script_check = None;
    let t0 = Instant::now();
    match w {
        Workload::ServeIngest => {
            let mut gens: Vec<gen::Ingest> = (0..crate::SESSIONS)
                .map(|s| gen::Ingest::new(seed, s))
                .collect();
            let n = gens.len();
            for i in 0..INGEST_REPLAY {
                let req = gens[i % n].next();
                match pass.replayer.request(i as u32 + 1, &req.text) {
                    Ok(Answer::State(s)) if req.expect.as_ref() != Some(&s.to_string()) => {
                        note_failure(&mut pass, format!("wrong answer to {}", req.text))
                    }
                    Ok(_) => {}
                    Err(e) => note_failure(&mut pass, e),
                }
            }
            pass.requests = INGEST_REPLAY;
        }
        Workload::ServeAsof => {
            let mut gens: Vec<(gen::Asof, u64)> = (0..crate::SESSIONS)
                .map(|s| (gen::Asof::new(seed, s), gen::ASOF_SETUP_TX))
                .collect();
            let n = gens.len();
            for i in 0..ASOF_REPLAY {
                let (g, latest) = &mut gens[i % n];
                let req = g.next(*latest);
                match pass.replayer.request(i as u32 + 1, &req.text) {
                    Ok(Answer::Tx(tx)) => *latest = tx,
                    Ok(Answer::State(_) | Answer::Probed) => {}
                    Err(e) => note_failure(&mut pass, e),
                }
            }
            pass.requests = ASOF_REPLAY;
        }
        Workload::ScriptReplay => {
            let source = gen::script(seed);
            let r = &mut pass.replayer;
            let parsed = r
                .tracer
                .span(0, None, "parser.parse", || parse_sentence_spanned(&source));
            let (sentence, spans) = parsed?;
            let (mut displays, mut errors) = (Vec::new(), Vec::new());
            for (i, cmd) in sentence.commands().iter().enumerate() {
                let id = i as u32 + 1;
                let root = r.tracer.open(id, None, "request");
                let res = r.pipeline(id, root, cmd, spans.commands.get(i));
                r.tracer.close(root);
                match res {
                    Ok(Answer::State(s)) => displays.push(s),
                    Ok(Answer::Tx(_) | Answer::Probed) => {}
                    Err(e) => errors.push(e),
                }
            }
            for e in errors {
                note_failure(&mut pass, e);
            }
            pass.requests = sentence.commands().len();
            // The probe pass evaluates no display, so it has none to check.
            if mode != Mode::Probe {
                script_check = Some((sentence, displays));
            }
        }
    }
    pass.secs = t0.elapsed().as_secs_f64();
    if let Some((sentence, displays)) = script_check {
        let reference = script::Reference::of(&sentence)?;
        for bad in reference.compare(&displays, &pass.replayer.engine) {
            note_failure(&mut pass, bad);
        }
    }
    Ok(pass)
}

/// The layers the untraced per-request figure does not cover, so the
/// remainder leaves them out too: for `script_replay` the linter, which
/// `txtime run` runs before execution (its time is in `setup_s`, not in
/// a command's latency).
fn unsummed(w: Workload) -> &'static [&'static str] {
    if w == Workload::ScriptReplay {
        &["analyze.check", "analyze.commit"]
    } else {
        &[]
    }
}

/// Per-layer self time: (calls, self seconds), plus the per-request sum
/// of the layer time the untraced figure covers, for writes and reads.
struct SelfTimes {
    layers: BTreeMap<&'static str, (u64, f64)>,
    write_layers_us: Vec<f64>,
    read_layers_us: Vec<f64>,
}

fn self_times(spans: &[Span], unsummed: &[&str]) -> SelfTimes {
    let dur = |s: &Span| (s.end - s.start).as_secs_f64();
    let mut child_sum = vec![0.0; spans.len()];
    let mut is_write = vec![false; spans.len()];
    let mut unsummed_sum = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += dur(s);
            if s.name == "storage.apply" {
                is_write[p] = true;
            }
            if unsummed.contains(&s.name) {
                unsummed_sum[p] += dur(s);
            }
        }
    }
    let mut out = SelfTimes {
        layers: BTreeMap::new(),
        write_layers_us: Vec::new(),
        read_layers_us: Vec::new(),
    };
    for (i, s) in spans.iter().enumerate() {
        let e = out.layers.entry(s.name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += dur(s) - child_sum[i];
        if s.name == "request" {
            let layers_us = (child_sum[i] - unsummed_sum[i]) * 1e6;
            if is_write[i] {
                out.write_layers_us.push(layers_us);
            } else {
                out.read_layers_us.push(layers_us);
            }
        }
    }
    out
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("span\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.req,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos()
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Client-observed medians from an untraced run, and the server gauges.
struct Observed {
    commit_p50_us: f64,
    read_p50_us: f64,
    commits_per_fsync: f64,
    shed: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn observe(w: Workload, seed: u64, dir: &Path, seconds: f64) -> Result<Observed, Fail> {
    if w == Workload::ScriptReplay {
        let r = script::run(seed, dir, crate::warmup(seconds), seconds)?;
        return Ok(Observed {
            commit_p50_us: Latency::of(&r.commit_us.iter().map(|x| x.1).collect::<Vec<_>>()).p50,
            read_p50_us: Latency::of(&r.read_us.iter().map(|x| x.1).collect::<Vec<_>>()).p50,
            commits_per_fsync: 0.0,
            shed: 0.0,
            attempted: r.attempted,
            failed: r.failed,
            problems: Vec::new(),
        });
    }
    let run = serve::run(w, seed, dir, 1, crate::warmup(seconds), seconds)?;
    let problems = match w {
        Workload::ServeIngest => serve::check_ingest(&run, seed)?,
        _ => serve::check_asof(&run)?.1,
    };
    let (attempted, failed) = crate::serve_counts(&run, problems.len());
    let lat = |f: fn(&serve::Session) -> &Vec<(f64, f64)>| {
        let v: Vec<f64> = run
            .sessions
            .iter()
            .flat_map(|s| f(s).iter().map(|x| x.1))
            .collect();
        Latency::of(&v).p50
    };
    Ok(Observed {
        commit_p50_us: lat(|s| &s.commits),
        read_p50_us: lat(|s| &s.reads),
        commits_per_fsync: run.report.group_commit.commits_per_fsync(),
        shed: run.report.sessions.shed_requests as f64,
        attempted,
        failed,
        problems,
    })
}

/// The faster of two identical replays. The replay is deterministic, so
/// the difference between two is host noise; comparing the fastest of
/// each kind keeps the tracing overhead from reading a stall as cost.
fn fastest_replay(w: Workload, seed: u64, dir: &Path, mode: Mode) -> Result<Pass, Fail> {
    let first = replay(w, seed, dir, mode)?;
    let second = replay(w, seed, dir, mode)?;
    Ok(if second.secs < first.secs {
        second
    } else {
        first
    })
}

pub fn run(w: Workload, seed: u64, dir: &Path, seconds: f64) -> Result<Outcome, Fail> {
    let obs = observe(w, seed, dir, seconds / 2.0)?;
    let base = fastest_replay(w, seed, dir, Mode::Plain)?;
    let traced = fastest_replay(w, seed, dir, Mode::Traced)?;
    let probed = replay(w, seed, dir, Mode::Probe)?;
    let journal = dir.join("replay-traced.wal");
    let t = Instant::now();
    let rec = recovery::recover(&journal, BACKEND, policy())?;
    let recover_s = t.elapsed().as_secs_f64();
    drop(rec);

    let r = &traced.replayer;
    let spans = &r.tracer.spans;
    let spans_path = crate::target_dir()
        .join("txbench-traces")
        .join(format!("{}-seed{seed}.tsv", w.name()));
    write_spans(&spans_path, spans)?;
    let st = self_times(spans, unsummed(w));
    let pt = self_times(&probed.replayer.tracer.spans, &[]);
    let requests = traced.requests as f64;

    println!(
        "traced replay: {} requests, {} spans (written to {})",
        traced.requests,
        spans.len(),
        spans_path.display()
    );
    println!(
        "  {:<22} {:>8} {:>12} {:>10} {:>7}",
        "layer", "calls", "self us/call", "total ms", "share"
    );
    let total: f64 = st.layers.values().map(|l| l.1).sum();
    for (name, (calls, secs)) in &st.layers {
        println!(
            "  {name:<22} {calls:>8} {:>12.2} {:>10.2} {:>6.1}%",
            secs * 1e6 / *calls as f64,
            secs * 1e3,
            100.0 * secs / total.max(f64::MIN_POSITIVE)
        );
    }
    println!("  probes, timed in a separate pass that skips eval:");
    for name in ["optimizer.plan", "storage.rollback"] {
        if let Some((calls, secs)) = pt.layers.get(name) {
            println!(
                "  {name:<22} {calls:>8} {:>12.2} {:>10.2}",
                secs * 1e6 / *calls as f64,
                secs * 1e3
            );
        }
    }

    let mut m = Metrics::default();
    let per_call_in = |t: &SelfTimes, name: &str| {
        t.layers
            .get(name)
            .map_or(0.0, |(calls, secs)| secs * 1e6 / *calls as f64)
    };
    let per_call = |name: &str| per_call_in(&st, name);
    // The script is parsed once; its parse is reported per command.
    let parse_us = if w == Workload::ScriptReplay {
        st.layers
            .get("parser.parse")
            .map_or(0.0, |l| l.1 * 1e6 / requests)
    } else {
        per_call("parser.parse")
    };
    m.add("parser.parse_us", parse_us, "us");
    for layer in ["analyze.check", "analyze.commit"] {
        m.add(format!("{layer}_us"), per_call(layer), "us");
    }
    m.add(
        "optimizer.plan_us",
        per_call_in(&pt, "optimizer.plan"),
        "us",
    );
    // Counters come from the untraced replay: the same stream, without
    // spans or probes, so they count only what the pipeline itself did.
    let counted = &base.replayer.engine;
    let opt = counted.optimizer_stats();
    let searches = opt.searches - base.opt_before.0;
    let hits = opt.plan_cache_hits - base.opt_before.1;
    m.add(
        "optimizer.plan_cache_hit_ratio",
        hits as f64 / (hits + searches).max(1) as f64,
        "ratio",
    );
    for layer in ["storage.apply", "storage.eval"] {
        m.add(format!("{layer}_us"), per_call(layer), "us");
    }
    m.add(
        "storage.rollback_us",
        per_call_in(&pt, "storage.rollback"),
        "us",
    );
    let cache = counted.cache_stats();
    m.add("storage.cache_hit_ratio", cache.hit_rate(), "ratio");
    m.add("storage.deltas_per_miss", cache.replay_per_miss(), "count");
    m.add(
        "storage.memo_hit_ratio",
        counted.memo_stats().hit_rate(),
        "ratio",
    );
    for layer in ["storage.wal_append", "storage.fsync"] {
        m.add(format!("{layer}_us"), per_call(layer), "us");
    }
    m.add("storage.recover_s", recover_s, "s");
    let exec = counted.exec_stats();
    for op in EXEC_OPS {
        let stat = exec.ops.iter().find(|o| o.name == op.name());
        let (calls, nanos) = stat.map_or((0, 0), |o| (o.calls, o.nanos));
        m.add(
            format!("exec.{}_us", op.name()),
            nanos as f64 / 1e3 / calls.max(1) as f64,
            "us",
        );
        m.add(format!("exec.{}_calls", op.name()), calls as f64, "count");
    }
    let joins = counted.join_stats();
    m.add("exec.join_build_rows", joins.build_rows as f64, "count");
    m.add("exec.join_probe_rows", joins.probe_rows as f64, "count");
    m.add("server.commits_per_fsync", obs.commits_per_fsync, "ratio");
    m.add("server.shed_requests", obs.shed, "count");
    // The unaccounted remainder: client-observed median minus the
    // median summed layer time of the same request kind.
    let commit_self = obs.commit_p50_us - median(&st.write_layers_us);
    let read_self = obs.read_p50_us - median(&st.read_layers_us);
    m.add("server.commit_self_us", commit_self, "us");
    m.add("server.read_self_us", read_self, "us");
    let overhead = traced.secs / base.secs - 1.0;
    m.add("trace.overhead_frac", overhead, "frac");
    m.add("trace.spans", spans.len() as f64, "count");
    println!(
        "untraced medians: commit {:.1} us, read {:.1} us; unaccounted remainder: commit {commit_self:.1} us, read {read_self:.1} us",
        obs.commit_p50_us, obs.read_p50_us
    );
    println!(
        "tracing overhead: traced replay {:.3} s vs untraced {:.3} s ({:+.1}%)",
        traced.secs,
        base.secs,
        overhead * 100.0
    );
    for p in [&base, &traced, &probed] {
        if let Some(e) = &p.first_error {
            println!("replay failure: {e}");
        }
    }
    Ok(Outcome {
        metrics: m,
        attempted: obs.attempted + (base.requests + traced.requests + probed.requests) as u64,
        failed: obs.failed + base.failed + traced.failed + probed.failed,
        problems: obs.problems,
    })
}
