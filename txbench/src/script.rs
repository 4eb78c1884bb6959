//! `script_replay`: the `txtime run --wal` path in one process — whole-
//! sentence static check, then `Engine::with_wal` + `execute_script` —
//! repeated over one generated script, checked against the reference
//! semantics.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use txtime::analyze::lint_sentence;
use txtime::core::{CommandOutcome, Database, Expr, Sentence, StateValue, TxSpec};
use txtime::parser::{parse_sentence, parse_sentence_spanned};
use txtime::storage::Engine;

use crate::window::{self, Slice};
use crate::{configure, policy, Fail, BACKEND};

/// What the reference semantics says the script produces.
pub struct Reference {
    pub displays: Vec<StateValue>,
    /// Per relation: name, type-appropriate current state, versions.
    pub finals: Vec<(String, StateValue, usize)>,
}

impl Reference {
    pub fn of(sentence: &Sentence) -> Result<Reference, Fail> {
        let mut db = Database::empty();
        let mut displays = Vec::new();
        for cmd in sentence.commands() {
            let (next, outcome) = cmd.execute(&db)?;
            if let CommandOutcome::Displayed(state) = outcome {
                displays.push(state);
            }
            db = next;
        }
        let finals = db
            .state
            .iter()
            .filter_map(|(name, rel)| {
                let cur = rel.current()?;
                Some((name.clone(), cur.state.clone(), rel.versions().len()))
            })
            .collect();
        Ok(Reference { displays, finals })
    }

    /// Mismatches between an engine's run and the reference.
    pub fn compare(&self, displays: &[StateValue], engine: &Engine) -> Vec<String> {
        let mut bad = Vec::new();
        if displays.len() != self.displays.len() {
            bad.push(format!(
                "{} displays, reference has {}",
                displays.len(),
                self.displays.len()
            ));
        }
        for (i, (got, want)) in displays.iter().zip(&self.displays).enumerate() {
            if got != want {
                bad.push(format!("display #{i} differs from the reference"));
            }
        }
        for (name, want, versions) in &self.finals {
            let spec = if want.is_historical() {
                Expr::HRollback(name.clone(), TxSpec::Current)
            } else {
                Expr::current(name)
            };
            if engine.eval(&spec).ok().as_ref() != Some(want) {
                bad.push(format!("{name}: final state differs from the reference"));
            }
            if engine.version_count(name) != Some(*versions) {
                bad.push(format!("{name}: version count differs from the reference"));
            }
        }
        bad
    }
}

/// Iterations after which the peak RSS is read: a fixed amount of work,
/// so the figure does not move with the length of the window.
const RSS_DEPTH: u64 = 4;

/// The untraced run's observations.
pub struct ScriptRun {
    pub commands: usize,
    pub writes: usize,
    pub reads: usize,
    /// Per recorded iteration, script read + static check + engine open:
    /// (start and end in seconds after the window opened, seconds).
    pub setup_s: Vec<(f64, f64, f64)>,
    /// Per recorded `execute_script` iteration, the whole `txtime run`:
    /// (start and end in seconds after the window opened, seconds).
    pub iter_s: Vec<(f64, f64, f64)>,
    /// (completion, seconds after the window opened; latency in us) of
    /// each command of the per-command iterations.
    pub commit_us: Vec<(f64, f64)>,
    pub read_us: Vec<(f64, f64)>,
    /// The measured window, cut into slices with the host's steal.
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub rss_mb: f64,
    pub space_ratio: f64,
}

/// Runs the script repeatedly through `warmup` and a window of at least
/// `seconds` (see [`window::watch`]). Even iterations call
/// `execute_script` (the timed `txtime run`); odd ones execute the same
/// parsed sentence command by command to time each command.
pub fn run(seed: u64, dir: &Path, warmup: Duration, seconds: f64) -> Result<ScriptRun, Fail> {
    let script_path = dir.join("script.txq");
    std::fs::write(&script_path, crate::gen::script(seed))?;
    let reference = Reference::of(&parse_sentence(&std::fs::read_to_string(&script_path)?)?)?;
    let mut out = ScriptRun {
        commands: 0,
        writes: 0,
        reads: 0,
        setup_s: Vec::new(),
        iter_s: Vec::new(),
        commit_us: Vec::new(),
        read_us: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
        rss_mb: 0.0,
        space_ratio: 0.0,
        slices: Vec::new(),
    };
    let warm = Instant::now() + warmup;
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| window::watch(warm, seconds, &stop));
        let result = iterate(&mut out, &reference, dir, warm, &stop);
        stop.store(true, Ordering::Relaxed);
        out.slices = watcher.join().unwrap_or_default();
        result
    });
    result?;
    if out.rss_mb == 0.0 {
        out.rss_mb = crate::report::peak_rss_mb();
    }
    Ok(out)
}

/// The iterations of [`run`], until `stop` is set and at least one
/// iteration of each kind was recorded.
fn iterate(
    out: &mut ScriptRun,
    reference: &Reference,
    dir: &Path,
    warm: Instant,
    stop: &AtomicBool,
) -> Result<(), Fail> {
    let script_path = dir.join("script.txq");
    let wal_path = dir.join("script.wal");
    let since_warm = |t: Instant| t.saturating_duration_since(warm).as_secs_f64();
    let mut iteration = 0u64;
    while !stop.load(Ordering::Relaxed) || out.iter_s.is_empty() || out.commit_us.is_empty() {
        let record = Instant::now() >= warm;
        let t0 = Instant::now();
        let source = std::fs::read_to_string(&script_path)?;
        let (sentence, spans) = parse_sentence_spanned(&source)?;
        let lint = lint_sentence(&sentence, Some(&spans));
        if !lint.diagnostics.is_empty() {
            return Err(format!("script fails its static check: {}", lint.diagnostics[0]).into());
        }
        let _ = std::fs::remove_file(&wal_path);
        let mut engine = Engine::with_wal(BACKEND, policy(), &wal_path)?;
        configure(&mut engine, 1);
        let prologue = t0.elapsed();
        let mut displays = Vec::new();
        let timed_whole = iteration.is_multiple_of(2);
        let executed = if timed_whole {
            match engine.execute_script(&source) {
                Ok(outcomes) => {
                    let n = outcomes.len();
                    displays.extend(outcomes.into_iter().filter_map(|o| match o {
                        CommandOutcome::Displayed(s) => Some(s),
                        _ => None,
                    }));
                    n
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error.get_or_insert(e.to_string());
                    0
                }
            }
        } else {
            let parsed = parse_sentence(&source)?;
            let mut n = 0;
            for cmd in parsed.commands() {
                let t = Instant::now();
                let r = engine.execute(cmd);
                let done = Instant::now();
                let sample = (since_warm(done), (done - t).as_secs_f64() * 1e6);
                n += 1;
                if record {
                    if cmd.is_mutation() {
                        out.commit_us.push(sample);
                    } else {
                        out.read_us.push(sample);
                    }
                }
                match r {
                    Ok(CommandOutcome::Displayed(s)) => displays.push(s),
                    Ok(_) => {}
                    Err(e) => {
                        out.failed += 1;
                        out.first_error.get_or_insert(e.to_string());
                        break;
                    }
                }
            }
            n
        };
        let executing = t0.elapsed();
        let bad = reference.compare(&displays, &engine);
        if !bad.is_empty() {
            out.failed += bad.len() as u64;
            out.first_error.get_or_insert(bad[0].clone());
        }
        if iteration == 0 {
            out.commands = sentence.commands().len();
            out.writes = sentence
                .commands()
                .iter()
                .filter(|c| c.is_mutation())
                .count();
            out.reads = out.commands - out.writes;
            out.space_ratio = crate::serve::space_ratio(&engine);
        }
        // Dropping the engine syncs the journal, as `txtime run`'s exit
        // does.
        let t_drop = Instant::now();
        drop(engine);
        let whole = executing + t_drop.elapsed();
        out.attempted += executed as u64;
        if record {
            let from = since_warm(t0);
            out.setup_s
                .push((from, from + prologue.as_secs_f64(), prologue.as_secs_f64()));
            if timed_whole {
                let end = since_warm(Instant::now());
                out.iter_s.push((since_warm(t0), end, whole.as_secs_f64()));
            }
        }
        iteration += 1;
        if iteration == RSS_DEPTH {
            out.rss_mb = crate::report::peak_rss_mb();
        }
    }
    Ok(())
}
