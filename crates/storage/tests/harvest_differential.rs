//! Differential tests for the level-2 planner's column statistics: the
//! engine keeps them incrementally, merging each moved relation's
//! harvested state against its current one. After every command of a
//! random sequence — adds and removes, valid-time-only revalues, empty
//! states, `evolve_scheme`, delete-then-redefine under the same name —
//! the maintained cardinality, value ranges, distinct counts and MCVs
//! must equal a from-scratch harvest of the current state, and `explain`
//! at level 2 must equal `explain` on an engine recovered from the same
//! journal prefix. Every backend, unsharded and 4-way sharded.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_analyze::{CardInterval, ColumnStats, ValueRange, VersionStats};
use txtime_core::{Command, Expr, RelationType, SchemeChange, StateValue};
use txtime_historical::generate::{random_element, HistGenConfig};
use txtime_historical::HistoricalState;
use txtime_optimizer::OptimizerStats;
use txtime_snapshot::generate::{random_tuple, GenConfig};
use txtime_snapshot::{DomainType, Predicate, Schema, SnapshotState, Value};
use txtime_storage::recovery::recover;
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

const SHARDS: [usize; 2] = [1, 4];

/// One relation of each type, all over [`schema`] until evolved.
const RELATIONS: [(&str, RelationType); 4] = [
    ("s", RelationType::Snapshot),
    ("r", RelationType::Rollback),
    ("h", RelationType::Historical),
    ("t", RelationType::Temporal),
];

fn schema() -> Schema {
    Schema::new(vec![("a0", DomainType::Int), ("a1", DomainType::Str)]).unwrap()
}

/// Small value pools, so columns repeat values and MCV counts tie.
fn hist_cfg() -> HistGenConfig {
    HistGenConfig {
        values: GenConfig {
            arity: 2,
            cardinality: 6,
            int_range: 6,
            str_pool: 3,
        },
        horizon: 20,
        max_periods: 2,
    }
}

fn checkpoints() -> CheckpointPolicy {
    CheckpointPolicy::every_k(3).unwrap()
}

fn current(e: &Engine, name: &str, rtype: RelationType) -> Option<StateValue> {
    let leaf = if rtype.holds_historical() {
        Expr::hcurrent(name)
    } else {
        Expr::current(name)
    };
    e.eval(&leaf).ok()
}

fn state_const(state: StateValue) -> Expr {
    match state {
        StateValue::Snapshot(s) => Expr::snapshot_const(s),
        StateValue::Historical(h) => Expr::historical_const(h),
    }
}

/// The next state for a relation holding `state`: some tuples leave,
/// some arrive. Historical arrivals get random valid times.
fn adds_and_removes(rng: &mut StdRng, state: &StateValue) -> StateValue {
    let cfg = hist_cfg();
    let arrivals = rng.gen_range(0..4);
    match state {
        StateValue::Snapshot(s) => {
            let mut tuples = s.tuples();
            tuples.retain(|_| rng.gen_bool(0.7));
            for _ in 0..arrivals {
                tuples.insert(random_tuple(rng, s.schema(), &cfg.values));
            }
            SnapshotState::new(s.schema().clone(), tuples)
                .unwrap()
                .into()
        }
        StateValue::Historical(h) => {
            let mut entries = h.entries();
            entries.retain(|_, _| rng.gen_bool(0.7));
            for _ in 0..arrivals {
                let t = random_tuple(rng, h.schema(), &cfg.values);
                entries.insert(t, random_element(rng, &cfg));
            }
            HistoricalState::new(h.schema().clone(), entries)
                .unwrap()
                .into()
        }
    }
}

/// The same value tuples with fresh valid times: no column changes.
fn revalue(rng: &mut StdRng, h: &HistoricalState) -> StateValue {
    let cfg = hist_cfg();
    let entries: Vec<_> = h
        .iter()
        .map(|(t, _)| (t.clone(), random_element(rng, &cfg)))
        .collect();
    HistoricalState::new(h.schema().clone(), entries)
        .unwrap()
        .into()
}

fn random_change(rng: &mut StdRng, schema: &Schema) -> SchemeChange {
    let first = schema.attributes()[0].name.to_string();
    match rng.gen_range(0..3) {
        0 => SchemeChange::AddAttribute {
            name: format!("x{}", schema.arity()),
            domain: DomainType::Int,
            default: Value::Int(rng.gen_range(0..3)),
        },
        1 if schema.arity() > 1 => SchemeChange::DropAttribute(first),
        _ => SchemeChange::RenameAttribute {
            to: format!("{first}r"),
            from: first,
        },
    }
}

/// A random command sequence, drawn against a scratch engine so each
/// write starts from the relation's actual current state.
fn random_script(rng: &mut StdRng, len: usize) -> Vec<Command> {
    let mut scratch = Engine::new(BackendKind::FullCopy, CheckpointPolicy::Never);
    scratch.set_optimize(1);
    let mut cmds = Vec::new();
    while cmds.len() < len {
        let (name, rtype) = RELATIONS[rng.gen_range(0..RELATIONS.len())];
        let cmd = if scratch.relation_type(name).is_none() {
            Command::define_relation(name, rtype)
        } else {
            let state = current(&scratch, name, rtype).unwrap_or_else(|| {
                if rtype.holds_historical() {
                    HistoricalState::empty(schema()).into()
                } else {
                    SnapshotState::empty(schema()).into()
                }
            });
            match (rng.gen_range(0..12), &state) {
                // Redefined under the same name and type on a later draw.
                (0, _) => Command::delete_relation(name),
                (1 | 2, _) => {
                    let schema = match &state {
                        StateValue::Snapshot(s) => s.schema().clone(),
                        StateValue::Historical(h) => h.schema().clone(),
                    };
                    Command::evolve_scheme(name, random_change(rng, &schema))
                }
                (3, _) => Command::modify_state(name, state_const(state.empty_like())),
                (4 | 5, StateValue::Historical(h)) => {
                    Command::modify_state(name, state_const(revalue(rng, h)))
                }
                _ => Command::modify_state(name, state_const(adds_and_removes(rng, &state))),
            }
        };
        let _ = scratch.execute(&cmd);
        cmds.push(cmd);
    }
    cmds
}

/// The from-scratch harvest of `state`: the test oracle.
fn oracle(
    state: &StateValue,
) -> (
    CardInterval,
    Option<Vec<ValueRange>>,
    Option<Vec<ColumnStats>>,
) {
    let (arity, tuples): (usize, Vec<&txtime_snapshot::Tuple>) = match state {
        StateValue::Snapshot(s) => (s.schema().arity(), s.iter().collect()),
        StateValue::Historical(h) => (h.schema().arity(), h.iter().map(|(t, _)| t).collect()),
    };
    let card = CardInterval::exact(tuples.len() as u64);
    if tuples.is_empty() {
        return (card, None, None);
    }
    let ranges = (0..arity)
        .map(|i| ValueRange::spanning(tuples.iter().map(|t| t.get(i))))
        .collect();
    let columns = (0..arity)
        .map(|i| ColumnStats::from_values(tuples.iter().map(|t| t.get(i)), tuples.len()))
        .collect();
    (card, Some(ranges), Some(columns))
}

/// Queries whose plan estimates read every kind of column statistic.
fn explain_pool() -> Vec<Expr> {
    vec![
        Expr::current("r").select(Predicate::eq_const("a0", Value::Int(2))),
        Expr::current("s").select(Predicate::eq_const("a1", Value::str("s1"))),
        Expr::current("r")
            .union(Expr::current("s"))
            .select(Predicate::gt_const("a0", Value::Int(3))),
        Expr::hcurrent("h").hselect(Predicate::lt_const("a0", Value::Int(4))),
        Expr::hcurrent("t")
            .hunion(Expr::hcurrent("h"))
            .hselect(Predicate::eq_const("a1", Value::str("s0"))),
    ]
}

static RUN: AtomicUsize = AtomicUsize::new(0);

fn wal_path(backend: BackendKind, shards: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("txtime-harvest-differential");
    std::fs::create_dir_all(&dir).unwrap();
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "{backend}-{shards}-{}-{run}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs `cmds` on one backend/shard configuration, checking the
/// planner's statistics and plans after every command. Returns the
/// live engine's optimizer counters.
fn drive(cmds: &[Command], backend: BackendKind, shards: usize) -> OptimizerStats {
    let path = wal_path(backend, shards);
    let mut e = Engine::with_wal(backend, checkpoints(), &path).unwrap();
    e.set_shards(shards);
    e.set_optimize(2);
    // Whether each relation's scheme has held since its definition.
    let mut stable = [true; RELATIONS.len()];
    let queries = explain_pool();
    for (step, cmd) in cmds.iter().enumerate() {
        let label = format!("{backend}, {shards} shard(s), step {step}: {cmd:?}");
        let ok = e.execute(cmd).is_ok();
        for (i, (name, rtype)) in RELATIONS.iter().enumerate() {
            match cmd {
                Command::DefineRelation(n, _) if n == name && ok => stable[i] = true,
                Command::EvolveScheme(n, _) if n == name && ok => stable[i] = false,
                _ => {}
            }
            let want = current(&e, name, *rtype)
                .filter(|_| stable[i])
                .map(|s| oracle(&s));
            let got = e.planner_stats(name).map(
                |VersionStats {
                     card,
                     ranges,
                     columns,
                     ..
                 }| (card, ranges, columns),
            );
            assert_eq!(got, want, "{label}: statistics of {name}");
        }
        let mut recovered = recover(&path, backend, checkpoints()).unwrap().engine;
        recovered.set_optimize(2);
        for q in &queries {
            assert_eq!(e.explain(q), recovered.explain(q), "{label}: explain {q}");
        }
    }
    let stats = e.optimizer_stats();
    drop(e);
    let _ = std::fs::remove_file(&path);
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_statistics_match_a_fresh_harvest(
        seed in any::<u64>(),
        len in 8usize..28,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds = random_script(&mut rng, len);
        for backend in BackendKind::ALL {
            for shards in SHARDS {
                drive(&cmds, backend, shards);
            }
        }
    }
}

/// A long fixed script: the merge path, not only the full count, must
/// carry the checks above.
#[test]
fn long_scripts_advance_harvests_by_merging() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let cmds = random_script(&mut rng, 80);
    for backend in BackendKind::ALL {
        let stats = drive(&cmds, backend, 1);
        assert!(stats.stats_advances > 0, "{backend}: {stats:?}");
        assert!(stats.stats_tuples_merged > 0, "{backend}: {stats:?}");
    }
}

/// `stats_catalog` walks each version through the same harvest; every
/// version's statistics must equal the oracle's, across a scheme change.
#[test]
fn stats_catalog_matches_a_fresh_harvest_per_version() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let cmds = random_script(&mut rng, 40);
    for backend in BackendKind::ALL {
        let mut e = Engine::new(backend, checkpoints());
        let mut oracles: BTreeMap<String, Vec<StateValue>> = BTreeMap::new();
        for cmd in &cmds {
            if e.execute(cmd).is_err() {
                continue;
            }
            match cmd {
                Command::DeleteRelation(n) => {
                    oracles.remove(n);
                }
                Command::ModifyState(n, _) | Command::EvolveScheme(n, _) => {
                    let (_, rtype) = RELATIONS.iter().find(|(name, _)| name == n).unwrap();
                    let state = current(&e, n, *rtype).unwrap();
                    let history = oracles.entry(n.clone()).or_default();
                    if !rtype.keeps_history() {
                        history.clear();
                    }
                    history.push(state);
                }
                _ => {}
            }
        }
        let catalog = e.stats_catalog();
        for (name, history) in &oracles {
            let versions = &catalog.get(name).unwrap().versions;
            let got: Vec<_> = versions
                .iter()
                .map(|v| (v.card, v.ranges.clone(), v.columns.clone()))
                .collect();
            let want: Vec<_> = history.iter().map(oracle).collect();
            assert_eq!(got, want, "{backend}: versions of {name}");
        }
    }
}
