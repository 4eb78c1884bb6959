//! Seeded generators for the three workloads. Everything the program
//! sees is text in the surface syntax; the expected answers live here.

use std::collections::VecDeque;
use std::fmt::Write as _;

use txtime::core::StateValue;
use txtime::snapshot::rng::{Lcg, RawRng, Rng, SeedableRng};
use txtime::snapshot::{DomainType, Schema, SnapshotState, Value};

/// One request of a session's stream.
pub struct Req {
    pub text: String,
    pub write: bool,
    /// The exact rendering a correct read returns, when the generator
    /// knows it (the `serve_ingest` model).
    pub expect: Option<String>,
    /// Whether this read's answer is re-checked by the post-run oracle.
    pub sample: bool,
}

/// A generator stream per (seed, stream index): independent and
/// reproducible. The generator steps its state by a fixed constant, so
/// two states that differ by a multiple of it give one sequence shifted;
/// seed and stream are therefore hashed into the state, not combined
/// linearly.
pub fn rng(seed: u64, stream: u64) -> Lcg {
    let hashed = Lcg::seed_from_u64(seed).raw_u64();
    Lcg::seed_from_u64(Lcg::seed_from_u64(hashed ^ stream).raw_u64())
}

fn tuples(out: &mut String, rows: impl IntoIterator<Item = String>) {
    for (i, row) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&row);
    }
}

// ---------------------------------------------------------------- ingest

/// Keys per `serve_ingest` relation.
const INGEST_KEYS: usize = 512;
const INGEST_SCHEMA: &str = "(k: int, v: int)";

/// One `serve_ingest` session: it owns relation `a<s>` and models its
/// current state exactly.
pub struct Ingest {
    pub rel: String,
    vals: Vec<i64>,
    rng: Lcg,
}

impl Ingest {
    pub fn new(seed: u64, session: u64) -> Ingest {
        let mut rng = rng(seed, 100 + session);
        let vals = (0..INGEST_KEYS)
            .map(|_| rng.gen_range(0..1_000_000i64))
            .collect();
        Ingest {
            rel: format!("a{session}"),
            vals,
            rng,
        }
    }

    /// `define_relation` plus the initial 512-tuple load.
    pub fn setup(&self) -> Vec<String> {
        let mut load = format!("modify_state({}, {{{INGEST_SCHEMA}: ", self.rel);
        tuples(
            &mut load,
            self.vals
                .iter()
                .enumerate()
                .map(|(k, v)| format!("({k}, {v})")),
        );
        load.push_str("});");
        vec![format!("define_relation({}, rollback);", self.rel), load]
    }

    /// 90% algebraic point updates, 10% current point reads.
    pub fn next(&mut self) -> Req {
        let k = self.rng.gen_range(0..INGEST_KEYS);
        let a = &self.rel;
        if self.rng.gen_range(0..10u32) == 0 {
            return Req {
                text: format!("display(select[k = {k}](rho({a}, inf)));"),
                write: false,
                expect: Some(ingest_row(k as i64, self.vals[k]).to_string()),
                sample: false,
            };
        }
        let old = self.vals[k];
        let mut new = self.rng.gen_range(0..1_000_000i64);
        if new == old {
            new += 1;
        }
        self.vals[k] = new;
        Req {
            text: format!(
                "modify_state({a}, (rho({a}, inf) minus {{{INGEST_SCHEMA}: ({k}, {old})}}) union {{{INGEST_SCHEMA}: ({k}, {new})}});"
            ),
            write: true,
            expect: None,
            sample: false,
        }
    }

    /// The modelled current state (every generated write applied).
    pub fn state(&self) -> StateValue {
        ingest_state(self.vals.iter().enumerate().map(|(k, &v)| (k as i64, v)))
    }
}

fn ingest_state(rows: impl IntoIterator<Item = (i64, i64)>) -> StateValue {
    let schema = Schema::new(vec![("k", DomainType::Int), ("v", DomainType::Int)])
        .expect("static schema is valid");
    let rows = rows
        .into_iter()
        .map(|(k, v)| vec![Value::Int(k), Value::Int(v)]);
    StateValue::Snapshot(SnapshotState::from_rows(schema, rows).expect("well-typed rows"))
}

fn ingest_row(k: i64, v: i64) -> StateValue {
    ingest_state([(k, v)])
}

// ------------------------------------------------------------------ asof

/// Orders in the initial `serve_asof` load.
const ORDERS: i64 = 2_000;
/// Customers (the join's build side).
const CUSTOMERS: i64 = 200;
/// One-tuple order appends in the seeded history.
const ORDER_APPENDS: usize = 1_000;
/// Valid-time versions of the temporal relation in the seeded history.
const STAFF_UPDATES: usize = 300;
/// The transaction at which all three relations first have a state.
const ASOF_FIRST_TX: u64 = 6;
/// The clock after the seeded history replays.
pub const ASOF_SETUP_TX: u64 = ASOF_FIRST_TX + (ORDER_APPENDS + STAFF_UPDATES) as u64;

const ORDER_SCHEMA: &str = "(oid: int, c: int, amt: int)";
const STAFF_SCHEMA: &str = "(name: str, grade: int)";

fn staff_tuple(rng: &mut Lcg) -> String {
    let name = rng.gen_range(0..40u32);
    let grade = rng.gen_range(0..8u32);
    let from = rng.gen_range(0..1_000u32);
    let to = from + rng.gen_range(1..100u32);
    format!("(\"s{name}\", {grade}) @ {{[{from}, {to})}}")
}

/// An `orders` tuple: (oid, c, amt).
type Order = (i64, i64, i64);

fn new_order(rng: &mut Lcg, oid: i64) -> Order {
    (
        oid,
        rng.gen_range(0..CUSTOMERS),
        rng.gen_range(0..10_000i64),
    )
}

fn order_rel((oid, c, amt): Order) -> String {
    format!("{{{ORDER_SCHEMA}: ({oid}, {c}, {amt})}}")
}

/// The seeded `serve_asof` history and the orders current at its end.
fn seeded(seed: u64) -> (Vec<String>, Vec<Order>) {
    let mut rng = rng(seed, 200);
    let mut cmds = vec!["define_relation(cust, rollback);".to_string()];
    let mut cust = "modify_state(cust, {(cid: int, tier: int): ".to_string();
    tuples(
        &mut cust,
        (0..CUSTOMERS).map(|i| format!("({i}, {})", rng.gen_range(0..5u32))),
    );
    cust.push_str("});");
    cmds.push(cust);
    cmds.push("define_relation(orders, rollback);".to_string());
    let mut orders: Vec<Order> = (0..ORDERS).map(|i| new_order(&mut rng, i)).collect();
    let mut load = format!("modify_state(orders, {{{ORDER_SCHEMA}: ");
    tuples(
        &mut load,
        orders.iter().map(|(o, c, a)| format!("({o}, {c}, {a})")),
    );
    load.push_str("});");
    cmds.push(load);
    cmds.push("define_relation(staff, temporal);".to_string());
    let mut staff = format!("modify_state(staff, historical {{{STAFF_SCHEMA}: ");
    tuples(&mut staff, (0..16).map(|_| staff_tuple(&mut rng)));
    staff.push_str("});");
    cmds.push(staff);
    debug_assert_eq!(cmds.len() as u64, ASOF_FIRST_TX);
    for step in 0..ORDER_APPENDS + STAFF_UPDATES {
        // Every 13 steps: 10 order appends and 3 valid-time updates.
        if step % 13 % 4 == 3 {
            cmds.push(format!(
                "modify_state(staff, hrho(staff, inf) hunion historical {{{STAFF_SCHEMA}: {}}});",
                staff_tuple(&mut rng)
            ));
        } else {
            let order = new_order(&mut rng, orders.len() as i64);
            cmds.push(format!(
                "modify_state(orders, rho(orders, inf) union {});",
                order_rel(order)
            ));
            orders.push(order);
        }
    }
    debug_assert_eq!(cmds.len() as u64, ASOF_SETUP_TX);
    (cmds, orders)
}

/// The seeded `serve_asof` history: `cust`, `orders` (2,000 tuples, then
/// 1,000 one-tuple appends) and the temporal `staff`, whose 300
/// valid-time versions interleave with the appends.
pub fn asof_history(seed: u64) -> Vec<String> {
    seeded(seed).0
}

/// One `serve_asof` session: 90% as-of reads, 10% appends to `orders`.
/// Each append also retires the session's oldest live order, so
/// `orders` stays at 3,000 tuples and every command costs the same at
/// the end of a run as at its start.
pub struct Asof {
    rng: Lcg,
    next_oid: i64,
    reads: u64,
    /// The live orders this session may retire, oldest first: its share
    /// of the seeded ones (by oid parity), then its own appends.
    live: VecDeque<Order>,
}

impl Asof {
    pub fn new(seed: u64, session: u64) -> Asof {
        let live = seeded(seed)
            .1
            .into_iter()
            .filter(|o| o.0 as u64 % crate::SESSIONS == session)
            .collect();
        Asof {
            rng: rng(seed, 300 + session),
            next_oid: 1_000_000 * (session as i64 + 1),
            reads: 0,
            live,
        }
    }

    /// The next request, given the newest transaction this session
    /// knows to exist (reads never name a version past it).
    pub fn next(&mut self, latest: u64) -> Req {
        let rng = &mut self.rng;
        if rng.gen_range(0..10u32) == 0 {
            self.next_oid += 1;
            let order = new_order(rng, self.next_oid);
            let retired = self.live.pop_front().expect("a session owns live orders");
            self.live.push_back(order);
            return Req {
                text: format!(
                    "modify_state(orders, (rho(orders, inf) minus {}) union {});",
                    order_rel(retired),
                    order_rel(order)
                ),
                write: true,
                expect: None,
                sample: false,
            };
        }
        // Half the reads land anywhere in the seeded history (more
        // versions than the materialization cache and the view memo
        // hold, and the same range at every point of the run); half
        // among the newest 16, over a small hot set of constants.
        let hot = rng.gen_bool(0.5);
        let n = if hot {
            latest - rng.gen_range(0..16u64)
        } else {
            rng.gen_range(ASOF_FIRST_TX..=ASOF_SETUP_TX)
        };
        let pick = |rng: &mut Lcg, hot_n: i64, cold_n: i64| {
            if hot {
                rng.gen_range(0..hot_n)
            } else {
                rng.gen_range(0..cold_n)
            }
        };
        let kind = rng.gen_range(0..8u32);
        let text = match kind {
            0 | 1 => format!(
                "display(select[c = cid and amt > {}](rho(orders, {n}) times rho(cust, {n})));",
                9_800 + 50 * pick(rng, 2, 4)
            ),
            2..=5 => format!(
                "display(select[c = {}](rho(orders, {n})));",
                pick(rng, 4, CUSTOMERS)
            ),
            6 => format!(
                "display(hselect[grade > {}](hrho(staff, {n})));",
                pick(rng, 2, 8)
            ),
            _ => {
                let from = 100 * pick(rng, 2, 9);
                format!(
                    "display(delta[valid overlaps {{[{from}, {to})}}; valid intersect {{[{from}, {to})}}](hrho(staff, {n})));",
                    to = from + 150
                )
            }
        };
        self.reads += 1;
        // Joins are the costly check at optimize 0 (a full product), so
        // the oracle samples them more sparsely than the other reads.
        let every = if kind < 2 { 200 } else { 16 };
        Req {
            text,
            write: false,
            expect: None,
            sample: self.reads.is_multiple_of(every),
        }
    }
}

// ---------------------------------------------------------------- script

/// Commands after the script's four set-up commands.
const SCRIPT_COMMANDS: usize = 6_000;
const SCRIPT_KEYS: usize = 256;

/// The `script_replay` script: audit updates, as-of displays and
/// temporal updates over a rollback and a temporal relation.
pub fn script(seed: u64) -> String {
    let mut rng = rng(seed, 400);
    let mut out = String::new();
    let mut vals: Vec<i64> = (0..SCRIPT_KEYS)
        .map(|_| rng.gen_range(0..1_000_000i64))
        .collect();
    out.push_str("define_relation(acct, rollback);\n");
    out.push_str(&format!("modify_state(acct, {{{INGEST_SCHEMA}: "));
    tuples(
        &mut out,
        vals.iter().enumerate().map(|(k, v)| format!("({k}, {v})")),
    );
    out.push_str("});\ndefine_relation(staff, temporal);\n");
    out.push_str(&format!(
        "modify_state(staff, historical {{{STAFF_SCHEMA}: "
    ));
    tuples(&mut out, (0..16).map(|_| staff_tuple(&mut rng)));
    out.push_str("});\n");
    // acct has a state from tx 2, staff from tx 4. Two in three reads
    // are point reads, so each latency median lands inside one kind of
    // command rather than on the seed-dependent border between two.
    let mut tx = 4u64;
    for _ in 0..SCRIPT_COMMANDS {
        let roll = rng.gen_range(0..20u32);
        match roll {
            0..=11 => {
                let k = rng.gen_range(0..SCRIPT_KEYS);
                let old = vals[k];
                let new = old + rng.gen_range(1..1_000i64);
                vals[k] = new;
                let _ = writeln!(
                    out,
                    "modify_state(acct, (rho(acct, inf) minus {{{INGEST_SCHEMA}: ({k}, {old})}}) union {{{INGEST_SCHEMA}: ({k}, {new})}});"
                );
                tx += 1;
            }
            12..=15 => {
                let n = rng.gen_range(2..=tx);
                let k = rng.gen_range(0..SCRIPT_KEYS);
                let _ = writeln!(out, "display(select[k = {k}](rho(acct, {n})));");
            }
            16 => {
                let n = rng.gen_range(2..=tx);
                let k = rng.gen_range(0..SCRIPT_KEYS);
                let _ = writeln!(out, "display(project[v](select[k < {k}](rho(acct, {n}))));");
            }
            17 | 18 => {
                let _ = writeln!(
                    out,
                    "modify_state(staff, hrho(staff, inf) hunion historical {{{STAFF_SCHEMA}: {}}});",
                    staff_tuple(&mut rng)
                );
                tx += 1;
            }
            _ => {
                let n = rng.gen_range(4..=tx);
                let g = rng.gen_range(0..8u32);
                let _ = writeln!(out, "display(hselect[grade > {g}](hrho(staff, {n})));");
            }
        }
    }
    out
}
