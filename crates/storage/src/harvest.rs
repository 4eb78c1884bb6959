//! Exact per-column statistics of a relation's state, maintained by
//! merging consecutive states instead of recounting each one.
//!
//! A [`Harvest`] holds the state it last counted plus, per attribute, a
//! value→count map and a `(count desc, value asc)` frequency index.
//! Moving it to the next state of the same scheme is one linear merge
//! of two sorted runs (the merge [`StateDelta::between`] does), applied
//! as ±1 to the counts. Ranges, distinct counts and MCVs then read off
//! the maps, identical to a from-scratch
//! [`ColumnStats::from_values`] / [`ValueRange::spanning`] harvest —
//! ties in the MCV sample break by value, as that function's stable sort
//! breaks them.
//!
//! [`StateDelta::between`]: crate::delta::StateDelta::between

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet};

use txtime_analyze::{CardInterval, ColumnStats, ValueRange, VersionStats, MCV_SAMPLE};
use txtime_core::{StateValue, TransactionNumber};
use txtime_snapshot::{Tuple, Value};

/// One attribute's value counts.
#[derive(Default)]
struct ColumnCounts {
    counts: BTreeMap<Value, usize>,
    /// The same counts ordered most frequent first, ties by value.
    by_freq: BTreeSet<(Reverse<usize>, Value)>,
}

impl ColumnCounts {
    /// Counts one more (`up`) or one fewer occurrence of `v`.
    fn bump(&mut self, v: &Value, up: bool) {
        let old = self.counts.get(v).copied().unwrap_or(0);
        let new = if up {
            old + 1
        } else {
            old.checked_sub(1).expect("only a counted value leaves")
        };
        if old > 0 {
            self.by_freq.remove(&(Reverse(old), v.clone()));
        }
        if new > 0 {
            self.counts.insert(v.clone(), new);
            self.by_freq.insert((Reverse(new), v.clone()));
        } else {
            self.counts.remove(v);
        }
    }

    fn stats(&self, rows: usize) -> (ValueRange, ColumnStats) {
        let ends = [self.counts.keys().next(), self.counts.keys().next_back()];
        let mcvs = self
            .by_freq
            .iter()
            .take(MCV_SAMPLE)
            .map(|(Reverse(n), v)| (v.clone(), *n as f64 / rows.max(1) as f64))
            .collect();
        (
            ValueRange::spanning(ends.into_iter().flatten()),
            ColumnStats {
                distinct: self.counts.len() as u64,
                mcvs,
            },
        )
    }
}

/// A state's value tuples in sorted order (an historical state's valid
/// times carry no column values).
fn value_tuples(state: &StateValue) -> Box<dyn Iterator<Item = &Tuple> + '_> {
    match state {
        StateValue::Snapshot(s) => Box::new(s.iter()),
        StateValue::Historical(h) => Box::new(h.iter().map(|(t, _)| t)),
    }
}

/// Whether two states share kind and scheme, so their counts merge.
fn same_shape(a: &StateValue, b: &StateValue) -> bool {
    match (a, b) {
        (StateValue::Snapshot(a), StateValue::Snapshot(b)) => a.schema() == b.schema(),
        (StateValue::Historical(a), StateValue::Historical(b)) => a.schema() == b.schema(),
        _ => false,
    }
}

fn arity(state: &StateValue) -> usize {
    match state {
        StateValue::Snapshot(s) => s.schema().arity(),
        StateValue::Historical(h) => h.schema().arity(),
    }
}

/// The exact column statistics of one state, advanced state by state.
pub(crate) struct Harvest {
    state: StateValue,
    columns: Vec<ColumnCounts>,
}

impl Harvest {
    /// Counts `state` from scratch: a merge against its empty state.
    pub(crate) fn count(state: StateValue) -> Harvest {
        let mut harvest = Harvest {
            state: state.empty_like(),
            columns: (0..arity(&state))
                .map(|_| ColumnCounts::default())
                .collect(),
        };
        harvest.advance(state);
        harvest
    }

    /// Moves the counts to `next`. A state of the same kind and scheme
    /// is merged against the counted one, and the number of value
    /// tuples that entered or left is returned; anything else is
    /// recounted from scratch (`None`).
    pub(crate) fn advance(&mut self, next: StateValue) -> Option<usize> {
        if !same_shape(&self.state, &next) {
            *self = Harvest::count(next);
            return None;
        }
        let mut merged = 0;
        let (mut old, mut new) = (
            value_tuples(&self.state).peekable(),
            value_tuples(&next).peekable(),
        );
        loop {
            let order = match (old.peek(), new.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(a), Some(b)) => a.cmp(b),
            };
            let (t, up) = match order {
                Ordering::Less => (old.next().expect("peeked"), false),
                Ordering::Greater => (new.next().expect("peeked"), true),
                Ordering::Equal => {
                    old.next();
                    new.next();
                    continue;
                }
            };
            merged += 1;
            for (i, col) in self.columns.iter_mut().enumerate() {
                col.bump(t.get(i), up);
            }
        }
        drop((old, new));
        self.state = next;
        Some(merged)
    }

    /// The counted state's statistics, as a version committed at `tx`.
    /// An empty state has no ranges or columns.
    pub(crate) fn stats(&self, tx: TransactionNumber) -> VersionStats {
        let rows = self.state.len();
        let (ranges, columns) = if rows == 0 {
            (None, None)
        } else {
            let (r, c) = self.columns.iter().map(|col| col.stats(rows)).unzip();
            (Some(r), Some(c))
        };
        VersionStats {
            tx,
            card: CardInterval::exact(rows as u64),
            ranges,
            columns,
        }
    }
}
