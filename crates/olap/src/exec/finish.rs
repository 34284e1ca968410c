//! The finishers: HAVING, ORDER BY and LIMIT over the finalised group rows.

use super::GroupRow;
use crate::plan::{Finisher, RowSlot};

/// Apply one finisher to the finalised rows. Sort orders are total (ties
/// break by the ascending full group key), so the output is deterministic
/// for every worker count.
pub(super) fn apply_finisher(finisher: &Finisher, rows: &mut Vec<GroupRow>) {
    match finisher {
        Finisher::Having(preds) => {
            rows.retain(|row| {
                preds
                    .iter()
                    .all(|p| p.op.apply(row_slot_value(row, p.slot), p.literal))
            });
        }
        Finisher::Sort(keys) => {
            rows.sort_by(|a, b| {
                for key in keys {
                    let (x, y) = (row_slot_value(a, key.slot), row_slot_value(b, key.slot));
                    let ord = if key.desc {
                        y.total_cmp(&x)
                    } else {
                        x.total_cmp(&y)
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                a.0.cmp(&b.0)
            });
        }
        Finisher::Limit(n) => rows.truncate(*n),
    }
}

/// Read one slot of a finalised row. Group keys convert exactly — the
/// engine's integer keys stay far below 2^53.
fn row_slot_value(row: &GroupRow, slot: RowSlot) -> f64 {
    match slot {
        RowSlot::Key(i) => row.0[i] as f64,
        RowSlot::Agg(i) => row.1[i],
    }
}
