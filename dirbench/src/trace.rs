//! Span trees of the traced run turned into per-name durations and self
//! times, after the span-tree method of Dapper (Sigelman et al., 2010):
//! a span's self time is its duration minus the part of it covered by
//! its children.

use std::collections::{BTreeMap, HashMap};

use amoeba_sim::SimTime;
use amoeba_telemetry::SpanRec;

/// Durations and self times of every closed span with one name, in
/// simulated nanoseconds, sorted ascending.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub dur_ns: Vec<u64>,
    pub self_ns: Vec<u64>,
}

/// Measure of the union of `[s, e)` intervals.
fn covered(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Groups the closed spans that started in `[from, to)` by name. A
/// child's interval is clipped to its parent's before it is subtracted.
pub fn by_name(spans: &[SpanRec], from: SimTime, to: SimTime) -> BTreeMap<String, SpanStats> {
    let closed = |s: &SpanRec| s.end.map(|e| (s.start.as_nanos(), e.as_nanos()));
    let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let (Some(iv), true) = (closed(s), s.parent != 0) {
            children.entry((s.trace, s.parent)).or_default().push(iv);
        }
    }
    let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.start >= from && s.start < to) {
        let Some((start, end)) = closed(s) else {
            continue;
        };
        let kids = children
            .get(&(s.trace, s.span))
            .map(|v| {
                v.iter()
                    .map(|&(cs, ce)| (cs.clamp(start, end), ce.clamp(start, end)))
                    .collect()
            })
            .unwrap_or_default();
        let st = out.entry(s.name.clone()).or_default();
        st.dur_ns.push(end - start);
        st.self_ns.push(end - start - covered(kids));
    }
    for st in out.values_mut() {
        st.dur_ns.sort_unstable();
        st.self_ns.sort_unstable();
    }
    out
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            trace: 1,
            span,
            parent,
            name: name.to_owned(),
            machine: 0,
            start: SimTime::from_nanos(start),
            end: Some(SimTime::from_nanos(end)),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = [
            span(1, 0, "cli", 0, 100),
            span(2, 1, "srv", 10, 40),
            span(3, 1, "srv", 30, 50),
            span(4, 1, "late", 90, 130),
        ];
        let by = by_name(&spans, SimTime::ZERO, SimTime::from_nanos(1_000));
        // Children cover 10..50 and 90..100: 50 of 100.
        assert_eq!(by["cli"].self_ns, vec![50]);
        assert_eq!(by["srv"].dur_ns, vec![20, 30]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&v, 50.0), 50);
        assert_eq!(pct(&v, 99.0), 99);
        assert_eq!(pct(&[7], 99.0), 7);
        assert_eq!(pct(&[], 50.0), 0);
    }
}
