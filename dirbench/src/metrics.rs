//! The reported metrics: names, units, and how each is computed from a
//! run's episodes. The lists here and `BENCHMARK.json` name the same
//! metrics in the same order.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::episode::Episode;
use crate::trace::{pct, SpanStats};

/// End-to-end metrics (bounded in `BENCHMARK.json`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("write_ops_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics (unbounded): name and unit. The first group are
/// client-side figures that read 0 on some workload or spread too
/// widely across seeds to carry a bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("write_mean_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("unavail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim.events_per_op", "1/op"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.host_us_per_op", "us"),
    ("sim.host_s", "s"),
    ("sim.setup_host_s", "s"),
    ("flip.packets_per_op", "1/op"),
    ("flip.bytes_per_op", "B/op"),
    ("flip.broadcasts_per_op", "1/op"),
    ("flip.wire_util", "ratio"),
    ("flip.drops", "count"),
    ("rpc.locates_per_op", "1/op"),
    ("rpc.errors.Unreachable", "count"),
    ("rpc.errors.NoMajority", "count"),
    ("rpc.errors.Unfinished", "count"),
    ("rpc.errors.other", "count"),
    ("rpc.self_ms_p50", "ms"),
    ("rpc.self_ms_p99", "ms"),
    ("group.sends_per_op", "1/op"),
    ("group.retrans_per_op", "1/op"),
    ("group.order_ms_p50", "ms"),
    ("group.resets", "count"),
    ("rsm.ops_per_batch", "ratio"),
    ("rsm.ops_per_flush", "ratio"),
    ("rsm.window_stalls", "count"),
    ("rsm.recoveries", "count"),
    ("rsm.apply_ms_p50", "ms"),
    ("rsm.flush_ms_p50", "ms"),
    ("rsm.flush_ms_p99", "ms"),
    ("disk.writes_per_op", "1/op"),
    ("disk.blocks_per_op", "1/op"),
    ("disk.seeks_per_op", "1/op"),
    ("disk.nvram_appends_per_op", "1/op"),
    ("disk.journal_depth_max", "count"),
    ("core.srv_self_ms_p50", "ms"),
    ("core.srv_self_ms_p99", "ms"),
    ("core.cache_hit_rate", "ratio"),
    ("core.renewals_per_lookup", "ratio"),
    ("core.invalidations_per_write", "ratio"),
    ("core.cache_inval_ms_p99", "ms"),
    ("core.retry_anomalies", "count"),
    ("telemetry.host_overhead", "ratio"),
    ("telemetry.spans_per_op", "1/op"),
];

/// Named metric values.
pub type Values = BTreeMap<&'static str, f64>;

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reaches).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn pooled(eps: &[Episode], f: fn(&Episode) -> &Vec<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = eps.iter().flat_map(|e| f(e).iter().copied()).collect();
    v.sort_unstable();
    v
}

/// Failed calls of every episode, by kind.
pub fn failures(eps: &[Episode]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (k, n) in eps.iter().flat_map(|e| &e.sim.failures) {
        *out.entry(k.clone()).or_default() += n;
    }
    out
}

/// Every client-side figure of a run on the simulated clock: calls
/// pooled over the episodes, set-up and unavailability as medians of
/// the per-episode figures. `peak_rss_mb` is added by the caller.
pub fn client(eps: &[Episode], window: Duration) -> Values {
    let span_s = window.as_secs_f64() * eps.len() as f64;
    let writes = pooled(eps, |e| &e.sim.write_lat);
    let reads = pooled(eps, |e| &e.sim.read_lat);
    let attempted: u64 = eps.iter().map(|e| e.sim.attempted).sum();
    let failed: u64 = eps.iter().map(|e| e.sim.failed()).sum();
    let write_sum: u64 = writes.iter().sum();
    Values::from([
        ("write_ops_per_s", writes.len() as f64 / span_s),
        ("write_mean_ms", ratio(ms(write_sum), writes.len() as f64)),
        ("ops_per_s", (writes.len() + reads.len()) as f64 / span_s),
        (
            "setup_s",
            median(eps.iter().map(|e| e.sim.setup_ns as f64 / 1e9).collect()),
        ),
        ("write_p50_ms", ms(pct(&writes, 50.0))),
        ("write_p99_ms", ms(pct(&writes, 99.0))),
        ("read_ops_per_s", reads.len() as f64 / span_s),
        ("read_p50_ms", ms(pct(&reads, 50.0))),
        ("read_p99_ms", ms(pct(&reads, 99.0))),
        ("failed_ratio", ratio(failed as f64, attempted as f64)),
        (
            "unavail_ms",
            median(eps.iter().map(|e| ms(e.sim.unavail_ns)).collect()),
        ),
    ])
}

/// The layer rows of [`PER_LAYER`]: counters summed over the untraced episodes and
/// normalized by the successful calls that completed in their windows;
/// span figures from the traced episode.
pub fn per_layer(eps: &[Episode], traced: &Episode, window: Duration) -> Values {
    let c = |k: &str| -> f64 {
        eps.iter()
            .map(|e| e.counters.get(k).copied().unwrap_or(0) as f64)
            .sum()
    };
    let ops: f64 = eps.iter().map(|e| e.sim.ok_in_window as f64).sum();
    let per_op = |k: &str| ratio(c(k), ops);
    let writes: u64 = eps.iter().map(|e| e.sim.write_lat.len() as u64).sum();
    let host_s: f64 = eps.iter().map(|e| e.host_s).sum();
    let host_events: f64 = eps.iter().map(|e| e.host_events as f64).sum();
    let window_ns = window.as_nanos() as f64 * eps.len() as f64;
    let fails = failures(eps);
    let kind = |k: &str| fails.get(k).copied().unwrap_or(0) as f64;
    let anomalies: u64 = fails
        .iter()
        .filter(|(k, _)| k.starts_with("anomaly."))
        .map(|(_, n)| n)
        .sum();
    let named = ["Unreachable", "NoMajority", "Unfinished"];
    let other: u64 = fails
        .iter()
        .filter(|(k, _)| !k.starts_with("anomaly.") && !named.contains(&k.as_str()))
        .map(|(_, n)| n)
        .sum();
    let span = |name: &str| traced.spans.get(name);
    let dur = |name: &str, p: f64| span(name).map_or(0.0, |s| ms(pct(&s.dur_ns, p)));
    let self_of = |s: Option<&SpanStats>, p: f64| s.map_or(0.0, |s| ms(pct(&s.self_ns, p)));
    // Client spans are the roots: `cli.*` minus its `srv.handle` child is
    // locate, NOTHERE bounces, waiting for a server thread and the wire.
    let mut cli = SpanStats::default();
    for (name, s) in &traced.spans {
        if name.starts_with("cli.") {
            cli.self_ns.extend(&s.self_ns);
        }
    }
    cli.self_ns.sort_unstable();
    let untraced_host = eps.first().map_or(0.0, |e| e.host_s);
    let rows = [
        ("sim.events_per_op", per_op("sim.events")),
        ("sim.host_ns_per_event", ratio(host_s * 1e9, host_events)),
        ("sim.host_us_per_op", ratio(host_s * 1e6, ops)),
        ("sim.host_s", host_s),
        (
            "sim.setup_host_s",
            median(eps.iter().map(|e| e.setup_host_s).collect()),
        ),
        ("flip.packets_per_op", per_op("flip.packets")),
        ("flip.bytes_per_op", per_op("flip.bytes")),
        ("flip.broadcasts_per_op", per_op("flip.broadcasts")),
        ("flip.wire_util", ratio(c("flip.wire_busy_ns"), window_ns)),
        ("flip.drops", c("flip.drops")),
        ("rpc.locates_per_op", per_op("flip.broadcasts")),
        ("rpc.errors.Unreachable", kind("Unreachable")),
        ("rpc.errors.NoMajority", kind("NoMajority")),
        ("rpc.errors.Unfinished", kind("Unfinished")),
        ("rpc.errors.other", other as f64),
        ("rpc.self_ms_p50", self_of(Some(&cli), 50.0)),
        ("rpc.self_ms_p99", self_of(Some(&cli), 99.0)),
        ("group.sends_per_op", per_op("group.sends")),
        ("group.retrans_per_op", per_op("group.retrans")),
        ("group.order_ms_p50", dur("grp.order", 50.0)),
        ("group.resets", c("group.resets")),
        (
            "rsm.ops_per_batch",
            ratio(c("rsm.applied"), c("rsm.batches")),
        ),
        (
            "rsm.ops_per_flush",
            ratio(
                c("rsm.applied"),
                if c("rsm.flush_runs") > 0.0 {
                    c("rsm.flush_runs")
                } else {
                    c("rsm.batches")
                },
            ),
        ),
        ("rsm.window_stalls", c("rsm.window_stalls")),
        ("rsm.recoveries", c("rsm.recoveries")),
        ("rsm.apply_ms_p50", dur("rsm.apply", 50.0)),
        ("rsm.flush_ms_p50", dur("rsm.flush", 50.0)),
        ("rsm.flush_ms_p99", dur("rsm.flush", 99.0)),
        ("disk.writes_per_op", per_op("disk.writes")),
        ("disk.blocks_per_op", per_op("disk.blocks")),
        ("disk.seeks_per_op", per_op("disk.seeks")),
        ("disk.nvram_appends_per_op", per_op("disk.nvram_appends")),
        ("disk.journal_depth_max", traced.journal_depth_max as f64),
        ("core.srv_self_ms_p50", self_of(span("srv.handle"), 50.0)),
        ("core.srv_self_ms_p99", self_of(span("srv.handle"), 99.0)),
        (
            "core.cache_hit_rate",
            ratio(c("cache.hits"), c("cache.lookups")),
        ),
        (
            "core.renewals_per_lookup",
            ratio(c("cache.renewals"), c("cache.lookups")),
        ),
        (
            "core.invalidations_per_write",
            ratio(c("cache.invalidations"), writes as f64),
        ),
        ("core.cache_inval_ms_p99", dur("cache.inval", 99.0)),
        ("core.retry_anomalies", anomalies as f64),
        (
            "telemetry.host_overhead",
            ratio(traced.host_s, untraced_host),
        ),
        (
            "telemetry.spans_per_op",
            ratio(
                traced.spans.values().map(|s| s.dur_ns.len() as f64).sum(),
                traced.sim.ok_in_window as f64,
            ),
        ),
    ];
    Values::from(rows)
}
