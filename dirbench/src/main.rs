//! The directory service's benchmark: one seeded command that measures
//! what a client of the service sees, says which layer owns the time, and
//! checks that the answers were right.
//!
//! ```text
//! cargo run --release --offline --manifest-path dirbench/Cargo.toml -- \
//!     --workload <write-burst|read-mix|paper-failover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints a table for people, then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set (the
//! tables show both). A broken run (service never formed, correctness or
//! traced-identity check failed) prints no JSON and exits with 1; bad
//! arguments exit with 2.
//!
//! # Clocks
//!
//! Everything runs in the deterministic simulator, so all service figures
//! are on the **simulated clock**: the modelled 1993 LAN, disks and CPUs
//! that the paper measures. At a fixed seed they repeat bit for bit. Only
//! `peak_rss_mb` and the `sim.host_*` figures are host measurements.
//!
//! # A run
//!
//! A run is a fixed number of **episodes** (4, 8 and 32 for the workloads
//! below), each a fresh deployment at a seed derived from `--seed`:
//!
//! 1. *Set-up*: `Cluster::start`, then one client creates the workload's
//!    directories, puts a row `payload` in each, and reads it back to learn
//!    the capability later lookups must return. Retries until the service
//!    has formed.
//! 2. *Warm-up*: one client machine per closed-loop client
//!    (`Cluster::client`), each a cooperative simulated process, runs for
//!    1 s. Its calls are not counted. The benchmark starts no host threads.
//! 3. *Window*: `--seconds` of simulated time. Every `DirClient` call
//!    issued in it is one attempt, followed to completion.
//! 4. *Drain*: clients issue nothing new; calls issued in the window run to
//!    completion, up to 30 s past it. A call still running then has failed.
//! 5. *Check*: the end-of-episode correctness check (below).
//!
//! Calls are pooled over the episodes; set-up time and unavailability are
//! the medians of the per-episode figures.
//!
//! # Workloads
//!
//! - `write-burst`: Group(3), 1 shard, journal on, flush window 4,
//!   head-aware disk. 48 writers each append fresh names to their own
//!   directory; no reads, no cache. The contended write path: RPC
//!   admission (the locate and NOTHERE storm) owns the tail, and `rsm` and
//!   `disk` do the batching and journal work.
//! - `read-mix`: Group(3), 4 shards, the same commit settings, and the
//!   client cache at the production `CacheParams::default()` with the
//!   service's default `max_lease` (both 400 ms). 8 readers look up the
//!   seeded row of Zipf(1.1)-chosen directories out of 48 with 1 ms of
//!   think time; 4 writers run append+delete pairs on uniformly chosen
//!   directories, pausing 200 ms between pairs. Reads beside writes: the
//!   `core` cache, lease and revocation path and the shard routing do the
//!   work, the disk little. A write gain that costs reads shows here.
//! - `paper-failover`: the paper's own `ClusterParams::paper(Group)`:
//!   serial in-place commit, 1 shard, no cache. One client alternates a
//!   lookup and an append+delete pair (Fig. 7's operations). Column 0
//!   crashes 20% into the window and restarts at 80%. The unloaded
//!   baseline that batching and admission changes must not tax, the only
//!   workload on the paper's commit path, and the only one that exercises
//!   failure detection, group reset and `rsm::recovery`.
//!
//! # Failures
//!
//! A call fails if it returns `Err` (tallied by error kind), if it is
//! still running at the drain deadline (`Unfinished`), or if it is a
//! **retry anomaly**: `DuplicateName` on a name this client never used
//! before, or `NoSuchName` deleting a row it has just appended. Only a
//! request executed twice explains either, so they count as failures, not
//! as success. A failed call is followed by a 10 ms pause.
//!
//! # Correctness check
//!
//! An episode, and so the run, fails if any of these does not hold:
//! every lookup returned the seeded capability; after paper-failover's
//! restart every replica of the shard is back in normal operation with
//! the same update sequence number; in every directory each acknowledged
//! append that was not later deleted is present, no acknowledged delete
//! is undone, and no row exists that the workload never attempted.
//! With `--trace 1` the traced episode must also reproduce the untraced
//! one exactly on the simulated clock (every latency, failure and count),
//! or the run fails rather than report layer figures of another program.
//!
//! # End-to-end metrics
//!
//! Bounded in `BENCHMARK.json`; each is non-zero on every workload.
//!
//! | name | unit | clock | what |
//! |---|---|---|---|
//! | `write_ops_per_s` | 1/s | sim | successful `append_row`/`delete_row` calls issued in the window, per window second |
//! | `ops_per_s` | 1/s | sim | the same for every call, lookups included (read throughput on read-mix) |
//! | `setup_s` | s | sim | from `Cluster::start` until the directories and their rows exist; median over episodes |
//!
//! The other client-side figures are reported with the per-layer set,
//! without a bound, because over five to ten seeds (5 s windows, 4
//! episodes) their spread, the quartile distance over the median, was far
//! wider than any bound of at most a quarter, or they are 0 on some
//! workload:
//!
//! | name | unit | clock | why it carries no bound |
//! |---|---|---|---|
//! | `write_mean_ms` | ms | sim | spread 0.18 on write-burst |
//! | `write_p50_ms` | ms | sim | spread 0.28 on write-burst |
//! | `write_p99_ms` | ms | sim | spread 1.55 on write-burst (per-episode p99 is 0.18 s or 1.7–1.9 s) |
//! | `read_ops_per_s` | 1/s | sim | 0 on write-burst |
//! | `read_p50_ms` | ms | sim | 0 on write-burst, and on read-mix (a cache hit costs 0 simulated ms) |
//! | `read_p99_ms` | ms | sim | 0 on write-burst |
//! | `failed_ratio` | ratio | sim | 0 on read-mix; failed/attempted over every call |
//! | `unavail_ms` | ms | sim | spread 0.47 on read-mix; longest stretch of the window with no successful completion |
//! | `peak_rss_mb` | MB | host | spread 0.12–0.16 when another run shares the machine (`VmHWM`) |
//!
//! Host wall time is no end-to-end metric either: the same write-burst
//! seed took 6.6–13.5 s of host time per 5 simulated seconds, and whole
//! runs took 28–103 s where the simulated figures were identical; the
//! simulator spends 20–66 µs of host time per kernel event, mostly
//! handing off between the threads that carry simulated processes. It
//! is reported as the `sim.host_*` layer figures.
//!
//! # Per-layer metrics
//!
//! Counters come from the public stats structs, read from outside the
//! program at the start and end of each window (see [`layers`]) and
//! normalized per successful call completed in the window, so set-up
//! traffic never leaks in. Span figures come from the traced episode
//! (see [`trace`]); a span's self time is its duration minus the part of
//! it its children cover. Each line names the end-to-end figure and
//! workload the metric should move.
//!
//! - `sim`: `sim.events_per_op` (`RunStats.events`; protocol chattiness,
//!   every workload); `sim.host_ns_per_event`, `sim.host_us_per_op`,
//!   `sim.host_s`, `sim.setup_host_s` (host clock; move no simulated
//!   figure, only what the simulator's hand-off costs).
//! - `flip` (`NetStats`): `flip.packets_per_op`, `flip.bytes_per_op`
//!   (`write_p50_ms` on paper-failover, where every step blocks);
//!   `flip.broadcasts_per_op` (almost all RPC locates); `flip.wire_util`,
//!   `flip.drops` (`write_p99_ms` on write-burst).
//! - `rpc`: `rpc.locates_per_op` (the broadcast count, as the RPC layer
//!   keeps no counters; `write_p99_ms` and `failed_ratio` on write-burst,
//!   flat on paper-failover); `rpc.errors.{Unreachable, NoMajority,
//!   Unfinished, other}` (error kinds returned to the benchmark's calls;
//!   `failed_ratio`); `rpc.self_ms_p50`/`_p99` (self time of the root
//!   `cli.*` spans outside their `srv.handle` child: locate, NOTHERE
//!   bounces, waiting for a server thread and the wire; `write_p99_ms` on
//!   write-burst).
//! - `group` (`GroupStats` of every replica): `group.sends_per_op`,
//!   `group.retrans_per_op` (retransmission requests plus send retries),
//!   `group.order_ms_p50` (`grp.order` spans): `write_p50_ms` on
//!   paper-failover. `group.resets`: `unavail_ms` on paper-failover.
//! - `rsm` (`ReplicaStats` of every replica of every shard):
//!   `rsm.ops_per_batch`, `rsm.ops_per_flush`, `rsm.window_stalls`
//!   (`write_ops_per_s` on write-burst; 1 op per batch on paper-failover,
//!   which a one-commit-path change must leave alone); `rsm.recoveries`
//!   (`unavail_ms` on paper-failover); `rsm.apply_ms_p50`,
//!   `rsm.flush_ms_p50`/`_p99` (spans; `write_p50_ms` on write-burst).
//!   The program has no checkpoint span yet, so there is no
//!   `rsm.checkpoint_ms_p99`.
//! - `disk` (`DiskStats` and `NvramStats` of every column):
//!   `disk.writes_per_op`, `disk.blocks_per_op`, `disk.seeks_per_op`,
//!   `disk.nvram_appends_per_op` (`write_ops_per_s` on write-burst,
//!   `write_p50_ms` on paper-failover); `disk.journal_depth_max` (highest
//!   `dir.journal.depth` gauge read between 10 ms slices of the traced
//!   episode; `unavail_ms` on write-burst).
//! - `core`: `core.srv_self_ms_p50`/`_p99` (`srv.handle` self time, which
//!   holds the commit's disk work on paper-failover; `read_p99_ms` on
//!   read-mix); `core.cache_hit_rate`, `core.renewals_per_lookup`
//!   (`CacheStats` of every client; `read_p99_ms` and `ops_per_s` on
//!   read-mix); `core.invalidations_per_write`, `core.cache_inval_ms_p99`
//!   (`cache.inval` spans; `write_p50_ms` on read-mix, as a write revokes
//!   read leases before it is acknowledged); `core.retry_anomalies`
//!   (`failed_ratio` on paper-failover: the at-most-once item).
//! - `telemetry`: `telemetry.host_overhead` (host time of the traced
//!   episode over its untraced twin) and `telemetry.spans_per_op`; by
//!   design they move no simulated figure.
//!
//! Counts (`*.drops`, `rpc.errors.*`, `group.resets`, `rsm.window_stalls`,
//! `rsm.recoveries`, `core.retry_anomalies`) are totals over a run's
//! episodes. A layer a workload never reaches reads 0.

mod episode;
mod layers;
mod metrics;
mod trace;
mod workload;

use std::time::Duration;

use episode::Episode;
use metrics::{ms, Values, END_TO_END, PER_LAYER};
use trace::pct;
use workload::{Workload, WARMUP};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let (seed, seconds) = (num("--seed")?, num("--seconds")?);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The seed of episode `e` of a run at `seed` (a SplitMix64 finalizer,
/// so neighbouring run seeds share no episode).
fn episode_seed(seed: u64, e: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(e.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn print_table(title: &str, list: &[(&str, &str)], values: &Values) {
    println!("{title}");
    for (name, unit) in list {
        println!("  {name:<30} {:>14.4} {unit}", values[name]);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let window = Duration::from_secs(args.seconds);
    let seeds: Vec<u64> = (0..w.episodes())
        .map(|e| episode_seed(args.seed, e))
        .collect();
    let eps: Vec<Episode> = seeds
        .iter()
        .map(|&s| episode::run(w, s, window, false))
        .collect::<Result<_, _>>()?;
    let mut values = metrics::client(&eps, window);
    values.insert("peak_rss_mb", peak_rss_mb()?);

    println!(
        "{} seed {}: {} episodes, each {} s simulated after {} s warm-up",
        w.name(),
        args.seed,
        eps.len(),
        args.seconds,
        WARMUP.as_secs()
    );
    for (i, e) in eps.iter().enumerate() {
        println!(
            "  episode {i}: {} writes (p50 {:.1} ms, p99 {:.1} ms), {} lookups (p99 {:.1} ms), \
             {} failed, unavail {:.1} ms, set-up {:.3} s",
            e.sim.write_lat.len(),
            ms(pct(&e.sim.write_lat, 50.0)),
            ms(pct(&e.sim.write_lat, 99.0)),
            e.sim.read_lat.len(),
            ms(pct(&e.sim.read_lat, 99.0)),
            e.sim.failed(),
            ms(e.sim.unavail_ns),
            e.sim.setup_ns as f64 / 1e9,
        );
    }
    print_table("end-to-end", END_TO_END, &values);
    println!("  failures by kind: {:?}", metrics::failures(&eps));

    let report: &[(&str, &str)] = if args.trace {
        // The traced run: episode 0 again, under full span recording.
        let traced = episode::run(w, seeds[0], window, true)?;
        if traced.sim != eps[0].sim {
            return Err(format!(
                "the traced run differs from the untraced run on the simulated clock \
                 (attempted {} vs {}, failures {:?} vs {:?})",
                traced.sim.attempted,
                eps[0].sim.attempted,
                traced.sim.failures,
                eps[0].sim.failures
            ));
        }
        values.extend(metrics::per_layer(&eps, &traced, window));
        print_table("per-layer", PER_LAYER, &values);
        println!("spans of the traced episode (window only)");
        println!(
            "  {:<16} {:>8} {:>10} {:>10} {:>12}",
            "name", "count", "p50 ms", "p99 ms", "self ms/op"
        );
        let ops = traced.sim.ok_in_window.max(1) as f64;
        for (name, s) in &traced.spans {
            println!(
                "  {name:<16} {:>8} {:>10.3} {:>10.3} {:>12.4}",
                s.dur_ns.len(),
                ms(pct(&s.dur_ns, 50.0)),
                ms(pct(&s.dur_ns, 99.0)),
                ms(s.self_ns.iter().sum()) / ops
            );
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    let attempted: u64 = eps.iter().map(|e| e.sim.attempted).sum();
    let failed: u64 = eps.iter().map(|e| e.sim.failed()).sum();
    let metrics: Vec<String> = report
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                values[name]
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("dirbench: {e}");
        eprintln!("usage: dirbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("dirbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
