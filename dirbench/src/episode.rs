//! One episode: a fresh deployment at one seed, set up, warmed up,
//! measured for a window of simulated time, drained, and checked.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use amoeba_dir_core::cluster::Cluster;
use amoeba_dir_core::DirClient;
use amoeba_sim::{SimTime, Simulation};
use amoeba_telemetry::Telemetry;

use crate::layers::{Counters, Meter};
use crate::trace::{self, SpanStats};
use crate::workload::{
    create_dirs, dir_key, roles, run_client, ClientLog, Inputs, Outcome, SeededDir, SharedLog,
    Workload, SEEDED_ROW, WARMUP,
};

/// How far past the window the drain follows calls issued in it.
const DRAIN: Duration = Duration::from_secs(30);
/// Longest the set-up may take before the episode is declared broken.
const SETUP_LIMIT: Duration = Duration::from_secs(300);
/// Host-side slice of simulated time between gauge reads. Identical in
/// the traced and untraced runs, so slicing cannot make them differ.
const SLICE: Duration = Duration::from_millis(10);

/// What an episode measured on the simulated clock. The traced run of
/// an episode must reproduce this exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Latencies (ns, ascending) of successful writes issued in the
    /// window, followed to completion.
    pub write_lat: Vec<u64>,
    /// The same for lookups.
    pub read_lat: Vec<u64>,
    /// Calls issued in the window.
    pub attempted: u64,
    /// Of those, calls that failed, by kind (`Unfinished` = still
    /// running at the drain deadline; `anomaly.*` = retry anomalies).
    pub failures: BTreeMap<String, u64>,
    /// Successful calls that completed inside the window, whenever
    /// issued — the base of every per-op counter.
    pub ok_in_window: u64,
    /// Longest stretch of the window without a successful completion.
    pub unavail_ns: u64,
    /// From `Cluster::start` until the service formed and the
    /// workload's directories held their seeded rows.
    pub setup_ns: u64,
}

impl SimOutcome {
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// Everything one episode measured.
#[derive(Debug)]
pub struct Episode {
    pub sim: SimOutcome,
    /// Per-layer counter deltas over the window.
    pub counters: Counters,
    pub setup_host_s: f64,
    /// Host seconds from the end of set-up to the end of the drain.
    pub host_s: f64,
    /// Kernel events over the same stretch.
    pub host_events: u64,
    /// Highest `dir.journal.depth` gauge seen (traced run only).
    pub journal_depth_max: i64,
    /// Closed spans that started in the window, by name (traced run
    /// only).
    pub spans: BTreeMap<String, SpanStats>,
}

/// Runs one episode of `w` at `seed`; `traced` installs the span
/// collector before the cluster starts.
pub fn run(w: Workload, seed: u64, window: Duration, traced: bool) -> Result<Episode, String> {
    let host_t0 = Instant::now();
    let mut sim = Simulation::new(seed);
    let tele = traced.then(|| Telemetry::install(&sim.handle()));
    let mut cluster = Cluster::start(&sim, w.params(seed));
    let (setup_client, _) = cluster.client(&sim);

    // Set-up: the service forms and the workload's directories exist.
    let c = setup_client.clone();
    let n_dirs = w.dirs();
    let made = sim.spawn("bench-setup", move |ctx| {
        let dirs = create_dirs(ctx, &c, n_dirs);
        (dirs, ctx.now())
    });
    run_until(&mut sim, SETUP_LIMIT, || made.is_ready());
    let (dirs, setup_done) = made.take().ok_or("the service did not form in time")?;
    let dirs = Arc::new(dirs);
    let setup_host_s = host_t0.elapsed().as_secs_f64();
    let host_t1 = Instant::now();
    let events_t1 = sim.run_for(Duration::ZERO).events;

    // The closed-loop clients, one machine each.
    let t_start = sim.now() + WARMUP;
    let t_end = t_start + window;
    let mut clients = Vec::new();
    let mut logs: Vec<SharedLog> = Vec::new();
    let mut procs = Vec::new();
    for (id, role) in roles(w, &dirs).into_iter().enumerate() {
        let (client, _) = cluster.client(&sim);
        let log: SharedLog = Arc::new(Mutex::new(ClientLog::default()));
        let (c, l) = (client.clone(), Arc::clone(&log));
        let inputs = Inputs::new(seed, id as u64);
        procs.push(sim.spawn(&format!("bench-client-{id}"), move |ctx| {
            run_client(ctx, id, role, c, l, t_end, inputs)
        }));
        clients.push(client);
        logs.push(log);
    }

    // Warm-up, then the window, then the drain, in slices.
    let mut journal_depth_max = 0i64;
    let mut step = |sim: &mut Simulation, until: SimTime| -> u64 {
        while sim.now() < until {
            let next = (sim.now() + SLICE).min(until);
            sim.run_until(next);
            if let Some(t) = &tele {
                if let Some(&d) = t.metrics().gauges.get("dir.journal.depth") {
                    journal_depth_max = journal_depth_max.max(d);
                }
            }
        }
        sim.run_for(Duration::ZERO).events
    };
    let events = step(&mut sim, t_start);
    let mut meter = Meter::begin(&cluster, &clients, events);
    if let Some((crash, restart)) = w.fault(window) {
        step(&mut sim, t_start + crash);
        meter.retire(&cluster, 0);
        cluster.crash_server(&sim, 0);
        step(&mut sim, t_start + restart);
        cluster.restart_server(&sim, 0);
    }
    let events = step(&mut sim, t_end);
    let counters = meter.end(&cluster, &clients, events);
    let drain_end = t_end + DRAIN;
    while procs.iter().any(|p| !p.is_ready()) && sim.now() < drain_end {
        let next = sim.now() + Duration::from_millis(100);
        step(&mut sim, next);
    }
    let host_s = host_t1.elapsed().as_secs_f64();
    let host_events = sim.run_for(Duration::ZERO).events - events_t1;
    let spans = tele.map_or_else(BTreeMap::new, |t| {
        trace::by_name(&t.spans(), t_start, t_end)
    });

    let logs: Vec<ClientLog> = logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("client log poisoned")))
        .collect();
    check(w, &mut sim, &cluster, &setup_client, &dirs, &logs)?;
    Ok(Episode {
        sim: outcome(&logs, t_start, t_end, setup_done),
        counters,
        setup_host_s,
        host_s,
        host_events,
        journal_depth_max,
        spans,
    })
}

/// Reads the call logs: every call issued in `[t_start, t_end)` is one
/// attempt, followed to completion.
fn outcome(
    logs: &[ClientLog],
    t_start: SimTime,
    t_end: SimTime,
    setup_done: SimTime,
) -> SimOutcome {
    let in_window = |t: SimTime| t >= t_start && t < t_end;
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    let mut attempted = 0u64;
    let (mut write_lat, mut read_lat) = (Vec::new(), Vec::new());
    let mut ok_done = vec![t_start.as_nanos(), t_end.as_nanos()];
    for log in logs {
        for r in &log.done {
            if r.outcome == Outcome::Ok && in_window(r.done) {
                ok_done.push(r.done.as_nanos());
            }
            if !in_window(r.issued) {
                continue;
            }
            attempted += 1;
            let kind = match &r.outcome {
                Outcome::Ok => {
                    let lat = (r.done - r.issued).as_nanos() as u64;
                    if r.kind.is_write() {
                        write_lat.push(lat);
                    } else {
                        read_lat.push(lat);
                    }
                    continue;
                }
                Outcome::Err(k) => k.clone(),
                Outcome::Anomaly(k) => format!("anomaly.{k}"),
                Outcome::WrongAnswer => "WrongAnswer".to_owned(),
            };
            *failures.entry(kind).or_default() += 1;
        }
        if let Some(issued) = log.inflight {
            if in_window(issued) {
                attempted += 1;
                *failures.entry("Unfinished".to_owned()).or_default() += 1;
            }
        }
    }
    write_lat.sort_unstable();
    read_lat.sort_unstable();
    ok_done.sort_unstable();
    SimOutcome {
        write_lat,
        read_lat,
        attempted,
        failures,
        ok_in_window: ok_done.len() as u64 - 2,
        unavail_ns: ok_done.windows(2).map(|p| p[1] - p[0]).max().unwrap_or(0),
        setup_ns: setup_done.as_nanos(),
    }
}

/// Runs the simulation until `ready` holds or `limit` of simulated
/// time has passed; returns whether it holds.
fn run_until(sim: &mut Simulation, limit: Duration, ready: impl Fn() -> bool) -> bool {
    let deadline = sim.now() + limit;
    while !ready() && sim.now() < deadline {
        sim.run_for(Duration::from_millis(100));
    }
    ready()
}

/// The end-of-episode correctness check, from the clients' side.
fn check(
    w: Workload,
    sim: &mut Simulation,
    cluster: &Cluster,
    client: &DirClient,
    dirs: &[SeededDir],
    logs: &[ClientLog],
) -> Result<(), String> {
    let wrong = logs
        .iter()
        .flat_map(|l| &l.done)
        .filter(|r| r.outcome == Outcome::WrongAnswer)
        .count();
    if wrong > 0 {
        return Err(format!(
            "{wrong} lookups returned a capability other than the seeded one"
        ));
    }
    // After a fault every replica of the shard must be back and agree
    // on the update sequence number.
    if w.fault(Duration::ZERO).is_some() {
        let n = cluster.params.variant.servers();
        let seqs = || -> Vec<(bool, u64)> {
            (0..n)
                .map(|i| cluster.shard_server(0, i))
                .map(|s| (s.is_normal(), s.update_seq()))
                .collect()
        };
        let agreed = || {
            let s = seqs();
            s.iter().all(|&(normal, seq)| normal && seq == s[0].1)
        };
        if !run_until(sim, Duration::from_secs(60), agreed) {
            return Err(format!("replicas disagree after the restart: {:?}", seqs()));
        }
    }
    // Every directory's rows against what the clients did.
    let c = client.clone();
    let caps: Vec<_> = dirs.iter().map(|d| d.cap).collect();
    let listed = sim.spawn("bench-check", move |ctx| {
        caps.iter()
            .map(|&cap| c.list(ctx, cap).map(|l| (dir_key(&cap), l)))
            .collect::<Result<Vec<_>, _>>()
    });
    run_until(sim, Duration::from_secs(120), || listed.is_ready());
    let listed = listed
        .take()
        .ok_or("listing the directories did not finish")?
        .map_err(|e| format!("listing a directory failed: {e}"))?;
    for (key, listing) in listed {
        let rows: BTreeSet<&str> = listing.rows.iter().map(|(n, ..)| n.as_str()).collect();
        for log in logs {
            if let Some(lost) = log
                .live
                .get(&key)
                .and_then(|s| s.iter().find(|n| !rows.contains(n.as_str())))
            {
                return Err(format!(
                    "acknowledged append {lost} is missing from {key:?}"
                ));
            }
            if let Some(back) = log
                .deleted
                .get(&key)
                .and_then(|s| s.iter().find(|n| rows.contains(n.as_str())))
            {
                return Err(format!(
                    "acknowledged delete of {back} is undone in {key:?}"
                ));
            }
        }
        let attempted: BTreeSet<&str> = logs
            .iter()
            .filter_map(|l| l.attempted.get(&key))
            .flatten()
            .map(String::as_str)
            .collect();
        if let Some(stray) = rows
            .iter()
            .find(|&&row| row != SEEDED_ROW && !attempted.contains(row))
        {
            return Err(format!("row {stray} in {key:?} was never attempted"));
        }
    }
    Ok(())
}
