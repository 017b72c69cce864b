//! The three workloads: deployment, set-up, and the closed-loop client
//! processes with honest per-call accounting.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use amoeba_dir_core::cluster::{ClusterParams, Variant};
use amoeba_dir_core::{CacheParams, Capability, DirClient, DirClientError, DirError, Rights};
use amoeba_sim::{Ctx, SimTime};

/// One of the benchmark's workloads (see the crate docs for why each
/// exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WriteBurst,
    ReadMix,
    PaperFailover,
}

/// Writers on write-burst, each appending fresh names to its own
/// directory.
const BURST_WRITERS: usize = 48;
/// Read-mix: readers, paced writers and the working set.
const MIX_READERS: usize = 8;
const MIX_WRITERS: usize = 4;
const MIX_DIRS: usize = 48;
/// Zipf exponent of the readers' directory choice.
const MIX_ZIPF_S: f64 = 1.1;
/// Application CPU a reader spends between lookups: without it a
/// closed loop over a warm cache (0 simulated ms per hit) would spin
/// without advancing the simulated clock.
const MIX_THINK: Duration = Duration::from_millis(1);
/// Pause between a read-mix writer's append+delete pairs.
const MIX_PACING: Duration = Duration::from_millis(200);
/// Pause after a failed call before the next attempt, so an error
/// path that fails fast cannot spin.
const ERR_BACKOFF: Duration = Duration::from_millis(10);
/// Simulated warm-up before the measured window: clients run, but
/// their calls are not counted.
pub const WARMUP: Duration = Duration::from_secs(1);
/// The row every set-up directory holds, resolved by the readers.
pub const SEEDED_ROW: &str = "payload";

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WriteBurst,
        Workload::ReadMix,
        Workload::PaperFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteBurst => "write-burst",
            Workload::ReadMix => "read-mix",
            Workload::PaperFailover => "paper-failover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The deployment this workload runs on.
    pub fn params(self, seed: u64) -> ClusterParams {
        let mut p = ClusterParams::paper(Variant::Group);
        p.seed = seed;
        match self {
            Workload::WriteBurst | Workload::ReadMix => {
                p.dir.journal = true;
                p.dir.flush_window = 4;
                p.disk.head_aware = true;
                if self == Workload::ReadMix {
                    p.shards = 4;
                    p.dir_cache = Some(CacheParams::default());
                }
            }
            Workload::PaperFailover => {}
        }
        p
    }

    /// Directories the set-up creates (each holding [`SEEDED_ROW`]).
    pub fn dirs(self) -> usize {
        match self {
            Workload::WriteBurst => BURST_WRITERS,
            Workload::ReadMix => MIX_DIRS,
            Workload::PaperFailover => 1,
        }
    }

    /// Independent episodes per run, each a fresh deployment at its own
    /// seed: pooling them steadies the throughput figures, and set-up is
    /// reported as the median over them.
    pub fn episodes(self) -> u64 {
        match self {
            Workload::WriteBurst => 4,
            Workload::ReadMix => 8,
            Workload::PaperFailover => 32,
        }
    }

    /// Crash and restart offsets of column 0 inside the measured window
    /// (paper-failover only).
    pub fn fault(self, window: Duration) -> Option<(Duration, Duration)> {
        (self == Workload::PaperFailover).then(|| (window.mul_f64(0.2), window.mul_f64(0.8)))
    }
}

/// What a client call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Append,
    Delete,
    Lookup,
}

impl OpKind {
    pub fn is_write(self) -> bool {
        self != OpKind::Lookup
    }
}

/// How a call ended. Every `DirClient` call is one attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The call returned `Err`; the kind names the error.
    Err(String),
    /// The call "failed" in a way only a retried, twice-executed
    /// request explains: `DuplicateName` on a name this client never
    /// used before, or `NoSuchName` deleting a row it just appended.
    Anomaly(&'static str),
    /// A lookup returned something other than the seeded capability.
    WrongAnswer,
}

/// One finished call.
#[derive(Debug, Clone)]
pub struct OpRec {
    pub kind: OpKind,
    pub issued: SimTime,
    pub done: SimTime,
    pub outcome: Outcome,
}

/// One client's call log. The call in flight is kept apart so a call
/// still unfinished at the drain deadline is counted, not lost.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub done: Vec<OpRec>,
    pub inflight: Option<SimTime>,
    /// Names whose append this client attempted, by directory.
    pub attempted: BTreeMap<DirKey, BTreeSet<String>>,
    /// Names whose append was acknowledged and not since deleted.
    pub live: BTreeMap<DirKey, BTreeSet<String>>,
    /// Names whose delete was acknowledged.
    pub deleted: BTreeMap<DirKey, BTreeSet<String>>,
}

pub type SharedLog = Arc<Mutex<ClientLog>>;

/// A directory's identity: object numbers are per shard, so the
/// shard's port is part of it.
pub type DirKey = (u64, u64);

pub fn dir_key(cap: &Capability) -> DirKey {
    (cap.port.as_raw(), cap.object)
}

fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, ClientLog> {
    log.lock()
        .expect("client log poisoned by a panicking client")
}

fn error_kind(e: &DirClientError) -> String {
    match e {
        DirClientError::Service(d) => format!("{d:?}"),
        // `Unreachable { service, attempts }` → `Unreachable`.
        DirClientError::Rpc(r) => format!("{r:?}")
            .split([' ', '{', '('])
            .next()
            .unwrap_or("Rpc")
            .to_owned(),
        DirClientError::Protocol => "Protocol".to_owned(),
    }
}

/// Issues one call and logs it; returns whether it succeeded.
fn call<T>(
    ctx: &Ctx,
    log: &SharedLog,
    kind: OpKind,
    f: impl FnOnce() -> Result<T, DirClientError>,
    judge: impl FnOnce(Result<T, DirClientError>) -> Outcome,
) -> bool {
    let issued = ctx.now();
    lock(log).inflight = Some(issued);
    let outcome = judge(f());
    let ok = outcome == Outcome::Ok;
    let mut l = lock(log);
    l.inflight = None;
    l.done.push(OpRec {
        kind,
        issued,
        done: ctx.now(),
        outcome,
    });
    drop(l);
    if !ok {
        ctx.sleep(ERR_BACKOFF);
    }
    ok
}

fn judge_write(
    anomaly: DirError,
    name: &'static str,
) -> impl FnOnce(Result<(), DirClientError>) -> Outcome {
    move |r| match r {
        Ok(()) => Outcome::Ok,
        Err(DirClientError::Service(e)) if e == anomaly => Outcome::Anomaly(name),
        Err(e) => Outcome::Err(error_kind(&e)),
    }
}

/// Appends a fresh name (a `DuplicateName` answer is an anomaly).
fn append(ctx: &Ctx, client: &DirClient, log: &SharedLog, dir: Capability, name: &str) -> bool {
    lock(log)
        .attempted
        .entry(dir_key(&dir))
        .or_default()
        .insert(name.to_owned());
    let ok = call(
        ctx,
        log,
        OpKind::Append,
        || client.append_row(ctx, dir, name, dir, vec![Rights::ALL, Rights::NONE]),
        judge_write(DirError::DuplicateName, "DuplicateName"),
    );
    if ok {
        lock(log)
            .live
            .entry(dir_key(&dir))
            .or_default()
            .insert(name.to_owned());
    }
    ok
}

/// Deletes a row this client just appended (a `NoSuchName` answer is
/// an anomaly).
fn delete(ctx: &Ctx, client: &DirClient, log: &SharedLog, dir: Capability, name: &str) -> bool {
    lock(log)
        .live
        .entry(dir_key(&dir))
        .or_default()
        .remove(name);
    let ok = call(
        ctx,
        log,
        OpKind::Delete,
        || client.delete_row(ctx, dir, name),
        judge_write(DirError::NoSuchName, "NoSuchName"),
    );
    if ok {
        lock(log)
            .deleted
            .entry(dir_key(&dir))
            .or_default()
            .insert(name.to_owned());
    }
    ok
}

/// Looks up [`SEEDED_ROW`] and checks the answer.
fn lookup(ctx: &Ctx, client: &DirClient, log: &SharedLog, dir: Capability, want: Capability) {
    call(
        ctx,
        log,
        OpKind::Lookup,
        || client.lookup(ctx, dir, SEEDED_ROW),
        |r| match r {
            Ok(Some(c)) if c == want => Outcome::Ok,
            Ok(_) => Outcome::WrongAnswer,
            Err(e) => Outcome::Err(error_kind(&e)),
        },
    );
}

/// A working-set directory and the capability its seeded row holds.
#[derive(Debug, Clone, Copy)]
pub struct SeededDir {
    pub cap: Capability,
    pub row: Capability,
}

/// Set-up: creates `n` directories, each with [`SEEDED_ROW`] pointing
/// at the directory itself, and reads the row back once to learn the
/// capability lookups must return. Retries until the service has formed.
pub fn create_dirs(ctx: &Ctx, client: &DirClient, n: usize) -> Vec<SeededDir> {
    let mut dirs = Vec::with_capacity(n);
    while dirs.len() < n {
        let Ok(cap) = client.create_dir(ctx, &["owner", "other"]) else {
            ctx.sleep(Duration::from_millis(100));
            continue;
        };
        loop {
            let appended =
                client.append_row(ctx, cap, SEEDED_ROW, cap, vec![Rights::ALL, Rights::NONE]);
            match appended {
                Ok(()) | Err(DirClientError::Service(DirError::DuplicateName)) => break,
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }
        loop {
            if let Ok(Some(row)) = client.lookup(ctx, cap, SEEDED_ROW) {
                dirs.push(SeededDir { cap, row });
                break;
            }
            ctx.sleep(Duration::from_millis(100));
        }
    }
    dirs
}

/// A deterministic per-client input stream (SplitMix64), seeded from
/// the benchmark seed; the simulator's own RNG is left untouched.
#[derive(Debug, Clone)]
pub struct Inputs(u64);

impl Inputs {
    pub fn new(seed: u64, stream: u64) -> Inputs {
        Inputs(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Cumulative Zipf(`s`) distribution over ranks `0..n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// What one client process does until the window closes.
pub enum Role {
    /// write-burst: append fresh names to one directory.
    Appender { dir: SeededDir },
    /// read-mix: Zipf lookups of the seeded row with a think time.
    Reader { dirs: Arc<Vec<SeededDir>> },
    /// read-mix: paced append+delete pairs on uniform directories.
    PairWriter { dirs: Arc<Vec<SeededDir>> },
    /// paper-failover: a lookup, then an append+delete pair.
    Alternator { dir: SeededDir },
}

/// The client roles of `w`, one per client machine.
pub fn roles(w: Workload, dirs: &Arc<Vec<SeededDir>>) -> Vec<Role> {
    match w {
        Workload::WriteBurst => dirs.iter().map(|&dir| Role::Appender { dir }).collect(),
        Workload::ReadMix => (0..MIX_READERS)
            .map(|_| Role::Reader {
                dirs: Arc::clone(dirs),
            })
            .chain((0..MIX_WRITERS).map(|_| Role::PairWriter {
                dirs: Arc::clone(dirs),
            }))
            .collect(),
        Workload::PaperFailover => vec![Role::Alternator { dir: dirs[0] }],
    }
}

/// Runs client `id`'s closed loop.
pub fn run_client(
    ctx: &Ctx,
    id: usize,
    role: Role,
    client: DirClient,
    log: SharedLog,
    stop: SimTime,
    mut inputs: Inputs,
) {
    let mut k = 0usize;
    let mut fresh = || {
        k += 1;
        format!("c{id}-{k}")
    };
    let zipf = zipf_cdf(MIX_DIRS, MIX_ZIPF_S);
    while ctx.now() < stop {
        match &role {
            Role::Appender { dir } => {
                append(ctx, &client, &log, dir.cap, &fresh());
            }
            Role::Reader { dirs } => {
                let u = inputs.unit();
                let rank = zipf.partition_point(|&c| c < u).min(dirs.len() - 1);
                let d = dirs[rank];
                lookup(ctx, &client, &log, d.cap, d.row);
                ctx.sleep(MIX_THINK);
            }
            Role::PairWriter { dirs } => {
                let d = dirs[inputs.below(dirs.len())];
                let name = fresh();
                if append(ctx, &client, &log, d.cap, &name) && ctx.now() < stop {
                    delete(ctx, &client, &log, d.cap, &name);
                }
                ctx.sleep(MIX_PACING);
            }
            Role::Alternator { dir } => {
                lookup(ctx, &client, &log, dir.cap, dir.row);
                let name = fresh();
                if ctx.now() < stop
                    && append(ctx, &client, &log, dir.cap, &name)
                    && ctx.now() < stop
                {
                    delete(ctx, &client, &log, dir.cap, &name);
                }
            }
        }
    }
}
