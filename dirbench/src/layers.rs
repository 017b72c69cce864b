//! Per-layer counters read from outside the program: snapshots of the
//! public stats structs at the edges of the measured window, diffed.
//!
//! Counters of a replica's state-machine loop and group engine
//! (`ReplicaStats`, `GroupStats`) live and die with the server
//! incarnation, so a crash inside the window banks the dying
//! incarnation's share first ([`Meter::retire`]) and its successor counts
//! from zero. Disk, NVRAM, network and client-cache counters survive
//! crashes and are plain differences.

use std::collections::BTreeMap;

use amoeba_dir_core::cluster::Cluster;
use amoeba_dir_core::DirClient;

/// Named counter values.
pub type Counters = BTreeMap<&'static str, u64>;

fn add(into: &mut Counters, from: &Counters) {
    for (k, v) in from {
        *into.entry(k).or_default() += v;
    }
}

fn sub(a: &Counters, b: &Counters) -> Counters {
    a.iter()
        .map(|(k, v)| (*k, v.saturating_sub(b.get(k).copied().unwrap_or(0))))
        .collect()
}

/// State-machine and group-engine counters of column `i`'s current server
/// incarnation (empty while the column is down or has no group yet).
fn incarnation(cluster: &Cluster, i: usize) -> Counters {
    let mut c = Counters::new();
    let Some(srv) = cluster.columns[i].server.as_ref() else {
        return c;
    };
    let r = srv.replica_stats();
    c.insert("rsm.applied", r.applied);
    c.insert("rsm.batches", r.batches);
    c.insert("rsm.flush_runs", r.flush_runs);
    c.insert("rsm.window_stalls", r.window_stalls);
    c.insert("rsm.recoveries", r.recoveries);
    if let Some(g) = srv.group_stats() {
        c.insert("group.sends", g.sends);
        c.insert("group.retrans", g.retrans_requests + g.send_retries);
        c.insert("group.resets", g.resets);
    }
    c
}

/// Counters that survive crashes: the network, every column's disk and
/// NVRAM, every client's cache, and the kernel's event count.
fn persistent(cluster: &Cluster, clients: &[DirClient], events: u64) -> Counters {
    let mut c = Counters::new();
    let n = cluster.net.stats();
    c.insert("flip.packets", n.packets_sent);
    c.insert("flip.bytes", n.bytes_sent);
    c.insert("flip.broadcasts", n.broadcast_sent);
    c.insert("flip.wire_busy_ns", n.wire_busy_nanos);
    c.insert(
        "flip.drops",
        n.dropped_loss
            + n.dropped_partition
            + n.dropped_down
            + n.dropped_no_listener
            + n.dropped_ttl,
    );
    for col in &cluster.columns {
        let d = col.vdisk.stats();
        let nv = col.nvram.stats();
        add(
            &mut c,
            &Counters::from([
                ("disk.writes", d.writes),
                ("disk.blocks", d.blocks),
                ("disk.seeks", d.seeks),
                ("disk.nvram_appends", nv.appends),
            ]),
        );
    }
    for s in clients.iter().filter_map(DirClient::cache_stats) {
        add(
            &mut c,
            &Counters::from([
                ("cache.hits", s.hits),
                (
                    "cache.lookups",
                    s.hits + s.misses + s.renewals + s.stale_rejects,
                ),
                ("cache.renewals", s.renewals),
                ("cache.invalidations", s.invalidations),
            ]),
        );
    }
    c.insert("sim.events", events);
    c
}

/// Counter deltas over the measured window.
#[derive(Debug)]
pub struct Meter {
    start: Counters,
    start_inc: Vec<Counters>,
    /// Shares of incarnations that died inside the window.
    banked: Counters,
}

impl Meter {
    /// Snapshots every counter at the start of the window.
    pub fn begin(cluster: &Cluster, clients: &[DirClient], events: u64) -> Meter {
        Meter {
            start: persistent(cluster, clients, events),
            start_inc: (0..cluster.columns.len())
                .map(|i| incarnation(cluster, i))
                .collect(),
            banked: Counters::new(),
        }
    }

    /// Banks column `i`'s incarnation counters; call just before the
    /// column crashes.
    pub fn retire(&mut self, cluster: &Cluster, i: usize) {
        let share = sub(&incarnation(cluster, i), &self.start_inc[i]);
        add(&mut self.banked, &share);
        self.start_inc[i] = Counters::new();
    }

    /// Counter deltas from [`begin`](Meter::begin) to now.
    pub fn end(&self, cluster: &Cluster, clients: &[DirClient], events: u64) -> Counters {
        let mut d = sub(&persistent(cluster, clients, events), &self.start);
        add(&mut d, &self.banked);
        for (i, start) in self.start_inc.iter().enumerate() {
            add(&mut d, &sub(&incarnation(cluster, i), start));
        }
        d
    }
}
