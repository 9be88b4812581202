//! Deterministic in-process TCP chaos proxy for federation tests.
//!
//! PR 5 injected faults into *data* (corrupt frames, bad payloads) and
//! PR 9 into *processes* (killed workers); this module extends the same
//! philosophy to the *transport*. A [`ChaosProxy`] listens on a loopback
//! port and pumps bytes to a real upstream (the coordinator), but each
//! accepted connection draws a [`Fault`] from a deterministic
//! [`ChaosPlan`]:
//!
//! * [`Fault::Cut`] — forward exactly `after_bytes` (counted across both
//!   directions), then shut both sockets down hard. Landing mid-frame,
//!   this exercises the truncated-frame rejection path and mid-frame
//!   FINs; landing between frames it looks like a connection reset.
//! * [`Fault::Stall`] — forward `after_bytes`, then go silent while
//!   *keeping both sockets open*: the slow-loris/half-open case that
//!   only socket deadlines can unstick.
//! * [`Fault::Delay`] — forward everything, but sleep before each chunk:
//!   a slow link that must NOT trip any failure handling.
//! * [`Fault::Clean`] — forward everything untouched.
//!
//! Determinism comes from the plan, not the clock: in `seeded` mode the
//! fault for connection `n` is a pure function of `(seed, n)` via
//! [`bb_engine::splitmix64`]; in `scripted` mode the test supplies the
//! exact fault sequence, byte budgets computed from real encoded frame
//! lengths. What stays nondeterministic — thread scheduling, kernel
//! buffering — only moves *where inside the budget* a chunk boundary
//! falls, never whether the fault fires.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bb_engine::splitmix64;

/// How the proxy treats one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Forward everything untouched.
    Clean,
    /// Forward `after_bytes` (summed over both directions), then shut
    /// both sockets down — a reset, or a mid-frame FIN if the budget
    /// lands inside a frame.
    Cut {
        /// Total bytes forwarded before the connection is severed.
        after_bytes: u64,
    },
    /// Forward `after_bytes`, then drop everything else on the floor
    /// while keeping both sockets open — the half-open peer a socket
    /// deadline must catch.
    Stall {
        /// Total bytes forwarded before the proxy goes silent.
        after_bytes: u64,
    },
    /// Forward everything, sleeping this long before each chunk.
    Delay {
        /// Per-chunk delivery delay in milliseconds.
        ms: u64,
    },
}

/// Which fault each connection ordinal receives.
#[derive(Clone, Debug)]
enum PlanKind {
    Seeded {
        seed: u64,
        cut_per_mille: u64,
        stall_per_mille: u64,
        delay_per_mille: u64,
        cut_after_max: u64,
        delay_ms_max: u64,
    },
    Scripted(Vec<Fault>),
}

/// A deterministic schedule of faults, one per accepted connection.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    kind: PlanKind,
}

impl ChaosPlan {
    /// A seeded plan: connection `n` draws its fault from
    /// `splitmix64(seed ⊕ mix(n))`. `cut`/`stall`/`delay` are per-mille
    /// probabilities (their sum must be ≤ 1000); a cut or stall budget
    /// is drawn in `[1, cut_after_max]` and a delay in
    /// `[1, delay_ms_max]` milliseconds.
    pub fn seeded(
        seed: u64,
        cut_per_mille: u64,
        stall_per_mille: u64,
        delay_per_mille: u64,
        cut_after_max: u64,
        delay_ms_max: u64,
    ) -> Self {
        assert!(
            cut_per_mille + stall_per_mille + delay_per_mille <= 1000,
            "fault probabilities exceed 1000 per mille"
        );
        ChaosPlan {
            kind: PlanKind::Seeded {
                seed,
                cut_per_mille,
                stall_per_mille,
                delay_per_mille,
                cut_after_max: cut_after_max.max(1),
                delay_ms_max: delay_ms_max.max(1),
            },
        }
    }

    /// An explicit fault per connection ordinal; connections past the
    /// end of the script are [`Fault::Clean`].
    pub fn scripted(faults: Vec<Fault>) -> Self {
        ChaosPlan {
            kind: PlanKind::Scripted(faults),
        }
    }

    /// The fault for connection `conn` (0-based accept order). Pure —
    /// the same plan and ordinal always yield the same fault.
    pub fn fault_for(&self, conn: u64) -> Fault {
        match &self.kind {
            PlanKind::Scripted(faults) => faults
                .get(usize::try_from(conn).unwrap_or(usize::MAX))
                .copied()
                .unwrap_or(Fault::Clean),
            PlanKind::Seeded {
                seed,
                cut_per_mille,
                stall_per_mille,
                delay_per_mille,
                cut_after_max,
                delay_ms_max,
            } => {
                let roll = splitmix64(seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let bucket = roll % 1000;
                // A second, independent draw sizes the fault.
                let size = splitmix64(roll);
                if bucket < *cut_per_mille {
                    Fault::Cut {
                        after_bytes: 1 + size % cut_after_max,
                    }
                } else if bucket < cut_per_mille + stall_per_mille {
                    Fault::Stall {
                        after_bytes: 1 + size % cut_after_max,
                    }
                } else if bucket < cut_per_mille + stall_per_mille + delay_per_mille {
                    Fault::Delay {
                        ms: 1 + size % delay_ms_max,
                    }
                } else {
                    Fault::Clean
                }
            }
        }
    }
}

/// Counters observed while the proxy runs. Plan-dependent diagnostics,
/// never part of any deterministic output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections severed by [`Fault::Cut`].
    pub cuts: u64,
    /// Connections silenced by [`Fault::Stall`].
    pub stalls: u64,
    /// Chunks delayed by [`Fault::Delay`].
    pub delayed_chunks: u64,
    /// Bytes actually forwarded (both directions, all connections).
    pub bytes_forwarded: u64,
}

#[derive(Default)]
struct StatCells {
    connections: AtomicU64,
    cuts: AtomicU64,
    stalls: AtomicU64,
    delayed_chunks: AtomicU64,
    bytes_forwarded: AtomicU64,
}

/// Per-connection shared fault state: the byte budget spans both pump
/// directions, and `tripped` makes the cut/stall fire exactly once.
struct ConnState {
    budget: AtomicI64,
    tripped: AtomicBool,
}

/// A running chaos proxy. Dropping it stops the accept loop; in-flight
/// pump threads notice the stop flag within their poll interval.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<StatCells>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

/// Poll interval for the accept loop and the pump read timeout: short
/// enough that Drop is prompt, long enough to stay off the profiler.
const POLL: Duration = Duration::from_millis(50);

impl ChaosProxy {
    /// Start a proxy on an ephemeral loopback port, forwarding every
    /// accepted connection to `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatCells::default());
        let accept_stop = Arc::clone(&stop);
        let accept_stats = Arc::clone(&stats);
        let accept_thread = thread::spawn(move || {
            let mut conn: u64 = 0;
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let fault = plan.fault_for(conn);
                        conn += 1;
                        accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                        spawn_pumps(
                            client,
                            upstream,
                            fault,
                            Arc::clone(&accept_stop),
                            Arc::clone(&accept_stats),
                        );
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(POLL);
                    }
                    Err(_) => thread::sleep(POLL),
                }
            }
        });
        Ok(ChaosProxy {
            addr,
            stop,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// The loopback address workers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy's counters.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            cuts: self.stats.cuts.load(Ordering::Relaxed),
            stalls: self.stats.stalls.load(Ordering::Relaxed),
            delayed_chunks: self.stats.delayed_chunks.load(Ordering::Relaxed),
            bytes_forwarded: self.stats.bytes_forwarded.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Connect to the upstream and pump both directions under `fault`.
fn spawn_pumps(
    client: TcpStream,
    upstream: SocketAddr,
    fault: Fault,
    stop: Arc<AtomicBool>,
    stats: Arc<StatCells>,
) {
    let server = match TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) {
        Ok(server) => server,
        Err(_) => {
            // Upstream is down (e.g. a killed coordinator): refuse the
            // client the way a dead upstream would.
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    let budget = match fault {
        Fault::Cut { after_bytes } | Fault::Stall { after_bytes } => {
            i64::try_from(after_bytes).unwrap_or(i64::MAX)
        }
        _ => i64::MAX,
    };
    let state = Arc::new(ConnState {
        budget: AtomicI64::new(budget),
        tripped: AtomicBool::new(false),
    });
    let c2 = client.try_clone();
    let s2 = server.try_clone();
    let (Ok(client_r), Ok(server_r)) = (c2, s2) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    for (src, dst) in [(client_r, server), (server_r, client)] {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        let state = Arc::clone(&state);
        thread::spawn(move || pump(src, dst, fault, stop, stats, state));
    }
}

/// Forward `src` → `dst` until EOF, a trip, or the global stop flag.
fn pump(
    src: TcpStream,
    dst: TcpStream,
    fault: Fault,
    stop: Arc<AtomicBool>,
    stats: Arc<StatCells>,
    state: Arc<ConnState>,
) {
    let mut src = src;
    let mut dst = dst;
    let _ = src.set_read_timeout(Some(POLL));
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::Relaxed) {
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Clean EOF from the source. A tripped stall is half-open
                // by definition: the FIN is swallowed along with
                // everything else, and only the receiver's deadline can
                // end the connection. Otherwise propagate it downstream
                // so the receiver sees the FIN, and let the mirror pump
                // drain whatever is still in flight the other way.
                let half_open =
                    matches!(fault, Fault::Stall { .. }) && state.tripped.load(Ordering::Acquire);
                if !half_open {
                    let _ = dst.shutdown(Shutdown::Write);
                }
                return;
            }
            Ok(n) => n,
            Err(e) if crate::protocol::is_timeout(&e) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        };
        let allowed = match fault {
            Fault::Clean => n,
            Fault::Delay { ms } => {
                stats.delayed_chunks.fetch_add(1, Ordering::Relaxed);
                thread::sleep(Duration::from_millis(ms));
                n
            }
            Fault::Cut { .. } | Fault::Stall { .. } => {
                // Claim bytes against the shared cross-direction budget.
                let before = state.budget.fetch_sub(n as i64, Ordering::AcqRel);
                before.clamp(0, n as i64) as usize
            }
        };
        if allowed > 0 {
            if dst.write_all(&buf[..allowed]).is_err() {
                let _ = src.shutdown(Shutdown::Both);
                return;
            }
            stats
                .bytes_forwarded
                .fetch_add(allowed as u64, Ordering::Relaxed);
        }
        if allowed < n {
            // Budget exhausted: trip the fault exactly once.
            let first = !state.tripped.swap(true, Ordering::AcqRel);
            match fault {
                Fault::Cut { .. } => {
                    if first {
                        stats.cuts.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = src.shutdown(Shutdown::Both);
                    let _ = dst.shutdown(Shutdown::Both);
                    return;
                }
                Fault::Stall { .. } => {
                    if first {
                        stats.stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    // Swallow bytes, keep sockets open: the half-open
                    // peer only a deadline can unstick. Keep reading so
                    // the sender never blocks on a full kernel buffer.
                }
                Fault::Clean | Fault::Delay { .. } => unreachable!("no budget for {fault:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plans_follow_the_script_then_go_clean() {
        let plan = ChaosPlan::scripted(vec![
            Fault::Cut { after_bytes: 10 },
            Fault::Stall { after_bytes: 20 },
        ]);
        assert_eq!(plan.fault_for(0), Fault::Cut { after_bytes: 10 });
        assert_eq!(plan.fault_for(1), Fault::Stall { after_bytes: 20 });
        assert_eq!(plan.fault_for(2), Fault::Clean);
        assert_eq!(plan.fault_for(u64::MAX), Fault::Clean);
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_seed_and_ordinal() {
        let a = ChaosPlan::seeded(7, 200, 200, 200, 4096, 50);
        let b = ChaosPlan::seeded(7, 200, 200, 200, 4096, 50);
        let mut varied = false;
        for conn in 0..64 {
            assert_eq!(a.fault_for(conn), b.fault_for(conn));
            if a.fault_for(conn) != Fault::Clean {
                varied = true;
            }
        }
        assert!(
            varied,
            "600 per mille over 64 draws must fault at least once"
        );
    }

    #[test]
    fn all_clean_plan_never_faults() {
        let plan = ChaosPlan::seeded(3, 0, 0, 0, 1, 1);
        for conn in 0..128 {
            assert_eq!(plan.fault_for(conn), Fault::Clean);
        }
    }
}
