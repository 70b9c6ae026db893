//! The sharded epoll readiness loops behind [`Server::serve_tcp`].
//!
//! One acceptor thread (the `serve_tcp` caller) hands each accepted
//! socket to one of N shards round-robin. A shard is one thread, one
//! epoll instance, and a slab of connections it owns end to end:
//! non-blocking reads into per-connection buffers, incremental
//! JSON-lines framing, request dispatch, and write-interest-driven
//! flushing. Solve-shaped requests still fan out to the shared rayon
//! pool; completed responses come back through each connection's
//! [`OutQueue`] (receipt order, see the `conn` module) and the pool
//! worker wakes the owning shard's epoll through its eventfd waker.
//!
//! A shard services, per wakeup: readiness events (reads, then writes),
//! the inbox of freshly accepted sockets, and the ready list of
//! connections whose responses completed since the last pass. Writable
//! interest is registered only while a connection has backlog the socket
//! would not take — the quiet steady state is plain readable interest.
//!
//! On shutdown the acceptor drains the server (all in-flight jobs fan
//! out), then flips each shard's `finish` flag: shards keep flushing
//! until every connection is idle (bounded by a grace deadline), close
//! everything, and exit, and the acceptor joins them — the transport
//! leaks no threads.
//!
//! [`Server::serve_tcp`]: crate::server::Server::serve_tcp

use crate::conn::{Conn, OutQueue, ShardShared, SlotSink, MAX_LINE_BYTES};
use crate::protocol;
use crate::server::{lock, Server};
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for each shard's waker eventfd; connection tokens are
/// slab indices, which can never reach it.
const WAKER: mio::Token = mio::Token(usize::MAX);

/// How long a finishing shard keeps trying to flush straggler backlog
/// before closing connections with bytes still queued.
const FINISH_GRACE: Duration = Duration::from_secs(5);

/// Bucket bounds for the `server.shard_queue_depth` histogram:
/// outstanding response slots per shard, sampled each loop pass.
const DEPTH_BUCKETS: [u64; 13] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384];

/// One spawned shard: its handshake state plus the join handle the
/// acceptor uses to reap it.
pub(crate) struct Shard {
    pub shared: Arc<ShardShared>,
    handle: JoinHandle<()>,
}

/// Spawns `n` shard event loops for `server`.
pub(crate) fn spawn_shards(server: &Arc<Server>, n: usize) -> std::io::Result<Vec<Shard>> {
    let mut shards = Vec::with_capacity(n);
    for idx in 0..n {
        let poll = mio::Poll::new()?;
        let waker = mio::Waker::new(&poll, WAKER)?;
        let shared = Arc::new(ShardShared::new(waker));
        let server = Arc::clone(server);
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("serve-shard-{idx}"))
            .spawn(move || run_shard(&server, idx, &poll, &thread_shared))?;
        shards.push(Shard { shared, handle });
    }
    Ok(shards)
}

/// Tells every shard to flush out and exit, then joins them all.
pub(crate) fn finish_and_join(shards: Vec<Shard>) {
    for s in &shards {
        s.shared.finish();
    }
    for s in shards {
        let _ = s.handle.join();
    }
}

/// The slab of one shard's connections plus its free list.
struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Slab {
    fn get_mut(&mut self, i: usize) -> Option<&mut Conn> {
        self.conns.get_mut(i).and_then(Option::as_mut)
    }
}

fn run_shard(server: &Arc<Server>, idx: usize, poll: &mio::Poll, shared: &Arc<ShardShared>) {
    let depth_hist = server.registry().labeled_histogram(
        "server.shard_queue_depth",
        &[("shard", &idx.to_string())],
        &DEPTH_BUCKETS,
    );
    let mut slab = Slab {
        conns: Vec::new(),
        free: Vec::new(),
    };
    let mut events = mio::Events::with_capacity(1024);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut finish_deadline: Option<Instant> = None;
    let mut to_close: Vec<usize> = Vec::new();

    loop {
        // Every state change the loop waits on fires the waker (hand-off,
        // ready-list commits, `finish`), so serving blocks untimed; only
        // a finishing shard bounds its wait, by the grace deadline.
        let timeout = finish_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if poll.poll(&mut events, timeout).is_err() {
            break;
        }

        to_close.clear();
        for ev in events.iter() {
            if ev.token() == WAKER {
                shared.waker.drain();
                continue;
            }
            let i = ev.token().0;
            let Some(conn) = slab.get_mut(i) else {
                continue;
            };
            if ev.is_readable() && !conn.read_closed {
                if !read_ready(server, idx, conn, &mut scratch) {
                    to_close.push(i);
                    continue;
                }
            } else if ev.is_read_closed() {
                conn.read_closed = true;
            }
            if ev.is_writable() && flush(poll, conn, i).is_err() {
                to_close.push(i);
                continue;
            }
            if conn.read_closed && conn.out.is_idle() {
                to_close.push(i);
            }
        }

        // Adopt freshly accepted connections.
        let fresh: Vec<TcpStream> = std::mem::take(&mut *lock(&shared.inbox));
        for stream in fresh {
            adopt(server, idx, poll, &mut slab, shared, stream);
        }

        // Flush connections whose responses completed since the last
        // pass (scheduled by pool-worker commits).
        let ready: Vec<usize> = std::mem::take(&mut *lock(&shared.ready));
        for i in ready {
            let Some(conn) = slab.get_mut(i) else {
                continue;
            };
            if flush(poll, conn, i).is_err() || (conn.read_closed && conn.out.is_idle()) {
                to_close.push(i);
            }
        }

        to_close.sort_unstable();
        to_close.dedup();
        for &i in &to_close {
            close(server, idx, poll, &mut slab, i);
        }

        depth_hist.record(shared.depth.load(Ordering::Relaxed));

        // Read only after this pass drained the waker: `finish` sets the
        // flag before it wakes, so a wake consumed above is never lost.
        if shared.finish.load(Ordering::Acquire) {
            let deadline = *finish_deadline.get_or_insert_with(|| Instant::now() + FINISH_GRACE);
            let all_idle = slab.conns.iter().flatten().all(|c| c.out.is_idle());
            let inboxed = !lock(&shared.inbox).is_empty() || !lock(&shared.ready).is_empty();
            if (all_idle && !inboxed) || Instant::now() >= deadline {
                for i in 0..slab.conns.len() {
                    close(server, idx, poll, &mut slab, i);
                }
                break;
            }
        }
    }
}

/// Registers a freshly accepted socket into the shard's slab.
fn adopt(
    server: &Arc<Server>,
    idx: usize,
    poll: &mio::Poll,
    slab: &mut Slab,
    shared: &Arc<ShardShared>,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let i = slab.free.pop().unwrap_or_else(|| {
        slab.conns.push(None);
        slab.conns.len() - 1
    });
    if poll
        .register(&stream, mio::Token(i), mio::Interest::READABLE)
        .is_err()
    {
        slab.free.push(i);
        return;
    }
    let id = server.conn_opened();
    server.tracer().conn_event("conn_accepted", idx, id, 0);
    slab.conns[i] = Some(Conn {
        stream,
        out: Arc::new(OutQueue::new(i, Arc::clone(shared))),
        read_buf: Vec::new(),
        read_closed: false,
        want_write: false,
        id,
    });
}

/// Consumes readable readiness: reads to `WouldBlock`, frames complete
/// lines, and dispatches each through the serve runtime. Returns `false`
/// when the connection must be closed now (I/O error or an oversized
/// line); EOF just marks the read half closed so queued responses can
/// still flush.
fn read_ready(server: &Arc<Server>, idx: usize, conn: &mut Conn, scratch: &mut [u8]) -> bool {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                return true;
            }
            Ok(n) => {
                server
                    .tracer()
                    .conn_event("readable", idx, conn.id, n as u64);
                conn.read_buf.extend_from_slice(&scratch[..n]);
                if !dispatch_lines(server, conn) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                return false;
            }
        }
    }
}

/// Frames and dispatches every complete line in the read buffer. Each
/// non-empty line gets the connection's next response slot *before*
/// dispatch, which is what pins responses to receipt order regardless of
/// completion order. Returns `false` when a partial line has outgrown
/// [`MAX_LINE_BYTES`].
fn dispatch_lines(server: &Arc<Server>, conn: &mut Conn) -> bool {
    let out = &conn.out;
    protocol::drain_lines(&mut conn.read_buf, |line| {
        // The shutdown flag a `shutdown` line sets is observed by the
        // acceptor loop; the shard just keeps serving until told to
        // finish.
        server.handle_line(line, &SlotSink::sink(out, out.alloc()));
    });
    conn.read_buf.len() <= MAX_LINE_BYTES
}

/// Flushes a connection's wire buffer and keeps its epoll registration's
/// writable interest in sync with whether backlog remains.
fn flush(poll: &mio::Poll, conn: &mut Conn, i: usize) -> std::io::Result<()> {
    let backlog = conn.out.flush_into(&mut conn.stream)?;
    if backlog != conn.want_write {
        let interest = if backlog {
            mio::Interest::READABLE | mio::Interest::WRITABLE
        } else {
            mio::Interest::READABLE
        };
        poll.reregister(&conn.stream, mio::Token(i), interest)?;
        conn.want_write = backlog;
    }
    Ok(())
}

/// Tears one connection down: kills its out queue (late commits are
/// discarded), deregisters, closes the socket, and recycles the slot.
fn close(server: &Arc<Server>, idx: usize, poll: &mio::Poll, slab: &mut Slab, i: usize) {
    let Some(conn) = slab.conns.get_mut(i).and_then(Option::take) else {
        return;
    };
    conn.out.kill();
    let _ = poll.deregister(&conn.stream);
    server.conn_closed();
    server.tracer().conn_event("conn_closed", idx, conn.id, 0);
    slab.free.push(i);
}
