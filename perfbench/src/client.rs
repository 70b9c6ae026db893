//! The harness's TCP client: one thread, at most two connections.
//!
//! Honesty rules, so latency numbers measure the server and not this
//! client: every socket sets `TCP_NODELAY` (no Nagle stall), every
//! request or pipelined batch leaves in one `write`, and readiness is
//! waited for with `ppoll(2)` at nanosecond resolution so an open-loop
//! send is not rounded to the next millisecond.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

mod sys {
    use std::time::Duration;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Waits until one of `fds` is ready or `timeout` passes (`None`
    /// waits indefinitely). Interrupted waits return as timeouts.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<()> {
        let ts = timeout.map(|d| Timespec {
            tv_sec: d.as_secs() as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is a valid, exclusively borrowed array of
        // `fds.len()` `pollfd` structs laid out as the kernel expects
        // (`repr(C)`); `ts_ptr` is null or points at a live `timespec`
        // on this stack frame; a null signal mask leaves it unchanged.
        let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, ts_ptr, std::ptr::null()) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}

/// A request in flight on one connection.
struct Pending {
    /// Stream position (or `u64::MAX - k` for out-of-band requests).
    idx: u64,
    id: u64,
    /// When the request was due: its scheduled time (open loop) or the
    /// moment its window slot freed (closed loop).
    due: Instant,
    /// Just before the `write` that carried it.
    sent: Instant,
}

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub idx: u64,
    pub due: Instant,
    pub sent: Instant,
    pub recv: Instant,
}

pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    /// Requests queued into `out` since the last flush; stamped with the
    /// send time when the batch is written.
    unsent: Vec<(u64, u64, Instant)>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 << 10),
            inbuf: Vec::with_capacity(256 << 10),
            pending: VecDeque::new(),
            unsent: Vec::new(),
        })
    }

    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.unsent.len()
    }

    /// Appends a request line to the outgoing batch.
    pub fn queue(&mut self, idx: u64, id: u64, line: &str, due: Instant) {
        self.out.extend_from_slice(line.as_bytes());
        self.unsent.push((idx, id, due));
    }

    /// Writes the queued batch: one `write` call, repeated only if the
    /// kernel took part of it.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = Instant::now();
        for (idx, id, due) in self.unsent.drain(..) {
            self.pending.push_back(Pending { idx, id, due, sent });
        }
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => written += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let mut fds = [sys::PollFd {
                        fd: self.stream.as_raw_fd(),
                        events: sys::POLLOUT,
                        revents: 0,
                    }];
                    sys::wait(&mut fds, Some(Duration::from_millis(100)))?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        Ok(())
    }

    /// Reads whatever is available and hands each complete response line
    /// to `on_line` with its sample. Returns `false` once the peer closed.
    fn read_ready(
        &mut self,
        on_line: &mut dyn FnMut(Sample, &[u8]) -> io::Result<()>,
    ) -> io::Result<bool> {
        let mut open = true;
        let mut chunk = [0u8; 64 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    open = false;
                    break;
                }
                Ok(k) => self.inbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let recv = Instant::now();
        let mut start = 0;
        while let Some(pos) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.inbuf[start..start + pos];
            start += pos + 1;
            let p = self
                .pending
                .pop_front()
                .ok_or_else(|| io::Error::other("response with no request in flight"))?;
            if response_id(line) != Some(p.id) {
                return Err(io::Error::other(format!(
                    "response out of order: expected id {}, got {}",
                    p.id,
                    String::from_utf8_lossy(&line[..line.len().min(80)])
                )));
            }
            on_line(
                Sample {
                    idx: p.idx,
                    due: p.due,
                    sent: p.sent,
                    recv,
                },
                line,
            )?;
        }
        self.inbuf.drain(..start);
        Ok(open)
    }

    /// Sends one line and blocks for its response (set-up, `stats`,
    /// `shutdown`; never inside a timed window).
    pub fn rpc(&mut self, id: u64, line: &str, timeout: Duration) -> io::Result<String> {
        assert_eq!(self.in_flight(), 0, "rpc needs an idle connection");
        self.queue(u64::MAX, id, line, Instant::now());
        self.flush()?;
        let deadline = Instant::now() + timeout;
        let mut reply = None;
        while reply.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
            }
            let mut fds = [sys::PollFd {
                fd: self.stream.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            }];
            sys::wait(&mut fds, Some(deadline - now))?;
            let open = self.read_ready(&mut |_, line| {
                reply = Some(String::from_utf8_lossy(line).into_owned());
                Ok(())
            })?;
            if !open && reply.is_none() {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(reply.expect("loop exits with a reply"))
    }
}

/// The `id` at the head of a response line (`{"id":N,...`).
pub fn response_id(line: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// How requests are offered.
pub enum Pace {
    /// Each connection keeps `window` requests outstanding; a response
    /// frees its slot and the next request goes out at once.
    Closed { window: usize },
    /// Request `i` is due at `start + i / rate`, on connection `i % conns`.
    Open { rate: f64 },
}

/// What a driven window produced.
pub struct Driven {
    pub start: Instant,
    /// Stream positions `first..first + sent` went out.
    pub sent: u64,
    /// Responses that arrived before the window closed.
    pub in_window: u64,
    /// Requests that never got a response.
    pub missing: u64,
    /// Wall time the window measured.
    pub elapsed: Duration,
}

/// Drives stream positions `first..` over `conns` for `seconds`, calling
/// `line_for(idx)` for request bytes and `on_response` for each
/// response. After the window closes, outstanding requests are drained
/// for up to `drain` before being counted missing.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    conns: &mut [Conn],
    pace: &Pace,
    first: u64,
    limit: Option<u64>,
    seconds: f64,
    drain: Duration,
    line_for: &mut dyn FnMut(u64) -> (u64, String),
    on_response: &mut dyn FnMut(Sample, &[u8]) -> io::Result<()>,
) -> io::Result<Driven> {
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let close = start + window;
    let mut next = first;
    let end = limit.unwrap_or(u64::MAX);
    let mut in_window = 0u64;
    let mut closed_at = None;
    let mut last_recv = start;
    let due_of = |i: u64, rate: f64| start + Duration::from_secs_f64((i - first) as f64 / rate);

    // Closed loop: fill every window up front, in one write per connection.
    if let Pace::Closed { window } = pace {
        for c in conns.iter_mut() {
            while c.in_flight() < *window && next < end {
                let (id, line) = line_for(next);
                c.queue(next, id, &line, start);
                next += 1;
            }
            c.flush()?;
        }
    }
    loop {
        let now = Instant::now();
        let sending = now < close && next < end;
        if closed_at.is_none() && !sending {
            closed_at = Some(now.min(close));
        }
        if let (Pace::Open { rate }, true) = (pace, sending) {
            let k = conns.len() as u64;
            while next < end && due_of(next, *rate) <= now {
                let (id, line) = line_for(next);
                conns[(next % k) as usize].queue(next, id, &line, due_of(next, *rate));
                next += 1;
            }
            for c in conns.iter_mut() {
                c.flush()?;
            }
        }
        let outstanding: usize = conns.iter().map(Conn::in_flight).sum();
        if !sending && outstanding == 0 {
            break;
        }
        if !sending && now >= close + drain {
            break;
        }
        let timeout = match pace {
            Pace::Open { rate } if sending && next < end => due_of(next, *rate)
                .saturating_duration_since(now)
                .min(close - now),
            _ if sending => close - now,
            _ => (close + drain).saturating_duration_since(now),
        };
        let mut fds: Vec<sys::PollFd> = conns
            .iter()
            .map(|c| sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            })
            .collect();
        sys::wait(&mut fds, Some(timeout))?;
        for (c, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents == 0 {
                continue;
            }
            let open = c.read_ready(&mut |s, line| {
                if s.recv <= close {
                    in_window += 1;
                }
                last_recv = s.recv;
                on_response(s, line)
            })?;
            if !open {
                return Err(io::Error::other("server closed the connection"));
            }
            if let Pace::Closed { window } = pace {
                let freed_at = Instant::now();
                if freed_at < close {
                    while c.in_flight() < *window && next < end {
                        let (id, line) = line_for(next);
                        c.queue(next, id, &line, freed_at);
                        next += 1;
                    }
                    c.flush()?;
                }
            }
        }
    }
    let missing: usize = conns.iter().map(Conn::in_flight).sum();
    for c in conns.iter_mut() {
        c.pending.clear();
        c.unsent.clear();
        c.out.clear();
    }
    Ok(Driven {
        start,
        sent: next - first,
        in_window,
        missing: missing as u64,
        // A stream that ran out before the window closed ends the window
        // at its last response instead.
        elapsed: match closed_at {
            Some(t) if t < close => last_recv.max(t) - start,
            _ => window,
        },
    })
}
