//! The server process: spawn `domatic serve`, wait for its address,
//! read its CPU time and peak RSS from `/proc`, and always reap it.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields.
fn clock_ticks() -> f64 {
    // SAFETY: `sysconf` reads a process-wide constant and has no
    // memory-safety preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User + system CPU seconds of a process (all its threads), from
/// `/proc/<pid>/stat`; `pid` may be `"self"`.
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `utime` and `stime` are fields 14 and 15; `rest` starts at field 3.
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((tick(11)? + tick(12)?) / clock_ticks())
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
    Ok(kb as f64 / 1024.0)
}

/// A running `domatic serve`. Dropping it kills and reaps the process, so
/// no server outlives the harness even when a run fails.
pub struct ServerProc {
    child: Child,
    /// Held open so a late line on the server's stdout cannot fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `bin serve --port 0 --graph NAME=FILE...` with every other
    /// knob at its default, and waits until it announces its address.
    pub fn spawn(
        bin: &Path,
        graphs: &[(String, std::path::PathBuf)],
        log: &Path,
    ) -> io::Result<ServerProc> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg("--port").arg("0");
        for (name, file) in graphs {
            cmd.arg("--graph").arg(format!("{name}={}", file.display()));
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(std::fs::File::create(log)?))
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = ServerProc {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        proc._stdout.read_line(&mut line)?;
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("server did not start: {line:?}")))?;
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the process to exit on its own (after a `shutdown`
    /// request); kills it if it has not within `timeout`.
    pub fn wait_exit(mut self, timeout: Duration) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status.success());
            }
            if Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
