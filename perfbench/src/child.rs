//! A `julienne serve` child process: spawned, timed until it prints its
//! listening line, sampled for peak memory, and always shut down and
//! reaped.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

pub struct ServerChild {
    child: Child,
    pub addr: String,
    /// Spawn until the listening line was read.
    pub setup: Duration,
}

impl ServerChild {
    /// Spawns `julienne serve <args>` and waits for `listening on <addr>`.
    pub fn spawn(julienne: &Path, args: &[String]) -> Result<ServerChild, String> {
        let t0 = Instant::now();
        let mut child = Command::new(julienne)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", julienne.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {args:?}"));
                }
                Ok(_) => {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        break rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                }
            }
        };
        let setup = t0.elapsed();
        // Keep draining stdout so the server never blocks on a full pipe.
        thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerChild { child, addr, setup })
    }

    /// A memory figure of the server from `/proc/<pid>/status` in MiB:
    /// `VmRSS:` (resident now) or `VmHWM:` (peak resident).
    pub fn memory_mb(&self, field: &str) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Asks for a drained shutdown over the wire, then reaps the process
    /// (killing it if it has not exited within ten seconds).
    pub fn shutdown(mut self) {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = writeln!(s, "{{\"shutdown\":true}}");
            let mut ack = String::new();
            let _ = BufReader::new(s).read_line(&mut ack);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Only reached when `shutdown` was skipped by an early return.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
